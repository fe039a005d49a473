// Package bomw ("Best Of Many Worlds") is a Go reproduction of
// Vasiliadis, Tsirbas and Ioannidis, "The Best of Many Worlds: Scheduling
// Machine Learning Inference on CPU-GPU Integrated Architectures"
// (IPDPS Workshops / HCW 2022).
//
// The library provides:
//
//   - FFNN and CNN inference engines with the paper's five workload
//     models (Simple/Iris, Mnist-Small, Mnist-Deep, Mnist-CNN, Cifar-10)
//     and the sixteen data-augmentation architectures of §V-B;
//   - calibrated analytical models of the paper's three processors
//     (i7-8700 CPU, UHD Graphics 630 iGPU, GTX 1080 Ti dGPU) behind a
//     simulated OpenCL runtime, including the PCIe transfer model and
//     the GPU Boost clock state machine;
//   - power instrumentation in the style of nvidia-smi and Intel PCM;
//   - the performance-characterisation sweeps of Figs. 3-4 and the
//     ≈1500-sample scheduler training dataset;
//   - six from-scratch device-selection classifiers (random forest,
//     decision tree, k-NN, linear regression, SVM, MLP) with stratified
//     nested cross-validation (Tables I-III);
//   - and the paper's primary contribution: an online, adaptive,
//     device-agnostic scheduler with best-throughput, lowest-latency and
//     energy-efficiency policies (Fig. 5, Fig. 6).
//
// Quick start:
//
//	sched, err := bomw.NewScheduler(bomw.Config{TrainModels: bomw.AllModels()})
//	if err != nil { ... }
//	err = sched.LoadModel(bomw.MnistSmall(), 1)
//	res, dec, err := sched.Classify("mnist-small", batch, bomw.BestThroughput, 0)
//
// All execution is charged in deterministic virtual time by the device
// models, so every figure and table of the paper regenerates bit-for-bit
// on any machine; see EXPERIMENTS.md.
package bomw

import (
	"bomw/internal/characterize"
	"bomw/internal/cluster"
	"bomw/internal/core"
	"bomw/internal/device"
	"bomw/internal/fault"
	"bomw/internal/mlsched"
	"bomw/internal/models"
	"bomw/internal/nn"
	"bomw/internal/opencl"
	"bomw/internal/tensor"
	"bomw/internal/trace"
)

// Version is the library release.
const Version = "1.0.0"

// Scheduling policies (Fig. 5).
type Policy = core.Policy

// Policy values.
const (
	BestThroughput   = core.BestThroughput
	LowestLatency    = core.LowestLatency
	EnergyEfficiency = core.EnergyEfficiency
)

// Scheduler is the online adaptive scheduler (§V).
type Scheduler = core.Scheduler

// Config parameterises scheduler construction.
type Config = core.Config

// Decision is one scheduling choice.
type Decision = core.Decision

// NewScheduler characterises the devices, trains the per-policy
// classifiers and returns a ready scheduler.
func NewScheduler(cfg Config) (*Scheduler, error) { return core.New(cfg) }

// LoadScheduler restores a scheduler from state previously written with
// Scheduler.SaveState, skipping the offline characterisation and
// training phase.
var LoadScheduler = core.LoadState

// Model architecture types.
type (
	// Spec declares a network architecture (§III-B).
	Spec = nn.Spec
	// Network is a built, executable model.
	Network = nn.Network
	// Descriptor is the scheduler's architecture feature view (§V-B).
	Descriptor = nn.Descriptor
)

// Model kinds.
const (
	FFNN = nn.FFNN
	CNN  = nn.CNN
)

// Activation functions for Spec.Act.
const (
	Identity = tensor.Identity
	ReLU     = tensor.ReLU
	Tanh     = tensor.Tanh
	Sigmoid  = tensor.Sigmoid
)

// Tensor is the dense float32 array type batches are carried in.
type Tensor = tensor.Tensor

// NewTensor allocates a zero tensor.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// TensorFromSlice wraps data in a tensor.
func TensorFromSlice(data []float32, shape ...int) *Tensor {
	return tensor.FromSlice(data, shape...)
}

// The paper's model zoo (§III-B, §V-B).
var (
	Simple             = models.Simple
	MnistSmall         = models.MnistSmall
	MnistDeep          = models.MnistDeep
	MnistCNN           = models.MnistCNN
	Cifar10            = models.Cifar10
	PaperModels        = models.PaperModels
	AugmentationModels = models.AugmentationModels
	AllModels          = models.AllModels
	UnseenModels       = models.UnseenModels
	ModelByName        = models.ByName
)

// Dataset is a labelled synthetic sample batch.
type Dataset = models.Dataset

// Synthesize generates deterministic synthetic samples for a model.
func Synthesize(spec *Spec, n int, seed int64) *Dataset { return models.Synthesize(spec, n, seed) }

// Device simulation.
type (
	// Device is one simulated processor.
	Device = device.Device
	// DeviceProfile holds a device's calibration constants.
	DeviceProfile = device.Profile
	// DeviceReport describes one simulated execution.
	DeviceReport = device.Report
)

// The paper's hardware platform (§III-A).
var (
	IntelCoreI7_8700 = device.IntelCoreI7_8700
	IntelUHD630      = device.IntelUHD630
	NvidiaGTX1080Ti  = device.NvidiaGTX1080Ti
	DefaultProfiles  = device.DefaultProfiles
	NewDevice        = device.New
)

// Runtime is the simulated OpenCL runtime (§IV).
type Runtime = opencl.Runtime

// NewRuntime builds a runtime over simulated devices, in the order given.
func NewRuntime(devices ...*Device) (*Runtime, error) { return opencl.NewRuntime(devices...) }

// Deterministic fault injection for failure-domain drills: one seeded
// plan of device errors, latency spikes and outages and node down
// windows and slowdowns on the virtual clock. Arm it on a fleet with
// ClusterConfig.Faults, or on one runtime with Runtime.SetFaults; the
// serving pipeline retries faulted batches on the next-ranked device
// and quarantines devices that fail persistently, and the router skips
// a node inside a down window.
type (
	// FaultPlan is a seeded list of scripted faults.
	FaultPlan = fault.Plan
	// Fault is one scripted fault: a target, a window and an effect.
	Fault = fault.Fault
	// FaultInjector evaluates a fault plan.
	FaultInjector = fault.Injector
	// DeviceFault is the error returned by injected failures.
	DeviceFault = opencl.DeviceFault
)

var (
	// ParseFaults builds a plan from a fault spec (see fault.Parse for
	// the grammar) for a fleet with the given node names.
	ParseFaults = fault.Parse
	// NewFaultInjector builds the injector that evaluates a plan.
	NewFaultInjector = fault.NewInjector
)

// Characterisation (Figs. 3-4) and dataset building (§V-B).
type (
	// Sweeper runs characterisation sweeps.
	Sweeper = characterize.Sweeper
	// SweepPoint is one measurement.
	SweepPoint = characterize.Point
	// LabeledSet is the scheduler training corpus.
	LabeledSet = characterize.LabeledSet
)

// NewSweeper builds a sweeper over the paper's devices.
var (
	NewSweeper   = characterize.NewSweeper
	PaperBatches = characterize.PaperBatches
)

// Classifiers (Table II).
type Classifier = mlsched.Classifier

// Classifier constructors.
var (
	NewRandomForest     = mlsched.NewTunedForest
	NewDecisionTree     = func() Classifier { return mlsched.NewTree(mlsched.DefaultTreeConfig()) }
	NewKNN              = func(k int) Classifier { return mlsched.NewKNN(k) }
	NewLinearRegression = func() Classifier { return mlsched.NewLinearRegression() }
	NewSVM              = func(seed int64) Classifier { return mlsched.NewSVM(seed) }
	NewMLP              = func(seed int64) Classifier { return mlsched.NewMLP(seed) }
)

// Workload traces (§I dynamic fluctuations).
type (
	// Trace is a stream of classification requests.
	Trace = trace.Trace
	// Request is one arriving job.
	Request = trace.Request
)

// Trace generators.
var (
	PoissonTrace = trace.Poisson
	BurstTrace   = trace.Burst
	DiurnalTrace = trace.Diurnal
	SweepTrace   = trace.Sweep
)

// FFNNTrainer fits dense networks by mini-batch SGD (§III-B training).
type FFNNTrainer = nn.Trainer

// Model optimisations — the orthogonal, per-device techniques of the
// paper's §VII related work (sparsification, reduced precision).
var (
	// PruneNetwork zeroes the smallest-magnitude fraction of dense
	// weights in place.
	PruneNetwork = nn.Prune
	// SparsifyNetwork rebuilds a pruned network with CSR execution.
	SparsifyNetwork = nn.SparsifyNetwork
	// HalveNetwork rebuilds a network with fp16 weight storage.
	HalveNetwork = nn.HalveNetwork
	// NetworkAccuracy scores a network against labels.
	NetworkAccuracy = nn.Accuracy
)

// DefaultPool is the host execution pool sized to this machine.
var DefaultPool = tensor.Default

// Batcher aggregates arriving requests into dispatch batches (batch size
// is the paper's decisive scheduling variable, §IV-C).
type Batcher = core.Batcher

// The concurrent serving pipeline: admission with bounded queues and
// load shedding, live batching, per-device worker queues, completion
// futures. This is the online counterpart of the offline Batcher.
type (
	// Pipeline is the staged concurrent serving core.
	Pipeline = core.Pipeline
	// PipelineConfig bounds the pipeline's queues and batching window.
	PipelineConfig = core.PipelineConfig
	// PipelineRequest is one unit of admitted work. Its Input is read
	// until the request's future resolves or Submit refuses it, and
	// never after: the caller may then reuse the tensor.
	PipelineRequest = core.PipelineRequest
	// Completion is the resolved outcome of a pipelined request.
	Completion = core.Completion
	// Future resolves to a Completion once the request's batch executes.
	Future = core.Future
	// PipelineStats is a snapshot of pipeline counters and queue depths.
	PipelineStats = core.PipelineStats
	// Ledger is the request accounting PipelineStats, a fleet's node rows
	// and its totals all embed.
	Ledger = core.Ledger
	// Clock is what PipelineConfig.Clock and ClusterConfig.Clock take: the
	// serving path's one source of now and of timers.
	Clock = core.Clock
	// ManualClock is a Clock a test steps with Advance.
	ManualClock = core.ManualClock
)

// NewPipeline starts a serving pipeline over a trained scheduler.
func NewPipeline(s *Scheduler, cfg PipelineConfig) *Pipeline { return core.NewPipeline(s, cfg) }

// The two clocks: wall time since the call (the default), and one that
// stands still until stepped.
var (
	WallClock      = core.WallClock
	NewManualClock = core.NewManualClock
)

// Pipeline admission errors.
var (
	// ErrAdmissionFull signals load shedding: the bounded admission
	// queue is full and the caller should back off and retry.
	ErrAdmissionFull = core.ErrAdmissionFull
	// ErrFutureClaimed is Future.Wait's answer once another Wait has
	// received the completion, or is receiving it: a future is waited
	// once.
	ErrFutureClaimed = core.ErrFutureClaimed
	// ErrPipelineClosed rejects work submitted after Close.
	ErrPipelineClosed = core.ErrPipelineClosed
	// ErrNoEligibleDevice reports that an exclusion set (failed or
	// quarantined devices) left Select with no device to schedule on.
	ErrNoEligibleDevice = core.ErrNoEligibleDevice
	// ErrDeadlineInfeasible rejects, at admission, a request whose SLO
	// is predicted unmeetable even on the best available device.
	ErrDeadlineInfeasible = core.ErrDeadlineInfeasible
	// ErrDeadlineExceeded resolves a request whose SLO passed before
	// execution; the work was culled without spending device time.
	ErrDeadlineExceeded = core.ErrDeadlineExceeded
)

// The cluster tier: one serving box (scheduler + pipeline + devices) as
// a replaceable Node, and N of them behind a routing front-end with
// pluggable policies, failover, and node-level health aggregation.
type (
	// Node is one serving box behind the narrow routed surface.
	Node = core.Node
	// NodeState is a node's lifecycle position (ready/draining/…).
	NodeState = core.NodeState
	// NodeStats snapshots one node's serving activity.
	NodeStats = core.NodeStats
	// NodeHealth is the per-node health rollup the fleet aggregates.
	NodeHealth = core.NodeHealth
	// Cluster routes requests over N nodes on one shared virtual clock.
	Cluster = cluster.Cluster
	// ClusterConfig sets the routing policy, clock and fault plan.
	ClusterConfig = cluster.Config
	// RoutingPolicy names the rule that ranks candidate nodes for one
	// request: round-robin, least-loaded or model-affinity.
	RoutingPolicy = cluster.Policy
	// FleetStats aggregates routing activity and per-node serving counters.
	FleetStats = cluster.FleetStats
	// NodeSnapshot is one node's row in FleetStats.
	NodeSnapshot = cluster.NodeSnapshot
)

// Node lifecycle states.
const (
	NodeReady    = core.NodeReady
	NodeDraining = core.NodeDraining
	NodeDrained  = core.NodeDrained
	NodeKilled   = core.NodeKilled
)

// Cluster-tier errors.
var (
	// ErrNodeDraining rejects work submitted to a draining node.
	ErrNodeDraining = core.ErrNodeDraining
	// ErrNodeDown rejects work submitted to a drained or killed node.
	ErrNodeDown = core.ErrNodeDown
	// ErrNoHealthyNodes signals fleet-wide load shedding: no node is
	// routable — each is evicted, not Ready or inside a down window.
	ErrNoHealthyNodes = cluster.ErrNoHealthyNodes
)

// NewNode wraps a scheduler and a fresh pipeline into a serving node.
func NewNode(name string, s *Scheduler, cfg PipelineConfig) *Node {
	return core.NewNode(name, s, cfg)
}

// BuildCluster replicates a trained template scheduler into an n-node
// fleet (shared classifiers, fresh devices) on one shared clock.
func BuildCluster(template *Scheduler, n int, seed int64, pcfg PipelineConfig, cfg ClusterConfig) (*Cluster, []*Node, error) {
	return cluster.Build(template, n, seed, pcfg, cfg)
}

// RoutingPolicyByName parses a routing policy's CLI/API name:
// round-robin, least-loaded or model-affinity.
var RoutingPolicyByName = cluster.PolicyByName

// Play offers a trace open-loop to a live Pipeline, Node or Cluster and
// accounts every arrival as completed, dropped, expired or failed.
var Play = core.Play

// DeadlineDecision is the outcome of an SLO-constrained selection.
type DeadlineDecision = core.DeadlineDecision

// ReplayResult aggregates a trace replay.
type ReplayResult = core.ReplayResult

// Trace analysis.
var (
	// SummarizeTrace computes request/batch/burstiness statistics.
	SummarizeTrace = trace.Summarize
	// TraceRateOver profiles request rate over fixed windows.
	TraceRateOver = trace.RateOver
	// ReadTraceJSON parses a trace persisted with Trace.WriteJSON.
	ReadTraceJSON = trace.ReadJSON
)

// ParseSpecJSON decodes and validates one architecture document.
var ParseSpecJSON = nn.ParseSpecJSON
