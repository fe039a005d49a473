package opencl

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"bomw/internal/device"
	"bomw/internal/fault"
	"bomw/internal/nn"
	"bomw/internal/tensor"
)

// Runtime is the execution service the Dispatcher of Fig. 2 builds on:
// models are compiled and their weights staged on every available device
// up front (the training-phase hand-off), and classification batches are
// then dispatched to whichever device the scheduler selects.
type Runtime struct {
	ctx *Context

	// submit serialises whole command sequences per device: without it,
	// two concurrent Classify calls targeting the same device interleave
	// their write/kernel/read commands on the device's virtual timeline,
	// producing incoherent profiling logs. Cross-device dispatch stays
	// fully parallel, which is what the serving pipeline exploits.
	submit map[string]*sync.Mutex

	mu       sync.Mutex
	programs map[string]*Program // model name → compiled pipeline
	faults   *fault.Injector
	node     string // the fleet node this runtime serves as, for faults
	nodeIdx  int
}

// DeviceFault is the error a faulty device surfaces from Classify or
// Estimate: the simulated equivalent of CL_OUT_OF_RESOURCES or a hung
// command queue. Schedulers treat it as a signal to retry elsewhere and
// to quarantine the device when faults persist.
type DeviceFault struct {
	Device string
	At     time.Duration // virtual submission time of the failed batch
	Reason string        // "injected" (an err draw) or "outage" (a scripted window)
}

func (e *DeviceFault) Error() string {
	return fmt.Sprintf("opencl: device %q fault at %v (%s)", e.Device, e.At, e.Reason)
}

// SetFaults arms a fault plan's injector on the runtime, which serves
// as node, the fleet's index-th node: subsequent executions consult it
// while holding the device's submit lock, so per-device fault sequences
// are deterministic. Pass nil to disarm.
func (r *Runtime) SetFaults(in *fault.Injector, node string, index int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.faults, r.node, r.nodeIdx = in, node, index
}

// NewRuntime prepares a shared context over the simulated devices, in
// the order given.
func NewRuntime(sims ...*device.Device) (*Runtime, error) {
	devs := make([]*ClDevice, len(sims))
	for i, s := range sims {
		devs[i] = NewClDevice(s)
	}
	ctx, err := CreateContext(devs...)
	if err != nil {
		return nil, err
	}
	submit := make(map[string]*sync.Mutex, len(ctx.Devices))
	for _, d := range ctx.Devices {
		submit[d.Name()] = &sync.Mutex{}
	}
	return &Runtime{ctx: ctx, submit: submit, programs: map[string]*Program{}}, nil
}

// Context exposes the runtime's OpenCL context.
func (r *Runtime) Context() *Context { return r.ctx }

// Devices lists the runtime's devices.
func (r *Runtime) Devices() []*ClDevice { return r.ctx.Devices }

// LoadModel compiles the network and registers it with every device —
// the Model Building and Weights Building hand-off of Fig. 2. Loading is
// part of the offline phase and charges no virtual time.
func (r *Runtime) LoadModel(net *nn.Network) error {
	prog, err := BuildProgram(net)
	if err != nil {
		return err
	}
	return r.LoadProgram(prog)
}

// LoadProgram registers a pipeline BuildProgram has already compiled —
// LoadModel for a caller that loads one network into many runtimes and
// compiles it once.
func (r *Runtime) LoadProgram(prog *Program) error {
	name := prog.Net.Name()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.programs[name]; dup {
		return fmt.Errorf("opencl: model %q already loaded", name)
	}
	r.programs[name] = prog
	return nil
}

// Program returns the compiled pipeline for a loaded model.
func (r *Runtime) Program(model string) (*Program, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.programs[model]
	if !ok {
		return nil, fmt.Errorf("opencl: model %q not loaded", model)
	}
	return p, nil
}

// Models lists loaded model names, sorted for stable output.
func (r *Runtime) Models() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.programs))
	for n := range r.programs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Result is the outcome of one dispatched classification batch: when it
// was submitted, when its first command started (queueing behind the
// device's earlier work ends there) and when it completed, and what it
// cost.
type Result struct {
	Device    string
	Model     string
	Batch     int
	Classes   []int // nil for timing-only estimates
	Submitted time.Duration
	Start     time.Duration
	Completed time.Duration
	EnergyJ   float64
}

// Latency returns submit-to-complete time, including queueing.
func (r *Result) Latency() time.Duration { return r.Completed - r.Submitted }

// ThroughputGbps returns input throughput for a given sample size.
func (r *Result) ThroughputGbps(sampleBytes int64) float64 {
	if r.Latency() <= 0 {
		return 0
	}
	return float64(r.Batch) * float64(sampleBytes) * 8 / r.Latency().Seconds() / 1e9
}

// Classify dispatches a real batch to the named device at virtual time
// at: input staged via write (discrete) or map (unified), one
// NDRange launch per kernel, results read back. The returned result
// carries the actual classifications and what the batch was charged.
func (r *Runtime) Classify(devName, model string, in *tensor.Tensor, at time.Duration) (*Result, error) {
	return r.run(devName, model, in, in.Dim(0), at, nil)
}

// Estimate charges the full command sequence for a batch of n samples
// without executing the math — the fast path for characterisation sweeps
// whose host compute would be prohibitive at 256K-sample batches.
func (r *Runtime) Estimate(devName, model string, n int, at time.Duration) (*Result, error) {
	return r.run(devName, model, nil, n, at, nil)
}

// Profile is Classify when in is set and Estimate of n samples when it
// is nil, and it also returns the batch's profiling log: one Event per
// command, in enqueue order. It runs the same command sequence and
// charges the same; only the log is extra.
func (r *Runtime) Profile(devName, model string, in *tensor.Tensor, n int, at time.Duration) (*Result, []Event, error) {
	if in != nil {
		n = in.Dim(0)
	}
	var log []Event
	res, err := r.run(devName, model, in, n, at, &log)
	return res, log, err
}

func (r *Runtime) run(devName, model string, in *tensor.Tensor, n int, at time.Duration, log *[]Event) (*Result, error) {
	if n <= 0 {
		return nil, fmt.Errorf("opencl: batch size must be positive, got %d", n)
	}
	dev, err := r.ctx.DeviceByName(devName)
	if err != nil {
		return nil, err
	}
	prog, err := r.Program(model)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	faults, node, nodeIdx := r.faults, r.node, r.nodeIdx
	r.mu.Unlock()
	// Hold the device's submit lock for the whole command sequence so
	// concurrent callers cannot interleave commands on its timeline.
	lock := r.submit[dev.Name()]
	lock.Lock()
	defer lock.Unlock()
	stretch := 1.0
	if faults != nil {
		var fail string
		if fail, stretch = faults.Exec(node, nodeIdx, devName, at); fail != "" {
			return nil, &DeviceFault{Device: devName, At: at, Reason: fail}
		}
	}
	if in != nil {
		wantShape := prog.Net.InputShape()
		if in.Rank() != len(wantShape)+1 {
			return nil, fmt.Errorf("opencl: %s expects per-sample shape %v, got input %v", model, wantShape, in.Shape())
		}
		for i, d := range wantShape {
			if in.Dim(i+1) != d {
				return nil, fmt.Errorf("opencl: %s expects per-sample shape %v, got input %v", model, wantShape, in.Shape())
			}
		}
	}

	q := queue{at: at, log: log}
	res := &Result{Device: devName, Model: model, Batch: n, Submitted: at}

	// Stage the input: page-locked write over PCIe for discrete devices,
	// zero-copy map for unified memory (§IV-B). clEnqueueMapBuffer is
	// free on shared physical memory, but still a command.
	stage, rep := "clEnqueueMapBuffer", device.Report{Device: devName, Model: "map", Start: q.next()}
	if !dev.UnifiedMemory() {
		stage, rep = "clEnqueueWriteBuffer", dev.Sim.Transfer(q.next(), int64(n)*prog.Net.SampleBytes())
	}
	q.push(stage, rep)
	res.Start = rep.Start

	// One NDRange launch per kernel, charged by the device model. The
	// math is not part of a launch: the network's plan runs once per
	// batch below.
	for _, k := range prog.Kernels {
		q.push(k.event, dev.Sim.ExecuteCompute(q.next(), k.Workload, n))
	}

	// Read results back on discrete devices; mapped output is free.
	if !dev.UnifiedMemory() {
		q.push("clEnqueueReadBuffer", dev.Sim.Transfer(q.next(), int64(n)*int64(prog.Net.Classes())*4))
	}

	res.Completed, res.EnergyJ = q.next(), q.energyJ
	if stretch > 1 {
		// A spike or a slow node stretches the observable execution span
		// (start of the first command → completion) without failing the
		// batch: the health monitor sees a degraded device, clients just
		// see a slow response. Device occupancy is not re-booked — the
		// stretch models external contention, not queued work.
		span := res.Completed - res.Start
		res.Completed += time.Duration(float64(span) * (stretch - 1))
	}
	if in != nil {
		// The charge above never depends on a computed value, so it is the
		// same sequence Estimate charges; the math follows it, still under
		// the device's submit lock.
		res.Classes = prog.Net.Classify(dev.Pool, in)
	}
	return res, nil
}

// State probes a device's condition at virtual time now — the scheduler's
// "PCIe call to check the state of the discrete GPU" (§V-A).
func (r *Runtime) State(devName string, now time.Duration) (device.State, error) {
	dev, err := r.ctx.DeviceByName(devName)
	if err != nil {
		return device.State{}, err
	}
	return dev.Sim.StateAt(now), nil
}
