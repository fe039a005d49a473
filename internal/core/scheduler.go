package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bomw/internal/characterize"
	"bomw/internal/device"
	"bomw/internal/mlsched"
	"bomw/internal/nn"
	"bomw/internal/opencl"
	"bomw/internal/tensor"
)

// Policy selects the metric a device decision optimises (Fig. 5): best
// throughput, lowest latency or energy efficiency.
type Policy = characterize.Objective

// Policy values, re-exported for scheduler users.
const (
	BestThroughput   = characterize.BestThroughput
	LowestLatency    = characterize.LowestLatency
	EnergyEfficiency = characterize.EnergyEfficiency
)

// Config parameterises scheduler construction.
type Config struct {
	// Devices are the processors to schedule over. Defaults to the
	// paper's CPU + iGPU + dGPU trio.
	Devices []*device.Device
	// TrainModels are the architectures characterised to produce the
	// training dataset (§V-B). Required.
	TrainModels []*nn.Spec
	// Batches is the characterisation batch grid; defaults to the
	// paper's 2..256K sweep.
	Batches []int
	// Reps is the number of noisy measurement replicas per
	// configuration; defaults to 2 (≈1500 samples on 21 models).
	Reps int
	// Noise is the measurement noise of the characterisation runs;
	// defaults to 0.12 relative standard deviation.
	Noise float64
	// Seed drives every random choice; defaults to 1.
	Seed int64
	// BuildClassifier constructs the per-policy selector; defaults to
	// the tuned random forest (§VI). Must be deterministic in the seed.
	BuildClassifier func(seed int64) mlsched.Classifier
	// MaxQueueDelay is the adaptation threshold: if the selected
	// device's queue would delay the request by more than this, the
	// scheduler spills to the next-ranked device (overload response,
	// §I "application overloads"). Defaults to 100 ms. Negative
	// disables this queue-delay spill only: a device the health monitor
	// flags degraded is still demoted behind a healthy one.
	MaxQueueDelay time.Duration
}

func (c *Config) fillDefaults() {
	if len(c.Devices) == 0 {
		for _, p := range device.DefaultProfiles() {
			c.Devices = append(c.Devices, device.New(p))
		}
	}
	if len(c.Batches) == 0 {
		c.Batches = characterize.PaperBatches()
	}
	if c.Reps <= 0 {
		c.Reps = 2
	}
	if c.Noise == 0 {
		c.Noise = 0.12
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.BuildClassifier == nil {
		c.BuildClassifier = func(seed int64) mlsched.Classifier { return mlsched.NewTunedForest(seed) }
	}
	if c.MaxQueueDelay == 0 {
		c.MaxQueueDelay = 100 * time.Millisecond
	}
}

// Decision records one scheduling choice.
type Decision struct {
	Model    string
	Batch    int
	Policy   Policy
	Class    int
	Device   string
	GPUWarm  bool
	Spilled  bool // rerouted off the predicted device due to overload
	Features []float64
	// DecisionTime is the wall-clock cost of making this decision (the
	// paper's "classification time", Table II).
	DecisionTime time.Duration
}

// Stats aggregates scheduler activity.
type Stats struct {
	Decisions int
	Spills    int
	// DecisionCacheHits/Misses count SelectCached lookups served from /
	// missing the memoised ranking table (the serving pipeline's fast
	// path; Select and SelectExcluding never consult the cache).
	DecisionCacheHits   int64
	DecisionCacheMisses int64
	// Quarantines counts lifetime quarantine transitions: devices fenced
	// off after consecutive execution errors.
	Quarantines int64
	// Readmissions counts quarantined devices re-admitted after a
	// successful execution (normally a recovery probe).
	Readmissions int64
	// Quarantined lists the devices currently fenced off, sorted — empty,
	// never nil (it goes on the wire as it is).
	Quarantined []string
	// PerDevice counts decisions by chosen device; a device never chosen
	// has no entry.
	PerDevice map[string]int
	// PerPolicy counts classifier-ranked decisions only (Select,
	// SelectCached, SelectExcluding). A SelectWithDeadline decision ranks
	// by predicted latency and energy, not by a policy's classifier, and
	// has no entry here: Decisions − Σ PerPolicy is their number.
	PerPolicy map[Policy]int
}

// Scheduler is the online adaptive scheduler of Fig. 5.
type Scheduler struct {
	cfg  Config
	rt   *opencl.Runtime
	disp *Dispatcher

	devices []*device.Device
	dgpu    *device.Device // nil when no boosted device is present

	// classifiers is written only while the scheduler is built (New,
	// LoadState, Replica) and is read-only once it is shared.
	classifiers map[Policy]mlsched.Classifier
	// health is the scheduler's one health monitor; ResetDevices clears
	// it in place.
	health *healthMonitor
	audit  atomic.Pointer[auditLog] // nil until EnableAudit

	// policyMask is the immutable set of trained policies as a bitmask,
	// written once at construction and read lock-free on the admission
	// hot path. A bit test beats a map probe per Submit.
	policyMask uint64

	// Decision memoisation (SelectCached): (model, policy, batch bucket,
	// warm) → classifier ranking + feature vector, versioned by decEpoch.
	// A bumped epoch lazily invalidates every entry; see
	// invalidateDecisions for the events that bump it.
	decCache  sync.Map // decisionKey → *decisionEntry
	decEpoch  atomic.Uint64
	decHits   atomic.Int64
	decMisses atomic.Int64

	// Decision counters. A writer bumps decisions first and Stats reads
	// it last, so no snapshot shows more spills, per-device or
	// per-policy decisions than decisions.
	decisions atomic.Int64
	spills    atomic.Int64
	perDevice []atomic.Int64                     // by device class
	perPolicy [EnergyEfficiency + 1]atomic.Int64 // by Policy

	// mu guards queueProbe, which SetQueueProbe swaps while the
	// scheduler serves.
	mu         sync.Mutex
	queueProbe func(device string) time.Duration

	// shadowMu guards the memoised shadow-cost table deadline prediction
	// and health observation share (see shadowCost in deadline.go).
	shadowMu    sync.Mutex
	shadowCache map[shadowKey]shadowCost
}

// newScheduler assembles an untrained scheduler over cfg.Devices — the
// part New, LoadState and Replica share. The caller supplies the
// classifiers and then calls buildPolicySet.
func newScheduler(cfg Config) (*Scheduler, error) {
	rt, err := opencl.NewRuntime(cfg.Devices...)
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		cfg:         cfg,
		rt:          rt,
		disp:        NewDispatcher(rt),
		devices:     cfg.Devices,
		classifiers: map[Policy]mlsched.Classifier{},
		health:      newHealthMonitor(),
		perDevice:   make([]atomic.Int64, len(cfg.Devices)),
	}
	for _, d := range cfg.Devices {
		if d.Profile().HasBoost {
			s.dgpu = d
			break
		}
	}
	return s, nil
}

// New characterises the devices over the training models, trains one
// classifier per policy, and returns a ready scheduler. Construction is
// the paper's offline phase (≈26 s on the testbed; a couple of seconds
// here).
func New(cfg Config) (*Scheduler, error) {
	cfg.fillDefaults()
	if len(cfg.TrainModels) == 0 {
		return nil, fmt.Errorf("core: Config.TrainModels is required")
	}
	s, err := newScheduler(cfg)
	if err != nil {
		return nil, err
	}

	// Characterise on shadow devices built from the same profiles so the
	// online devices keep their live state.
	sweeper := &characterize.Sweeper{Noise: cfg.Noise, Seed: cfg.Seed}
	for _, d := range cfg.Devices {
		sweeper.Profiles = append(sweeper.Profiles, d.Profile())
	}
	set, err := sweeper.BuildDataset(cfg.TrainModels, cfg.Batches, cfg.Reps)
	if err != nil {
		return nil, err
	}

	for _, pol := range characterize.Objectives() {
		c := cfg.BuildClassifier(cfg.Seed)
		if err := c.Fit(set.X, set.Y[pol]); err != nil {
			return nil, fmt.Errorf("core: training %s classifier: %w", pol, err)
		}
		s.classifiers[pol] = c
	}
	s.buildPolicySet()
	return s, nil
}

// Runtime exposes the underlying OpenCL runtime.
func (s *Scheduler) Runtime() *opencl.Runtime { return s.rt }

// Dispatcher exposes the Fig. 2 dispatcher.
func (s *Scheduler) Dispatcher() *Dispatcher { return s.disp }

// Classifier returns the trained selector for a policy.
func (s *Scheduler) Classifier(p Policy) mlsched.Classifier { return s.classifiers[p] }

// Devices lists device names in class order — the classifier's label
// order, which is fixed at construction and therefore deterministic
// (API responses and test goldens can rely on it).
func (s *Scheduler) Devices() []string {
	out := make([]string, len(s.devices))
	for i, d := range s.devices {
		out[i] = d.Name()
	}
	return out
}

// LoadModel runs the Fig. 2 dispatcher cycle for a model, making it
// schedulable. Models may be added at any time — the classifier
// generalises to architectures it has never measured (§VI, Fig. 6).
func (s *Scheduler) LoadModel(spec *nn.Spec, seed int64) error {
	_, err := s.disp.Load(spec, seed)
	return err
}

// SetQueueProbe installs a callback reporting the estimated additional
// delay queued ahead of new work on a device, beyond the device
// simulator's committed busy horizon. The serving pipeline registers
// its per-device worker-queue occupancy here, so the spill-to-next-
// ranked adaptation (Config.MaxQueueDelay, §V) reads real queue state.
// Pass nil to detach.
func (s *Scheduler) SetQueueProbe(fn func(device string) time.Duration) {
	s.mu.Lock()
	s.queueProbe = fn
	s.mu.Unlock()
	s.invalidateDecisions()
}

// hasPolicy reports whether a trained classifier exists for the policy.
// It reads the immutable policy mask lock-free — this sits on the Submit
// hot path.
func (s *Scheduler) hasPolicy(p Policy) bool {
	return uint64(p) < 64 && s.policyMask&(1<<uint64(p)) != 0
}

// buildPolicySet freezes the set of trained policies; called once at
// construction, before the scheduler is shared.
func (s *Scheduler) buildPolicySet() {
	s.policyMask = 0
	for pol := range s.classifiers {
		s.policyMask |= 1 << uint64(pol)
	}
}

// probeGPU performs the paper's PCIe state probe. Systems without a
// boosted device report warm (no cold-clock penalty exists).
func (s *Scheduler) probeGPU(now time.Duration) bool {
	if s.dgpu == nil {
		return true
	}
	return s.dgpu.StateAt(now).Warm
}

// ErrNoEligibleDevice is returned by SelectExcluding when the exclusion
// set rules out every device — the retry loop's signal that failover has
// run out of places to go.
var ErrNoEligibleDevice = errors.New("core: no eligible device (all excluded)")

// Select chooses the device for one request at virtual time now, without
// executing it.
func (s *Scheduler) Select(model string, batch int, pol Policy, now time.Duration) (Decision, error) {
	return s.SelectExcluding(model, batch, pol, now, nil)
}

// SelectExcluding is Select with an exclusion set: devices named in
// exclude are never chosen, regardless of the classifier's ranking. The
// serving pipeline's retry/failover path uses it to re-route a failed
// batch onto the next-ranked device, excluding every device that already
// failed the batch. Quarantined devices (consecutive execution errors)
// are likewise avoided, unless every remaining candidate is quarantined —
// then the best-ranked one is used anyway, since refusing to schedule
// would fail the request outright.
func (s *Scheduler) SelectExcluding(model string, batch int, pol Policy, now time.Duration, exclude map[string]bool) (Decision, error) {
	//bomw:wallclock DecisionTime measures the real classification cost (paper Table II), not simulated time
	t0 := time.Now()
	if batch <= 0 {
		return Decision{}, fmt.Errorf("core: batch size must be positive, got %d", batch)
	}
	spec, err := s.disp.Spec(model)
	if err != nil {
		return Decision{}, err
	}
	clf, ok := s.classifiers[pol]
	if !ok {
		return Decision{}, fmt.Errorf("core: unknown policy %v", pol)
	}
	warm := s.probeGPU(now)
	feats := characterize.Features(spec.Descriptor(), batch, warm)
	order := rankOf(clf, feats, len(s.devices))
	return s.decideFrom(model, batch, pol, now, exclude, warm, feats, order, t0)
}

// decisionKey identifies one memoised scheduling context. Batch sizes
// are bucketed (next power of two) so the cache stays a handful of
// entries per model instead of one per distinct batch size.
type decisionKey struct {
	model  string
	pol    Policy
	bucket int
	warm   bool
}

// decisionEntry is the cached expensive half of a decision: the §V-B
// feature vector and the classifier's device ranking, stamped with the
// epoch they were computed under. Both slices are shared across every
// decision served from the entry and must be treated as read-only.
type decisionEntry struct {
	epoch uint64
	feats []float64
	order []int
}

// bucketBatch rounds a batch size up to its power-of-two bucket, the
// granularity of the decision cache. The classifier's device rankings
// are piecewise-constant in batch size at this resolution (§IV-C: the
// CPU→iGPU→dGPU crossovers sit decades apart on the batch axis), so
// bucketing keeps the cache tiny without visibly moving decisions.
func bucketBatch(n int) int {
	b := 1
	for b < n {
		b <<= 1
	}
	return b
}

// invalidateDecisions bumps the decision-cache epoch, lazily discarding
// every memoised ranking. It runs on the events that can change what the
// cached layer computed: ResetDevices (fresh health state), SetQueueProbe
// (new occupancy source) and quarantine or readmission transitions. Queue occupancy itself never needs an epoch:
// the spill adaptation reads it live on every decision.
func (s *Scheduler) invalidateDecisions() { s.decEpoch.Add(1) }

// SelectCached is Select through the decision memo: feature assembly and
// classifier ranking — the expensive, state-independent half of a
// decision — are computed once per (model, policy, batch bucket,
// GPU-warm) and reused until invalidateDecisions bumps the epoch. The
// live half (exclusion, quarantine fencing, queue-occupancy spill) still
// runs per call in decideFrom, so cached decisions adapt to queue state
// exactly like uncached ones. The serving pipeline's flush path uses
// this; Select/SelectExcluding always compute fresh. Features of a
// cached decision describe the bucket ceiling, not the exact batch.
func (s *Scheduler) SelectCached(model string, batch int, pol Policy, now time.Duration) (Decision, error) {
	if batch <= 0 {
		return Decision{}, fmt.Errorf("core: batch size must be positive, got %d", batch)
	}
	warm := s.probeGPU(now)
	key := decisionKey{model: model, pol: pol, bucket: bucketBatch(batch), warm: warm}
	epoch := s.decEpoch.Load()
	if v, ok := s.decCache.Load(key); ok {
		if e := v.(*decisionEntry); e.epoch == epoch {
			s.decHits.Add(1)
			// Memo hits skip the wall-clock DecisionTime measurement
			// (zero t0 → DecisionTime 0): the classification itself was
			// amortised away, and on virtualised hardware the two clock
			// reads would cost more than the remaining live half.
			return s.decideFrom(model, batch, pol, now, nil, warm, e.feats, e.order, time.Time{})
		}
	}
	s.decMisses.Add(1)
	//bomw:wallclock DecisionTime measures the real classification cost (paper Table II), not simulated time
	t0 := time.Now()
	spec, err := s.disp.Spec(model)
	if err != nil {
		return Decision{}, err
	}
	clf, ok := s.classifiers[pol]
	if !ok {
		return Decision{}, fmt.Errorf("core: unknown policy %v", pol)
	}
	feats := characterize.Features(spec.Descriptor(), key.bucket, warm)
	order := rankOf(clf, feats, len(s.devices))
	// An epoch bump between the Load above and this Store leaves a
	// stale-stamped entry behind, which the next lookup simply recomputes
	// — invalidation never loses, it only costs one extra miss.
	s.decCache.Store(key, &decisionEntry{epoch: epoch, feats: feats, order: order})
	return s.decideFrom(model, batch, pol, now, nil, warm, feats, order, t0)
}

// rankOf returns the classifier's device-preference order for a feature
// vector: the full ranking when the classifier exposes one, otherwise
// the argmax followed by the remaining classes in index order.
func rankOf(clf mlsched.Classifier, feats []float64, nDevices int) []int {
	if r, ok := clf.(mlsched.Ranker); ok {
		return r.Rank(feats)
	}
	first := clf.Predict(feats)
	order := make([]int, 0, nDevices)
	order = append(order, first)
	for c := 0; c < nDevices; c++ {
		if c != first {
			order = append(order, c)
		}
	}
	return order
}

// decideFrom turns a classifier ranking into a committed decision: it
// applies the exclusion set, fences quarantined devices, runs the
// queue-occupancy spill adaptation, and records stats and the audit
// entry. This is the live (never memoised) half of every Select* path —
// it may read a cached order/feats pair, which it must not mutate.
func (s *Scheduler) decideFrom(model string, batch int, pol Policy, now time.Duration, exclude map[string]bool, warm bool, feats []float64, order []int, t0 time.Time) (Decision, error) {
	if len(order) == 0 || order[0] >= len(s.devices) {
		return Decision{}, fmt.Errorf("core: classifier ranked invalid class for %s", model)
	}
	s.mu.Lock()
	probe := s.queueProbe
	s.mu.Unlock()
	health := s.health

	// Failure domain: drop excluded devices outright, and fence off
	// quarantined ones unless nothing else remains. The candidate list
	// builds in a stack buffer: this runs once per dispatched batch and
	// must not allocate on the happy path.
	var candBuf [8]int
	candidates := candBuf[:0]
	var quarantinedOnly []int
	for _, c := range order {
		if c >= len(s.devices) {
			continue
		}
		name := s.devices[c].Name()
		if exclude[name] {
			continue
		}
		if health.isQuarantined(name) {
			quarantinedOnly = append(quarantinedOnly, c)
			continue
		}
		candidates = append(candidates, c)
	}
	if len(candidates) == 0 {
		candidates = quarantinedOnly
	}
	if len(candidates) == 0 {
		return Decision{}, fmt.Errorf("%w: %s batch %d", ErrNoEligibleDevice, model, batch)
	}

	// Online adaptation: spill to the next-ranked device if the choice
	// is overloaded (queue beyond MaxQueueDelay) or flagged degraded by
	// the health monitor (external interference, §I "system changes").
	// Occupancy is the device's committed busy horizon plus, when a
	// serving pipeline is attached, the real work queued in its
	// per-device worker queue.
	choice := candidates[0]
	healthyIdx := -1
	for _, c := range candidates {
		if s.cfg.MaxQueueDelay >= 0 {
			wait := s.devices[c].StateAt(now).BusyUntil - now
			if probe != nil {
				wait += probe(s.devices[c].Name())
			}
			if wait > s.cfg.MaxQueueDelay {
				continue
			}
		}
		if health.degraded(s.devices[c].Name()) {
			if healthyIdx == -1 {
				healthyIdx = c // remember the best contended option
			}
			continue
		}
		healthyIdx = c
		break
	}
	if healthyIdx >= 0 {
		choice = healthyIdx
	}
	spilled := choice != order[0]

	d := Decision{
		Model:    model,
		Batch:    batch,
		Policy:   pol,
		Class:    choice,
		Device:   s.devices[choice].Name(),
		GPUWarm:  warm,
		Spilled:  spilled,
		Features: feats,
	}
	if !t0.IsZero() {
		//bomw:wallclock real elapsed classification time, paired with the caller's t0
		d.DecisionTime = time.Since(t0)
	}
	s.record(&d, now, 0)
	return d, nil
}

// record accounts one committed decision in the decision counters and,
// when auditing is on, the audit ring. Both decision paths commit
// through it: the classifier-ranked one (decideFrom), which counts
// under d.Policy, and the deadline-routed one (SelectWithDeadline),
// which passes the deadline it routed against and has no policy.
func (s *Scheduler) record(d *Decision, now, deadline time.Duration) {
	s.decisions.Add(1)
	if d.Spilled {
		s.spills.Add(1)
	}
	s.perDevice[d.Class].Add(1)
	policy := ""
	if deadline == 0 {
		s.perPolicy[d.Policy].Add(1)
		policy = d.Policy.String()
	}
	if audit := s.audit.Load(); audit != nil {
		audit.record(AuditEntry{
			At:       now,
			Model:    d.Model,
			Batch:    d.Batch,
			Policy:   policy,
			Deadline: deadline,
			Device:   d.Device,
			GPUWarm:  d.GPUWarm,
			Spilled:  d.Spilled,
			Decision: d.DecisionTime,
		})
	}
}

// Classify selects a device and executes the batch on it, returning both
// the execution result (real classifications) and the decision taken.
func (s *Scheduler) Classify(model string, in *tensor.Tensor, pol Policy, now time.Duration) (*opencl.Result, Decision, error) {
	dec, err := s.Select(model, in.Dim(0), pol, now)
	if err != nil {
		return nil, Decision{}, err
	}
	res, err := s.rt.Classify(dec.Device, model, in, now)
	if err != nil {
		return nil, dec, err
	}
	return res, dec, nil
}

// Estimate selects a device and charges the batch without running the
// math — the fast path for large simulated workloads.
func (s *Scheduler) Estimate(model string, batch int, pol Policy, now time.Duration) (*opencl.Result, Decision, error) {
	dec, err := s.Select(model, batch, pol, now)
	if err != nil {
		return nil, Decision{}, err
	}
	res, err := s.rt.Estimate(dec.Device, model, batch, now)
	if err != nil {
		return nil, dec, err
	}
	return res, dec, nil
}

// Stats returns a snapshot of scheduler activity.
func (s *Scheduler) Stats() Stats {
	out := Stats{PerDevice: map[string]int{}, PerPolicy: map[Policy]int{}}
	for class := range s.perDevice {
		if n := s.perDevice[class].Load(); n > 0 {
			out.PerDevice[s.devices[class].Name()] = int(n)
		}
	}
	for pol := range s.perPolicy {
		if n := s.perPolicy[pol].Load(); n > 0 {
			out.PerPolicy[Policy(pol)] = int(n)
		}
	}
	out.Spills = int(s.spills.Load())
	out.Decisions = int(s.decisions.Load())
	out.DecisionCacheHits = s.decHits.Load()
	out.DecisionCacheMisses = s.decMisses.Load()
	h := s.health
	out.Quarantines, out.Readmissions = h.counters()
	out.Quarantined = h.quarantinedList()
	sort.Strings(out.Quarantined)
	return out
}
