package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bomw/internal/opencl"
	"bomw/internal/tensor"
)

// Pipeline is the concurrent serving path over a trained scheduler — the
// online form of the Fig. 5 system. Where Scheduler.Classify serves one
// request synchronously, the pipeline stages requests through:
//
//	admission → live batching → per-device worker queues → completion
//
// (1) Admission: a bounded queue with load-shedding backpressure. When
// the queue is full, Submit fails fast with ErrAdmissionFull instead of
// letting latency collapse — the MLPerf "Server scenario" response to
// overload. Every request carries a context for deadlines/cancellation,
// and may carry a latency SLO (PipelineRequest.Deadline, with a default
// in PipelineConfig): admission control rejects SLO-carrying
// requests that are already predicted to miss their deadline given the
// live queue state and the scheduler's latency model
// (ErrDeadlineInfeasible), so overload sheds doomed work first.
//
// (2) Live batching: arriving requests aggregate per (model, policy)
// under the offline Batcher's Window/MaxBatch semantics, but flushed by
// clock timers and size triggers instead of offline trace folding. One
// batching loop owns every aggregate: it drains the admission queue in
// bursts and dispatches each flushed batch to its device's worker, so
// per-key aggregation and dispatch order are those of the paper's single
// request stream. The batcher is work-conserving
// (concurrency-aware): while the system is idle a request dispatches
// immediately; batches only form while earlier work is in flight, so
// batching cost is paid exactly when it buys device efficiency (§IV-C:
// batch size is the decisive variable). Requests whose context ended or
// whose deadline passed while aggregating are culled here, before any
// device time is spent.
//
// (3) Per-device worker queues: one worker goroutine per device executes
// batches in order, culling dead requests again at dequeue — a cancelled
// or deadline-expired request never reaches the execute path. Queue
// occupancy is reported back into the scheduler's spill logic
// (Config.MaxQueueDelay, §V overload adaptation), so spilling reads
// *real* queued work instead of only the device simulator's committed
// busy horizon. Deadline-carrying batches are routed through
// SelectWithDeadline so the device pick honours the tightest SLO in the
// batch.
//
// (4) Completion: results are delivered through per-request futures;
// aggregated batches are split back into per-request class slices with
// proportional energy accounting. Every future resolves exactly once.
//
// The pipeline owns the node lifecycle (NodeState): it is Ready until
// Close — or, under a Node, Drain or Kill — shuts it down. Submit
// refuses once the state has left Ready, and admission itself closes
// when the batching loop begins its last drain, so every request
// admitted before that resolves. A Node is a named Pipeline.
type Pipeline struct {
	sched *Scheduler
	cfg   PipelineConfig

	// admitQ is the admission queue the batching loop drains: Submit
	// appends under admitMu, and the loop swaps the slice out whole for
	// its spare backing. admitShut closes admission for good: the loop
	// sets it as it begins its last drain. queued counts the requests
	// admitted and not yet ingested — the appended ones plus the rest of
	// a burst the loop has swapped out — and is what sheds at QueueDepth
	// and what Load and idle read.
	admitMu   sync.Mutex
	admitQ    []*pipeReq
	admitShut bool
	queued    atomic.Int64

	// kick, wake and nudge are buffered(1) hints to the batching loop.
	kick  chan struct{} // Submit → loop: admission went non-empty
	wake  chan struct{} // window timer → loop: an aggregate's window may have elapsed
	nudge chan struct{} // worker → loop: system went idle

	// spare, aggs, timer and wakeAt are the batching loop's own state:
	// only its goroutine touches them. spare is the second admission
	// backing, traded for admitQ on every drain, so draining allocates
	// nothing. timer is the loop's one window timer, created on first use
	// and Reset from then on; wakeAt is the clock time it is armed for
	// (zero: stopped). A wake is a hint, never a command — the loop
	// flushes what is due on the clock — so a stale one needs no
	// cancelling.
	spare  []*pipeReq
	aggs   map[aggKey]*aggregate
	timer  Timer
	wakeAt time.Duration

	closing chan struct{} // Close() was called: drain and stop
	batched chan struct{} // the batching loop flushed its last aggregate and exited
	drained chan struct{}

	// state is the lifecycle position, a NodeState. Submit, State and
	// Node.Ready load it; shutdown moves it by compare-and-swap, one way
	// down the ladder. A Submit that read Ready may still append until
	// the loop shuts admission, and the loop's last drain takes it.
	state atomic.Int32

	queues   map[string]*deviceQueue
	inflight atomic.Int64   // batches queued or executing
	workers  sync.WaitGroup // device workers + recovery prober still running

	// latEWMA tracks the virtual completion latency (arrival →
	// completion) as an EWMA over delivered batches, in nanoseconds —
	// the per-node latency reading the cluster tier reports. Only
	// successful deliveries fold in; failures and culls are accounted
	// elsewhere.
	latEWMA atomic.Int64

	submitted  atomic.Int64
	shed       atomic.Int64
	infeasible atomic.Int64
	cancelled  atomic.Int64
	expired    atomic.Int64
	failed     atomic.Int64
	completed  atomic.Int64
	batches    atomic.Int64
	sizeFl     atomic.Int64
	windowFl   atomic.Int64
	idleFl     atomic.Int64
	drainFl    atomic.Int64
	retries    atomic.Int64
	failovers  atomic.Int64
	execFails  atomic.Int64

	// testExecHook, when set, runs in each device worker before every
	// attempt of a batch, ahead of the attempt's cull — tests use it to
	// hold workers, fill queues and move the clock deterministically.
	testExecHook func(device string)
}

// maxAttempts bounds how many devices one batch may try: the first
// execution plus failover retries. On an execution error the batch
// re-Selects with every failed device excluded and runs on the
// next-ranked device, so one bad device degrades throughput instead of
// failing requests; the paper's system has three devices.
const maxAttempts = 3

// PipelineConfig parameterises the serving pipeline.
type PipelineConfig struct {
	// Window is the maximum time the oldest request of a live batch may
	// wait before the batch is flushed (the Batcher.Window semantics,
	// measured from its arrival stamp on Clock). Defaults to 2 ms.
	Window time.Duration
	// MaxBatch flushes a batch as soon as it aggregates this many
	// samples (the Batcher.MaxBatch semantics). Defaults to 64.
	MaxBatch int
	// QueueDepth bounds the admission queue; a full queue sheds load
	// (Submit returns ErrAdmissionFull). Defaults to 256. Every model and
	// policy shares the one queue, so a single hot key may fill all of it.
	QueueDepth int
	// DeviceQueueDepth bounds each device's worker queue; full device
	// queues exert backpressure on batch flushing, which in turn fills
	// admission. Defaults to 8.
	DeviceQueueDepth int
	// HoldWindow disables the work-conserving idle fast-path: aggregates
	// always wait for the window timer or the size trigger, mirroring
	// the offline Batcher exactly. Default false: a request arriving
	// into an idle system dispatches immediately.
	HoldWindow bool
	// Clock supplies the virtual time requests are charged at and rings
	// every timer that acts on it (window, prober).
	// Defaults to WallClock() — wall time since the pipeline was created.
	Clock Clock
	// ProbeInterval is how often the recovery prober re-tests
	// quarantined devices with a one-sample probe (re-admitting them on
	// success). Defaults to 50 ms; negative disables the prober —
	// Scheduler.ProbeQuarantined can still be called manually.
	ProbeInterval time.Duration
	// DefaultSLO is the latency budget applied to requests that carry no
	// Deadline of their own (measured from admission on the pipeline
	// clock). Zero disables the default: such requests have no SLO.
	DefaultSLO time.Duration
}

func (c *PipelineConfig) fillDefaults() {
	if c.Window <= 0 {
		c.Window = 2 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.DeviceQueueDepth <= 0 {
		c.DeviceQueueDepth = 8
	}
	if c.Clock == nil {
		c.Clock = WallClock()
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 50 * time.Millisecond
	}
}

// Sentinel errors of the admission layer.
var (
	// ErrAdmissionFull is returned by Submit when the bounded admission
	// queue is at capacity — the load-shedding backpressure signal
	// (HTTP servers translate it to 503).
	ErrAdmissionFull = errors.New("core: pipeline admission queue full")
	// ErrPipelineClosed is returned by Submit after Close.
	ErrPipelineClosed = errors.New("core: pipeline closed")
	// ErrDeadlineInfeasible is returned by Submit when admission control
	// predicts that no device can complete the request within its SLO
	// given current queue state — the request is rejected before it
	// queues (HTTP servers translate it to 504 deadline_infeasible).
	ErrDeadlineInfeasible = errors.New("core: deadline infeasible at admission")
	// ErrDeadlineExceeded resolves the future of an admitted request
	// whose SLO expired before (or while) it could be executed; the
	// request is culled without spending device time.
	ErrDeadlineExceeded = errors.New("core: request deadline exceeded")
	// ErrFutureClaimed is returned by Future.Wait when another Wait
	// already received the future's completion or is receiving it now: a
	// future is waited once.
	ErrFutureClaimed = errors.New("core: future already claimed by another Wait")
)

// PipelineRequest is one classification job entering the pipeline.
type PipelineRequest struct {
	Model  string
	Policy Policy
	// Input carries real samples (batch on dim 0). When nil the request
	// is timing-only and Batch gives the sample count — the Estimate
	// fast path replays and benchmarks use.
	//
	// The pipeline reads Input and never writes it, nor copies it: no
	// path, the cluster router's included, reads anything but the
	// caller's own tensor. It reads it until the request's future
	// resolves, or until Submit returns an error, and never after: a
	// caller may reuse the tensor and its data once its Wait has
	// returned the completion, or once Submit has refused the request.
	// A Wait abandoned by its context returns early, while the batch may
	// still be reading, so the input is not the caller's again then.
	Input *tensor.Tensor
	Batch int
	// Deadline is the request's latency SLO, measured from admission on
	// the pipeline clock. Zero falls back to the pipeline's
	// PipelineConfig.DefaultSLO; negative explicitly opts out of any SLO.
	Deadline time.Duration
}

// Completion is the resolved outcome of one pipelined request.
type Completion struct {
	// Decision is the batch-level scheduling choice that served this
	// request (shared by every request aggregated into the batch).
	Decision Decision
	// Classes holds this request's labels (nil for timing-only
	// requests): its sub-slice of the batch's label vector, with capacity
	// clipped to its own length, so appending copies instead of
	// overwriting another request's labels.
	Classes []int
	// BatchSize is the total sample count of the aggregated batch.
	BatchSize int
	// Wait is the aggregation delay this request paid before dispatch.
	Wait time.Duration
	// Latency is arrival → completion, including aggregation wait,
	// device queueing and execution, in virtual time.
	Latency time.Duration
	// Completed is the virtual completion timestamp.
	Completed time.Duration
	// EnergyJ is this request's proportional share of the batch energy.
	EnergyJ float64
	// Err is non-nil when the request failed (cancelled, expired,
	// execution error); all other fields may be zero then.
	Err error
}

// Future resolves to a Completion exactly once, and is waited once.
//
// A Future is a small caller-owned handle over the request's pooled
// carrier (pipeReq), which also holds the completion: finish writes it
// into the carrier and publishes it with one atomic state word, and only
// a Wait that arrives before finish parks, on the carrier's own wake
// channel. The Wait that reads the completion detaches the carrier from
// the handle and returns it to the pool, so every caller that waits
// recycles, and a request costs one pool round trip. The handle itself
// is not pooled — it is a request's only allocation: a caller may keep
// it after its Wait, and a kept handle over a recycled carrier would
// read the next request's completion. A Wait cut short by its context
// keeps the carrier, and a later Wait still receives the completion.
type Future struct {
	r *pipeReq
	// waiting is one-waiter ownership of r: a Wait holds it while it
	// receives, so a concurrent Wait fails with ErrFutureClaimed instead
	// of racing the first for the carrier.
	waiting atomic.Bool

	// detached marks a future created by NewDetachedFuture: it is
	// resolved through Resolve instead of the pipeline's finish path, and
	// its carrier is not pooled.
	detached bool
	resolved atomic.Bool
}

// NewDetachedFuture returns a future the caller resolves via Resolve,
// and waits on exactly like a pipeline future. No serving path uses it:
// it stays because the cluster and core tests build their fake nodes'
// futures with it.
func NewDetachedFuture() *Future {
	return &Future{r: &pipeReq{wake: make(chan struct{}, 1)}, detached: true}
}

// Resolve delivers c to a detached future exactly once, reporting
// whether this call won the resolution (later completions are
// discarded). Like NewDetachedFuture it is kept for the test fakes.
// Calling Resolve on a pipeline-issued future is a programming error;
// it panics to surface the misuse instead of corrupting delivery.
func (f *Future) Resolve(c Completion) bool {
	if !f.detached {
		panic("core: Resolve on a pipeline-owned future")
	}
	if !f.resolved.CompareAndSwap(false, true) {
		return false
	}
	f.r.resolve(&c)
	return true
}

// Wait blocks until the request completes or ctx is done. A ctx error
// abandons the wait but does not recall work already queued — the
// pipeline culls the request at the next stage boundary and resolves
// the future with the context error; a Wait with a fresh context still
// observes that completion (delivery is never lost to an abandoned
// wait). Once a Wait has received the completion, the future is spent:
// a later Wait — like one racing a Wait in progress — returns
// ErrFutureClaimed at once.
func (f *Future) Wait(ctx context.Context) (Completion, error) {
	if !f.waiting.CompareAndSwap(false, true) {
		return Completion{}, ErrFutureClaimed
	}
	r := f.r
	if r == nil {
		f.waiting.Store(false)
		return Completion{}, ErrFutureClaimed
	}
	// Park unless finish has already published. A carrier an abandoned
	// Wait parked stays parked, or woken once finish has sent the token:
	// either way this Wait is owed the token on wake. Only Waits park,
	// and they hold waiting, so a failed CAS from empty means finish
	// resolved in between.
	switch st := r.state.Load(); {
	case st == carrierResolved:
	case st == carrierParked, st == carrierWoken, r.state.CompareAndSwap(carrierEmpty, carrierParked):
		if done := ctx.Done(); done == nil {
			// Nothing to race the completion against: a plain receive, not
			// a select.
			<-r.wake
		} else {
			select {
			case <-r.wake:
			case <-done:
				f.waiting.Store(false)
				return Completion{}, ctx.Err()
			}
		}
	}
	// finish has made its last touch of the carrier: detach it so this
	// handle can never see the carrier's next request, then recycle it.
	c := r.c
	f.r = nil
	if !f.detached {
		reqPool.put(r)
	}
	f.waiting.Store(false)
	return c, nil
}

// PipelineStats snapshots pipeline activity.
//
// Accounting identities (after Close has drained the pipeline):
//
//	submit attempts = Submitted + Shed + Infeasible (+ validation errors)
//	Submitted = Completed = ok + Failed + Cancelled + Expired
//
// where ok is Completed minus the three error buckets — every admitted
// request resolves into exactly one of the four outcomes.
type PipelineStats struct {
	Ledger

	SizeFlushes   int64 `json:"size_flushes"`   // flushed by the MaxBatch trigger
	WindowFlushes int64 `json:"window_flushes"` // flushed by the Window timer
	IdleFlushes   int64 `json:"idle_flushes"`   // flushed by the work-conserving idle fast-path
	DrainFlushes  int64 `json:"drain_flushes"`  // flushed during Close

	Retries      int64 `json:"retries"`       // failover re-executions after a device error
	Failovers    int64 `json:"failovers"`     // batches completed on a device other than the one that failed them
	ExecFailures int64 `json:"exec_failures"` // batches that exhausted every attempt and failed their requests

	Depth map[string]int `json:"device_depth"` // per-device batches queued or executing
}

// pipeReq is one admitted request moving through the stages, and the
// carrier of its completion.
//
// pipeReqs are pooled. A request has one owner from Submit on, the flow
// path (aggregate → batch → worker), up to finish — the flow's last
// touch of it — and from then on the Wait that reads the completion,
// which recycles it. A carrier whose future nobody waits for is left to
// the collector.
type pipeReq struct {
	//bomw:ctxparam pipeReq is the per-request carrier: stages observe this request's cancellation at every queue boundary, so the ctx travels with it
	ctx      context.Context
	req      PipelineRequest
	key      aggKey        // aggregation key, computed once at Submit
	at       time.Duration // virtual arrival
	deadline time.Duration // absolute SLO expiry on the pipeline clock; 0 = none
	size     int

	// c is the completion, written by resolve before it publishes state;
	// wake carries the one token resolve owes a parked Wait. It is made
	// with the carrier and survives pooling, empty.
	c     Completion
	state atomic.Uint32
	wake  chan struct{}
}

// The carrier's state word: empty → resolved when finish comes first,
// empty → parked → woken when a Wait does, and a woken carrier's
// resolution is the token on wake. Resolved and woken are final until
// the carrier is recycled, so a second resolution finds one of them.
const (
	carrierEmpty uint32 = iota
	carrierParked
	carrierResolved
	carrierWoken
)

// reqPool holds request carriers: the Wait that read a completion
// recycles its carrier, and so does a Submit that never issued one.
var reqPool = newPool(func() *pipeReq { return &pipeReq{wake: make(chan struct{}, 1)} })

// reset clears the carrier for reqPool. Its wake channel is empty then —
// a parked carrier's Wait received the token first.
func (r *pipeReq) reset() {
	r.ctx = nil
	r.req = PipelineRequest{}
	r.key = aggKey{}
	r.at, r.deadline, r.size = 0, 0, 0
	r.c = Completion{}
	r.state.Store(carrierEmpty)
}

// resolve publishes c on the carrier. It is the resolver's last touch:
// once state reads resolved, or the token is on wake, the Wait may
// recycle the carrier. A request is resolved once; a second resolve
// panics rather than send a token nobody is owed, which would block the
// resolver or wake the carrier's next request with no completion.
func (r *pipeReq) resolve(c *Completion) {
	r.c = *c
	if r.state.CompareAndSwap(carrierEmpty, carrierResolved) {
		return
	}
	if !r.state.CompareAndSwap(carrierParked, carrierWoken) {
		panic("core: request resolved twice")
	}
	r.wake <- struct{}{} // a Wait parked first; buffered(1), so this never blocks
}

// dead reports whether the request must be culled at virtual time now
// and with which error: context cancellation wins over SLO expiry.
func (r *pipeReq) dead(now time.Duration) error {
	if err := r.ctx.Err(); err != nil {
		return err
	}
	if r.deadline > 0 && now > r.deadline {
		return ErrDeadlineExceeded
	}
	return nil
}

// aggKey identifies one live aggregate. Timing-only and real requests
// never mix: their execution paths differ.
type aggKey struct {
	model    string
	pol      Policy
	estimate bool
}

type aggregate struct {
	reqs    []*pipeReq
	size    int
	firstAt time.Duration
}

// batchWork is one flushed batch travelling to a device worker.
type batchWork struct {
	key       aggKey
	reqs      []*pipeReq
	size      int
	flushAt   time.Duration
	deadline  time.Duration // tightest absolute deadline in the batch; 0 = none
	dec       Decision
	charge    time.Duration // virtual occupancy charged to the device queue
	clkCharge time.Duration // clock occupancy charged to the device queue

	// stacked backs the input tensor of a batch of several requests
	// (stackInputs), and stackedT is the header over it; like reqs both
	// are kept across reuse, so merging two clients' requests allocates
	// neither a copy of both nor a tensor.
	stacked  []float32
	stackedT *tensor.Tensor
}

// Pools for the per-batch carriers. Both keep their []*pipeReq backing
// (and the batch its stacked-input backing) across reuse — the flush
// path copy-culls the aggregate's requests into the batchWork's own
// backing, so steady-state batching allocates neither carriers nor
// slices. Their resets drop the pipeReq aliases so a pooled backing
// array never pins (or worse, resurrects) requests from a previous
// cycle.
var (
	aggPool = newPool(func() *aggregate { return &aggregate{} })
	bwPool  = newPool(func() *batchWork { return &batchWork{} })
)

func (a *aggregate) reset() {
	clear(a.reqs)
	*a = aggregate{reqs: a.reqs[:0]}
}

func (w *batchWork) reset() {
	clear(w.reqs)
	*w = batchWork{reqs: w.reqs[:0], stacked: w.stacked[:0], stackedT: w.stackedT}
}

// deviceQueue tracks one device worker's occupancy in two currencies:
// queued *virtual* work (EWMA of the simulator's per-sample latency —
// what the scheduler's spill logic understands) and queued *clock* work
// (EWMA of elapsed pipeline-clock time per sample, which also sees wall
// stalls the simulator cannot: a wedged worker, host contention). The
// probe reports the larger of the two, so both spilling and deadline
// admission read the worst honest estimate.
type deviceQueue struct {
	name string
	ch   chan *batchWork

	mu           sync.Mutex
	pending      time.Duration // estimated queued virtual work
	perSample    time.Duration // EWMA virtual latency per sample
	clkPending   time.Duration // estimated queued clock work
	clkPerSample time.Duration // EWMA clock latency per sample
	depth        int           // batches queued or executing
}

// chargeBatch books the estimated virtual and clock work of a batch of
// n samples.
func (dq *deviceQueue) chargeBatch(n int) (virt, clk time.Duration) {
	dq.mu.Lock()
	defer dq.mu.Unlock()
	virt = dq.perSample * time.Duration(n)
	clk = dq.clkPerSample * time.Duration(n)
	dq.pending += virt
	dq.clkPending += clk
	dq.depth++
	return virt, clk
}

// completeBatch releases the charges and folds the observed latencies
// into the per-sample estimates.
func (dq *deviceQueue) completeBatch(virtCharge, clkCharge, obsVirt, obsClk time.Duration, n int) {
	dq.mu.Lock()
	defer dq.mu.Unlock()
	dq.pending -= virtCharge
	if dq.pending < 0 {
		dq.pending = 0
	}
	dq.clkPending -= clkCharge
	if dq.clkPending < 0 {
		dq.clkPending = 0
	}
	dq.depth--
	if n > 0 {
		if obsVirt > 0 {
			dq.perSample = ewma8(dq.perSample, obsVirt/time.Duration(n))
		}
		if obsClk > 0 {
			dq.clkPerSample = ewma8(dq.clkPerSample, obsClk/time.Duration(n))
		}
	}
}

// ewma8 folds sample x into the α = 1/8 estimate old. An estimate of
// zero has seen no sample yet, so the first one seeds it.
func ewma8(old, x time.Duration) time.Duration {
	if old == 0 {
		return x
	}
	return (7*old + x) / 8
}

func (dq *deviceQueue) occupancy() time.Duration {
	dq.mu.Lock()
	defer dq.mu.Unlock()
	if dq.clkPending > dq.pending {
		return dq.clkPending
	}
	return dq.pending
}

func (dq *deviceQueue) queued() int {
	dq.mu.Lock()
	defer dq.mu.Unlock()
	return dq.depth
}

// NewPipeline builds and starts the serving pipeline over a scheduler:
// one admission/batching goroutine plus one worker per device. The
// pipeline registers its queue occupancy with the scheduler so spill
// decisions (Config.MaxQueueDelay) observe real queued work; only one
// pipeline should serve a scheduler at a time. Call Close to drain and
// stop.
func NewPipeline(sched *Scheduler, cfg PipelineConfig) *Pipeline {
	cfg.fillDefaults()
	p := &Pipeline{
		sched:   sched,
		cfg:     cfg,
		admitQ:  make([]*pipeReq, 0, cfg.QueueDepth),
		spare:   make([]*pipeReq, 0, cfg.QueueDepth),
		kick:    make(chan struct{}, 1),
		wake:    make(chan struct{}, 1),
		nudge:   make(chan struct{}, 1),
		aggs:    map[aggKey]*aggregate{},
		closing: make(chan struct{}),
		batched: make(chan struct{}),
		drained: make(chan struct{}),
		queues:  map[string]*deviceQueue{},
	}
	for _, name := range sched.Devices() {
		dq := &deviceQueue{name: name, ch: make(chan *batchWork, cfg.DeviceQueueDepth)}
		p.queues[name] = dq
	}
	sched.SetQueueProbe(p.probeQueue)
	for _, dq := range p.queues {
		p.workers.Add(1)
		go p.worker(dq)
	}
	if cfg.ProbeInterval > 0 {
		p.workers.Add(1)
		go p.prober()
	}
	go p.batchLoop()
	return p
}

// prober re-tests quarantined devices every ProbeInterval on the clock so
// recovered hardware rejoins the schedulable set without operator action.
func (p *Pipeline) prober() {
	defer p.workers.Done()
	tick := make(chan struct{}, 1)
	t := p.cfg.Clock.AfterFunc(p.cfg.ProbeInterval, func() { tick <- struct{}{} })
	defer t.Stop()
	for {
		select {
		case <-tick:
			p.sched.ProbeQuarantined(p.cfg.Clock.Now())
			t.Reset(p.cfg.ProbeInterval)
		case <-p.closing:
			return
		}
	}
}

// probeQueue reports the estimated delay queued ahead of new work on a
// device — the scheduler adds it to the device's committed busy horizon
// when deciding whether to spill, and the deadline predictor
// (FeasibleWithin / SelectWithDeadline) folds it into completion
// estimates.
func (p *Pipeline) probeQueue(device string) time.Duration {
	if dq := p.queues[device]; dq != nil {
		return dq.occupancy()
	}
	return 0
}

// slo resolves the effective SLO of a request: its own Deadline, else
// the pipeline default; negative opts out.
func (p *Pipeline) slo(req PipelineRequest) time.Duration {
	d := req.Deadline
	if d == 0 {
		d = p.cfg.DefaultSLO
	}
	if d < 0 {
		return 0
	}
	return d
}

// Submit admits one request. It never blocks: a pipeline that is not
// Ready refuses first, with ErrNodeDraining while it drains and
// ErrNodeDown once it has stopped (both are ErrPipelineClosed); then
// validation failures (including an already-cancelled context) surface,
// a request predicted to miss its SLO is rejected with
// ErrDeadlineInfeasible, and a full admission queue sheds the request
// with ErrAdmissionFull. On success the returned future resolves exactly
// once. Either way the caller gets req.Input back: the pipeline reads it
// until the future resolves, or not at all once Submit has refused it
// (PipelineRequest.Input).
func (p *Pipeline) Submit(ctx context.Context, req PipelineRequest) (*Future, error) {
	if err := p.refusal(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		// Admitting already-dead work would spend queue slots and
		// potentially device time on a request nobody is waiting for.
		return nil, err
	}
	size := req.Batch
	if req.Input != nil {
		if req.Input.Rank() < 1 || req.Input.Dim(0) <= 0 {
			return nil, fmt.Errorf("core: pipeline input needs a positive batch dimension")
		}
		size = req.Input.Dim(0)
	}
	if size <= 0 {
		return nil, fmt.Errorf("core: batch size must be positive, got %d", size)
	}
	spec, err := p.sched.disp.Spec(req.Model)
	if err != nil {
		return nil, err
	}
	if !p.sched.hasPolicy(req.Policy) {
		return nil, fmt.Errorf("core: unknown policy %v", req.Policy)
	}
	if req.Input != nil {
		per := 1
		for _, d := range spec.InputShape {
			per *= d
		}
		if req.Input.Len() != size*per {
			return nil, fmt.Errorf("core: %s expects %d values per sample, input carries %d for batch %d",
				req.Model, per, req.Input.Len(), size)
		}
	}
	slo := p.slo(req)
	if slo > 0 {
		feasible, predicted, ferr := p.sched.FeasibleWithin(req.Model, size, slo, p.cfg.Clock.Now())
		if ferr != nil {
			return nil, ferr
		}
		if !feasible {
			p.infeasible.Add(1)
			return nil, fmt.Errorf("%w: %s batch %d predicted %v against SLO %v",
				ErrDeadlineInfeasible, req.Model, size, predicted, slo)
		}
	}

	r := reqPool.get()
	r.ctx, r.req, r.size = ctx, req, size
	r.key = aggKey{model: req.Model, pol: req.Policy, estimate: req.Input == nil}
	if slo > 0 {
		r.at = p.cfg.Clock.Now()
		r.deadline = r.at + slo
	} else {
		// No deadline math needs the arrival time here: defer the stamp
		// to the batching loop's burst drain, where one clock read covers
		// every request in the burst instead of one read per Submit.
		r.at = -1
	}
	p.admitMu.Lock()
	if p.admitShut || p.queued.Load() >= int64(p.cfg.QueueDepth) {
		shut := p.admitShut
		p.admitMu.Unlock()
		reqPool.put(r) // never issued: nobody can be waiting on it
		if shut {
			// The state left Ready after the check above, and the loop
			// has begun its last drain.
			return nil, p.refusal()
		}
		p.shed.Add(1)
		return nil, ErrAdmissionFull
	}
	p.admitQ = append(p.admitQ, r)
	first := len(p.admitQ) == 1
	p.queued.Add(1)
	p.admitMu.Unlock()
	p.submitted.Add(1)
	if first {
		// This append made admission non-empty: the loop may be parked
		// on its select. A later append finds this kick still pending, or
		// the loop's swap yet to come.
		select {
		case p.kick <- struct{}{}:
		default:
		}
	}
	// r stays this request's until its Wait recycles it, and only the
	// Future returned here can Wait.
	return &Future{r: r}, nil
}

// Do submits a request and waits for its completion — the synchronous
// convenience for callers that hold one pipeline (node tests, the
// pipeline benchmarks). HTTP serves through Cluster.Submit + Wait.
func (p *Pipeline) Do(ctx context.Context, req PipelineRequest) (Completion, error) {
	fut, err := p.Submit(ctx, req)
	if err != nil {
		return Completion{}, err
	}
	return fut.Wait(ctx)
}

// Close stops admission, flushes every open aggregate, drains the
// device queues and waits for all in-flight work to complete: the
// pipeline ends Drained. Every accepted request's future resolves before
// Close returns. Close is idempotent.
func (p *Pipeline) Close() { p.shutdown(NodeDrained) }

// refusal is the error Submit refuses with in the pipeline's lifecycle
// state: nil while it is Ready, ErrNodeDraining while it drains and
// ErrNodeDown once it has stopped.
func (p *Pipeline) refusal() error {
	switch p.State() {
	case NodeReady:
		return nil
	case NodeDraining:
		return ErrNodeDraining
	default:
		return ErrNodeDown
	}
}

// State reports the pipeline's lifecycle position.
func (p *Pipeline) State() NodeState { return NodeState(p.state.Load()) }

// shutdown is the one way out of Ready, ending in final (NodeDrained or
// NodeKilled). A drain refuses new work with ErrNodeDraining until the
// accepted tail has resolved; a kill refuses with ErrNodeDown at once,
// and overtakes a drain in progress. The first caller runs the close;
// every other waits for it, so each returns only once every accepted
// future has resolved. A stopped pipeline keeps its resting state.
func (p *Pipeline) shutdown(final NodeState) {
	next := NodeKilled
	if final == NodeDrained {
		next = NodeDraining
	}
	if !p.state.CompareAndSwap(int32(NodeReady), int32(next)) {
		if final == NodeKilled {
			p.state.CompareAndSwap(int32(NodeDraining), int32(NodeKilled))
		}
		<-p.drained
		return
	}
	// Submits that read Ready before the state moved may still append;
	// the batching loop shuts admission as it observes closing, and its
	// last drain takes them.
	close(p.closing)
	<-p.batched
	for _, dq := range p.queues {
		close(dq.ch)
	}
	// Wait for the workers to finish every queued batch (and the prober
	// to exit) before reporting the pipeline drained: the Close contract
	// is that every accepted request's future has resolved. Workers still
	// signal idleness on the buffered nudge channel; nothing reads it
	// anymore, which is fine — sends are non-blocking.
	p.workers.Wait()
	p.sched.SetQueueProbe(nil)
	p.state.CompareAndSwap(int32(NodeDraining), int32(NodeDrained))
	close(p.drained)
}

// Load is the pipeline's instantaneous occupancy — requests waiting in
// admission plus batches queued or executing — as a single cheap signal.
// The cluster tier's least-loaded router reads it on every routing
// decision, so it deliberately avoids the locks and map allocation of
// Stats.
func (p *Pipeline) Load() int64 {
	return p.inflight.Load() + p.queued.Load()
}

// AvgLatency is the EWMA of delivered-batch completion latency (oldest
// arrival → completion, virtual time): the per-node latency reading the
// cluster tier reports as avg_latency_us. Zero until the first batch
// delivers.
func (p *Pipeline) AvgLatency() time.Duration {
	return time.Duration(p.latEWMA.Load())
}

// QueueDelay estimates the delay new work would observe behind already
// queued batches — the worst per-device occupancy estimate (virtual or
// clock EWMA, whichever is larger). Servers derive the Retry-After hint
// of admission-shed responses from it, so clients back off proportional
// to the actual backlog instead of a fixed guess.
func (p *Pipeline) QueueDelay() time.Duration {
	var worst time.Duration
	for _, dq := range p.queues {
		if o := dq.occupancy(); o > worst {
			worst = o
		}
	}
	return worst
}

// Stats snapshots pipeline activity.
func (p *Pipeline) Stats() PipelineStats {
	st := PipelineStats{
		Ledger: Ledger{
			Submitted:  p.submitted.Load(),
			Shed:       p.shed.Load(),
			Infeasible: p.infeasible.Load(),
			Cancelled:  p.cancelled.Load(),
			Expired:    p.expired.Load(),
			Failed:     p.failed.Load(),
			Completed:  p.completed.Load(),
			Batches:    p.batches.Load(),
			InFlight:   p.inflight.Load(),
		},
		SizeFlushes:   p.sizeFl.Load(),
		WindowFlushes: p.windowFl.Load(),
		IdleFlushes:   p.idleFl.Load(),
		DrainFlushes:  p.drainFl.Load(),
		Retries:       p.retries.Load(),
		Failovers:     p.failovers.Load(),
		ExecFailures:  p.execFails.Load(),
		Depth:         map[string]int{},
	}
	for name, dq := range p.queues {
		st.Depth[name] = dq.queued()
	}
	return st
}

// ---- stage 2: the admit/batching loop ----------------------------------

func (p *Pipeline) batchLoop() {
	defer close(p.batched)
	for {
		select {
		case <-p.kick:
			// Greedy burst drain: one clock read covers every request
			// queued for admission — under load the loop pays one Clock()
			// per wake-up instead of one per request.
			now := p.cfg.Clock.Now()
			p.drainAdmit(now)
			if len(p.aggs) != 0 && !p.cfg.HoldWindow && p.idle() {
				// The system looks drained, but "idle" here often means
				// the loop outran a wave of clients that are runnable
				// and about to submit (on few cores, the admission kick
				// readies this loop ahead of them). Yield once so their
				// requests land, then re-drain — the difference between
				// dispatching a splintered batch and a full one.
				runtime.Gosched()
				p.drainAdmit(now)
			}
			p.idleSweep(now)
			p.windowSweep(now)
		case <-p.wake:
			p.windowSweep(p.cfg.Clock.Now())
		case <-p.nudge:
			// A worker drained the system: dispatch whatever aggregated
			// while it was busy instead of waiting out the window.
			p.idleSweep(p.cfg.Clock.Now())
		case <-p.closing:
			p.drainOnClose()
			return
		}
	}
}

// drainAdmit greedily ingests everything queued for admission. It swaps
// the queue for the loop's spare backing and ingests the burst, until a
// swap comes back empty: requests that arrive while a burst ingests join
// the drain. A request leaves queued as it is ingested, so a burst whose
// ingest blocks on a full device queue still counts against QueueDepth.
func (p *Pipeline) drainAdmit(now time.Duration) {
	for {
		p.admitMu.Lock()
		burst := p.admitQ
		p.admitQ = p.spare
		p.admitMu.Unlock()
		if len(burst) == 0 {
			p.spare = burst
			return
		}
		for i, r := range burst {
			burst[i] = nil
			p.queued.Add(-1)
			p.ingest(r, now)
		}
		p.spare = burst[:0]
	}
}

// idleSweep is the work-conserving flush: once nothing is in flight and
// nothing is queued, every open aggregate dispatches immediately instead
// of waiting out its window.
func (p *Pipeline) idleSweep(now time.Duration) {
	if len(p.aggs) == 0 || p.cfg.HoldWindow || !p.idle() {
		return
	}
	for key := range p.aggs {
		p.flushKey(key, now, &p.idleFl)
	}
}

// drainOnClose shuts admission, empties it and flushes every open
// aggregate. Once admitShut is set no Submit appends, so one drain
// empties admission for good.
func (p *Pipeline) drainOnClose() {
	p.admitMu.Lock()
	p.admitShut = true
	p.admitMu.Unlock()
	now := p.cfg.Clock.Now()
	p.drainAdmit(now)
	for key := range p.aggs {
		p.flushKey(key, now, &p.drainFl)
	}
}

func (p *Pipeline) idle() bool {
	return p.inflight.Load() == 0 && p.queued.Load() == 0
}

func (p *Pipeline) ingest(r *pipeReq, now time.Duration) {
	if r.at < 0 {
		r.at = now // deferred arrival stamp (no-SLO fast path in Submit)
	}
	if err := r.dead(now); err != nil {
		p.finish(r, &Completion{Err: err})
		return
	}
	key := r.key
	agg := p.aggs[key]
	if agg == nil {
		agg = aggPool.get()
		agg.firstAt = r.at
		p.aggs[key] = agg
	}
	agg.reqs = append(agg.reqs, r)
	agg.size += r.size
	if agg.size >= p.cfg.MaxBatch {
		// The size trigger fires inline; the work-conserving idle flush
		// runs as a post-drain sweep (idleSweep) so a burst is judged
		// whole, not per request.
		p.flushKey(key, now, &p.sizeFl)
	}
}

// windowSweep flushes every open aggregate whose oldest request has
// waited out the window on the clock, and leaves the loop's timer armed
// for the earliest of the rest. It runs after a burst drain, not per
// ingest — an aggregate that forms and flushes within one burst (the
// common closed-loop rhythm) never touches the timer — and on every wake.
func (p *Pipeline) windowSweep(now time.Duration) {
	if len(p.aggs) == 0 {
		return
	}
	var next time.Duration
	for key, agg := range p.aggs {
		due := agg.firstAt + p.cfg.Window
		if due <= now {
			p.flushKey(key, now, &p.windowFl)
		} else if next == 0 || due < next {
			next = due
		}
	}
	if next == 0 || (p.wakeAt > now && p.wakeAt <= next) {
		return // nothing left open, or a wake is already due by then
	}
	p.wakeAt = next
	d := next - p.cfg.Clock.Now() // now may be a burst old: arming is rare, so it reads the clock afresh
	if p.timer == nil {
		p.timer = p.cfg.Clock.AfterFunc(d, func() {
			select {
			case p.wake <- struct{}{}:
			default:
			}
		})
	} else {
		p.timer.Reset(d)
	}
}

// cullLive appends to dst the requests of reqs still worth executing at
// virtual time now, and their total size; dead ones (context ended,
// deadline passed) resolve with their error here, and leave the flow.
// dst may be reqs[:0], filtering in place.
func (p *Pipeline) cullLive(dst, reqs []*pipeReq, now time.Duration) ([]*pipeReq, int) {
	size := 0
	for _, r := range reqs {
		if err := r.dead(now); err != nil {
			p.finish(r, &Completion{Err: err})
			continue
		}
		dst = append(dst, r)
		size += r.size
	}
	return dst, size
}

// flushKey dispatches the open aggregate for key. trigger is the flush
// counter of whatever called for the flush; it is counted with the
// batch, before a worker can see it — a batch that resolves at once must
// not leave Stats a moment in which every future is done and no flush is
// on record.
func (p *Pipeline) flushKey(key aggKey, now time.Duration, trigger *atomic.Int64) {
	agg := p.aggs[key]
	delete(p.aggs, key)
	if len(p.aggs) == 0 && p.wakeAt != 0 {
		// Nothing left to wake for: take the timer off the runtime's
		// wheel rather than let it ring into an empty loop.
		p.timer.Stop()
		p.wakeAt = 0
	}

	// Copy-cull the aggregate's requests into the batch carrier's own
	// backing — requests that died while aggregating resolve here,
	// before any device time — then recycle the aggregate immediately.
	w := bwPool.get()
	var size int
	w.reqs, size = p.cullLive(w.reqs, agg.reqs, now)
	aggPool.put(agg)
	live := w.reqs
	if len(live) == 0 {
		bwPool.put(w)
		return
	}

	// The tightest SLO in the batch drives the device pick: a
	// deadline-carrying batch routes through SelectWithDeadline so the
	// choice honours the SLO; unconstrained batches take the memoised
	// classifier fast path (same decision as Select, minus the feature
	// extraction and forest walk on repeat (model, bucket) keys).
	var minDL time.Duration
	for _, r := range live {
		if r.deadline > 0 && (minDL == 0 || r.deadline < minDL) {
			minDL = r.deadline
		}
	}
	var dec Decision
	var err error
	if minDL > 0 {
		slack := minDL - now
		if slack <= 0 {
			slack = time.Nanosecond // culled above, so only a clock-edge race lands here
		}
		var dd DeadlineDecision
		dd, err = p.sched.SelectWithDeadline(key.model, size, slack, now)
		dec = dd.Decision
		dec.Policy = key.pol
	} else {
		dec, err = p.sched.SelectCached(key.model, size, key.pol, now)
	}
	if err != nil {
		for _, r := range live {
			p.finish(r, &Completion{Err: err})
		}
		bwPool.put(w)
		return
	}
	dq := p.queues[dec.Device]
	if dq == nil { // defensive: scheduler named an unknown device
		err := fmt.Errorf("core: pipeline has no queue for device %q", dec.Device)
		for _, r := range live {
			p.finish(r, &Completion{Decision: dec, Err: err})
		}
		bwPool.put(w)
		return
	}
	w.key, w.size, w.flushAt, w.deadline, w.dec = key, size, now, minDL, dec
	w.charge, w.clkCharge = dq.chargeBatch(size)
	p.inflight.Add(1)
	p.batches.Add(1)
	trigger.Add(1)
	// A full device queue blocks here: backpressure propagates through
	// the batching loop into the bounded admission queue, which sheds.
	dq.ch <- w
}

// ---- stage 3: per-device workers ---------------------------------------

func (p *Pipeline) worker(dq *deviceQueue) {
	defer p.workers.Done()
	for work := range dq.ch {
		p.runBatch(dq, work)
	}
}

// batchDone retires one in-flight batch, waking the batching loop when
// the system went idle.
func (p *Pipeline) batchDone() {
	if p.inflight.Add(-1) == 0 {
		// Wake the loop: nothing left to amortise against, and it may be
		// sitting on an open aggregate. The nudge is sent even when
		// nothing is open — pre-readying the loop here keeps the next
		// admission kick from goready-ing it into the scheduler's
		// run-next slot ahead of the other just-completed clients, which
		// would drain a one-request burst and collapse batching into a
		// serialized request-per-batch regime.
		select {
		case p.nudge <- struct{}{}:
		default:
		}
	}
}

// executeAttempt runs one attempt of batch w — its live requests reqs,
// size samples — on the device dec names, releasing the attempt's queue
// charges (dq may be nil when the failover device has no queue) and
// folding the observed virtual and clock latencies into the queue's
// per-sample estimates. A batch of several requests stacks its inputs
// into w's own backing: the worker runs its attempts one after the other.
func (p *Pipeline) executeAttempt(dq *deviceQueue, w *batchWork, reqs []*pipeReq, size int, dec Decision, virtCharge, clkCharge, clkStart time.Duration) (*opencl.Result, error) {
	now := p.cfg.Clock.Now()
	var res *opencl.Result
	var err error
	if w.key.estimate {
		res, err = p.sched.rt.Estimate(dec.Device, w.key.model, size, now)
	} else {
		res, err = p.sched.rt.Classify(dec.Device, w.key.model, w.stackInputs(reqs, size), now)
	}
	var observed time.Duration
	if err == nil {
		observed = res.Latency()
	}
	if dq != nil {
		dq.completeBatch(virtCharge, clkCharge, observed, p.cfg.Clock.Now()-clkStart, size)
	}
	return res, err
}

// runBatch executes one flushed batch with bounded retry/failover: on an
// execution error the batch re-Selects with every failed device excluded
// and runs on the next-ranked device at once, so a failing device
// degrades throughput instead of failing every request aggregated into
// the batch. No retry waits: the device it goes to has not failed this
// batch, and the batch's deadlines keep running. Retries run inline on
// this worker — they never re-enqueue onto another worker's channel,
// which keeps the drain path deadlock-free; the runtime's per-device
// submit lock serialises the cross-device execution with that device's
// own worker.
//
// Before every attempt — the first and each retry — dead requests are
// culled: a cancelled or deadline-expired request never reaches the
// execute path, and in particular is never retried on a second device
// after its SLO has passed.
func (p *Pipeline) runBatch(dq *deviceQueue, w *batchWork) {
	clkStart := p.cfg.Clock.Now()
	if p.testExecHook != nil {
		p.testExecHook(dq.name)
	}
	live, size := p.cullLive(w.reqs[:0], w.reqs, p.cfg.Clock.Now())
	if size == 0 {
		// Everything died while queued: release the charge without
		// spending device time.
		dq.completeBatch(w.charge, w.clkCharge, 0, 0, 0)
		p.batchDone()
		bwPool.put(w)
		return
	}
	dec := w.dec
	res, err := p.executeAttempt(dq, w, live, size, dec, w.charge, w.clkCharge, clkStart)
	if err != nil {
		excluded := map[string]bool{dec.Device: true}
		p.sched.ReportExecution(dec.Device, err)
		for attempt := 1; err != nil && attempt < maxAttempts; attempt++ {
			if p.testExecHook != nil {
				p.testExecHook(dq.name)
			}
			// Deadlines keep ticking through failures; an expired
			// request must not fail over to another device.
			live, size = p.cullLive(live[:0], live, p.cfg.Clock.Now())
			if size == 0 {
				break
			}
			next, serr := p.sched.SelectExcluding(w.key.model, size, w.key.pol, p.cfg.Clock.Now(), excluded)
			if serr != nil {
				break // nowhere left to fail over to
			}
			p.retries.Add(1)
			rq := p.queues[next.Device]
			var charge, clkCharge time.Duration
			if rq != nil {
				charge, clkCharge = rq.chargeBatch(size)
			}
			res, err = p.executeAttempt(rq, w, live, size, next, charge, clkCharge, p.cfg.Clock.Now())
			p.sched.ReportExecution(next.Device, err)
			if err != nil {
				excluded[next.Device] = true
				continue
			}
			dec = next
			p.failovers.Add(1)
		}
	} else {
		p.sched.ReportExecution(dec.Device, nil)
	}
	if size == 0 {
		// Every surviving request expired or was cancelled during the
		// retry loop; their futures are resolved and they have left
		// the flow (cullLive).
		p.batchDone()
		bwPool.put(w)
		return
	}
	if err == nil {
		_ = p.sched.Observe(dec, res)
	}
	p.batchDone()
	if err != nil {
		p.execFails.Add(1)
		for _, r := range live {
			p.finish(r, &Completion{Decision: dec, Err: err})
		}
		bwPool.put(w)
		return
	}
	p.deliver(live, size, w.flushAt, dec, res)
	bwPool.put(w)
}

// deliver splits a batch result back into per-request completions
// (stage 4). Every read of a request precedes its finish: the Wait that
// reads a completion recycles the carrier at once.
func (p *Pipeline) deliver(reqs []*pipeReq, size int, flushAt time.Duration, dec Decision, res *opencl.Result) {
	// Fold the batch's worst request latency (oldest arrival →
	// completion) into the latency EWMA, α = 1/8. A plain load/store
	// race between two workers loses at most one sample — fine for a
	// smoothed signal — and keeps this off the hot path's lock budget.
	worst := res.Completed - reqs[0].at
	for _, r := range reqs {
		worst = max(worst, res.Completed-r.at)
	}
	if worst > 0 {
		p.latEWMA.Store(int64(ewma8(time.Duration(p.latEWMA.Load()), worst)))
	}

	off := 0
	// One completion template per batch, patched per request — the
	// Decision payload (strings, feature slice header) copies once here
	// instead of once per request.
	c := Completion{
		Decision:  dec,
		BatchSize: size,
		Completed: res.Completed,
	}
	energyPer := res.EnergyJ / float64(size)
	for _, r := range reqs {
		c.Wait = flushAt - r.at
		c.Latency = res.Completed - r.at
		c.EnergyJ = energyPer * float64(r.size)
		c.Classes = nil
		if res.Classes != nil {
			// Argmax is fresh per batch, so each request is handed its
			// own sub-slice; the clipped capacity keeps an append from
			// reaching into the next request's labels.
			c.Classes = res.Classes[off : off+r.size : off+r.size]
		}
		off += r.size
		p.finish(r, &c)
	}
}

// stackInputs stacks the requests' input tensors along dim 0. Shapes
// were validated against the model spec at Submit, so per-sample layouts
// agree. A batch of one request is that request's tensor itself: inputs
// are only read from here on. A larger batch is stacked into w.stacked,
// whose backing it reuses and grows, under w.stackedT rebound to the
// batch: a header is made only when the per-sample shape changed.
func (w *batchWork) stackInputs(reqs []*pipeReq, size int) *tensor.Tensor {
	first := reqs[0].req.Input
	if len(reqs) == 1 {
		return first
	}
	flat := slices.Grow(w.stacked[:0], size*(first.Len()/first.Dim(0)))
	for _, r := range reqs {
		flat = append(flat, r.req.Input.Data()...)
	}
	w.stacked = flat
	if w.stackedT == nil || !slices.Equal(w.stackedT.Shape()[1:], first.Shape()[1:]) {
		w.stackedT = tensor.FromSlice(flat, append([]int{size}, first.Shape()[1:]...)...)
	} else {
		w.stackedT.Rebind(flat, size)
	}
	return w.stackedT
}

// finish resolves one request's future, classifying the outcome into
// the stats buckets (ok / Failed / Cancelled / Expired). The flow
// finishes each request exactly once, and finish is its last touch of
// the request: the Wait that reads the completion recycles the carrier.
func (p *Pipeline) finish(r *pipeReq, c *Completion) {
	switch {
	case c.Err == nil:
	case errors.Is(c.Err, ErrDeadlineExceeded):
		p.expired.Add(1)
	case errors.Is(c.Err, context.Canceled), errors.Is(c.Err, context.DeadlineExceeded):
		p.cancelled.Add(1)
	default:
		p.failed.Add(1)
	}
	// Count before delivering: a client whose Wait has returned must
	// read a ledger that already holds its request.
	p.completed.Add(1)
	r.resolve(c)
}
