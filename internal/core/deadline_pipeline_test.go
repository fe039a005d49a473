package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bomw/internal/fault"
	"bomw/internal/tensor"
)

// totalExecutions reads an empty plan's injector as a pure execution
// counter — the mechanism the "never executed" assertions use.
func totalExecutions(fi *fault.Injector) int64 { return fi.Counts(0, "").Executions }

// TestPipelineSubmitRejectsCancelledContext is the regression test for
// the admission bug: Submit used to accept requests whose context was
// already cancelled, spending queue slots and device time on work nobody
// was waiting for.
func TestPipelineSubmitRejectsCancelledContext(t *testing.T) {
	s := smallScheduler(t, Config{MaxQueueDelay: -1})
	p := NewPipeline(s, PipelineConfig{ProbeInterval: -1})
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fut, err := p.Submit(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 8})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit with cancelled context = %v, want context.Canceled", err)
	}
	if fut != nil {
		t.Fatal("Submit returned a future for a dead request")
	}
	if st := p.Stats(); st.Submitted != 0 {
		t.Fatalf("dead request was admitted: %+v", st)
	}
}

// TestFutureWaitRaceNeverLosesCompletion hammers the resolve-exactly-once
// contract from the waiter's side: a context cancelled concurrently with
// completion delivery must never lose the completion — an abandoned Wait
// can always be retried with a fresh context and still observe it.
func TestFutureWaitRaceNeverLosesCompletion(t *testing.T) {
	for i := 0; i < 500; i++ {
		r := reqPool.get()
		fut := &Future{r: r}
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			r.resolve(&Completion{BatchSize: 42}) // the pipeline's finish: it holds the carrier, not the handle
		}()
		go func() {
			defer wg.Done()
			cancel()
		}()
		c, err := fut.Wait(ctx)
		if err != nil {
			// The cancel won the race: delivery must still be there.
			c2, err2 := fut.Wait(context.Background())
			if err2 != nil {
				t.Fatalf("iter %d: completion lost after cancelled Wait: %v", i, err2)
			}
			c = c2
		}
		if c.BatchSize != 42 {
			t.Fatalf("iter %d: wrong completion %+v", i, c)
		}
		wg.Wait()
		cancel()
	}
}

// TestPipelineRejectsInfeasibleDeadline: admission control must reject a
// request whose SLO no device can meet — distinctly from queue-full
// shedding — while a generous SLO on the same request sails through.
func TestPipelineRejectsInfeasibleDeadline(t *testing.T) {
	s := smallScheduler(t, Config{MaxQueueDelay: -1})
	p := NewPipeline(s, PipelineConfig{ProbeInterval: -1})
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	_, err := p.Submit(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 8, Deadline: time.Nanosecond})
	if !errors.Is(err, ErrDeadlineInfeasible) {
		t.Fatalf("1ns SLO admitted: err = %v, want ErrDeadlineInfeasible", err)
	}
	if st := p.Stats(); st.Infeasible != 1 || st.Submitted != 0 {
		t.Fatalf("stats after infeasible reject = %+v", st)
	}

	c, err := p.Do(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 8, Deadline: time.Minute})
	if err != nil || c.Err != nil {
		t.Fatalf("feasible SLO failed: %v / %v", err, c.Err)
	}
}

// TestPipelineCullsExpiredBeforeExecute is the acceptance assertion: an
// admitted request whose deadline passes while it is queued resolves with
// ErrDeadlineExceeded and never reaches a device's execute path — proven
// by fault-injector execution counters staying flat.
func TestPipelineCullsExpiredBeforeExecute(t *testing.T) {
	s, fi := steppedScheduler(t)
	clk := NewManualClock()
	p := NewPipeline(s, PipelineConfig{MaxBatch: 1, ProbeInterval: -1, Clock: clk})
	release := make(chan struct{})
	p.testExecHook = func(string) { <-release }
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// One SLO-free blocker occupies a worker; with every worker gated on
	// the hook, nothing can execute until release.
	blocker, err := p.Submit(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 8, Deadline: -1})
	if err != nil {
		t.Fatal(err)
	}
	const expiring = 4
	futs := make([]*Future, 0, expiring)
	for i := 0; i < expiring; i++ {
		fut, err := p.Submit(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 8, Deadline: 10 * time.Millisecond})
		if err != nil {
			t.Fatalf("expiring submit %d: %v", i, err)
		}
		futs = append(futs, fut)
	}
	clk.Advance(50 * time.Millisecond) // every 10 ms SLO is now long gone
	close(release)

	for i, fut := range futs {
		c, err := fut.Wait(ctx)
		if err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		if !errors.Is(c.Err, ErrDeadlineExceeded) {
			t.Fatalf("expired request %d resolved with %v, want ErrDeadlineExceeded", i, c.Err)
		}
	}
	if c, err := blocker.Wait(ctx); err != nil || c.Err != nil {
		t.Fatalf("blocker: %v / %v", err, c.Err)
	}
	p.Close()

	st := p.Stats()
	if st.Expired != expiring {
		t.Fatalf("Expired = %d, want %d (stats %+v)", st.Expired, expiring, st)
	}
	// Only the SLO-free blocker may have touched a device.
	if n := totalExecutions(fi); n != 1 {
		t.Fatalf("expired requests reached the execute path: %d executions, want 1 (%+v)", n, fi.Counts(0, ""))
	}
}

// TestPipelineNoRetryAfterDeadline covers the deadline × failover
// interaction: when the first attempt fails and the request's SLO
// expires before the retry begins, the cull ahead of the retry resolves
// the request as expired — it is not retried on a second device.
func TestPipelineNoRetryAfterDeadline(t *testing.T) {
	s, _ := steppedScheduler(t)
	fi := armFaults(s, 1, failing("", 1))
	clk := NewManualClock()
	p := NewPipeline(s, PipelineConfig{MaxBatch: 1, ProbeInterval: -1, Clock: clk})
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// The hook runs before each attempt's cull: the second time, the
	// first attempt has failed, and the clock steps past the deadline
	// before the retry's cull reads it.
	var attempts atomic.Int32
	p.testExecHook = func(string) {
		if attempts.Add(1) == 2 {
			clk.Advance(60 * time.Millisecond)
		}
	}
	// Feasible at admission (idle queues), expired once the clock has
	// stepped 60 ms.
	fut, err := p.Submit(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 4, Deadline: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c, err := fut.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if attempts.Load() != 2 {
		t.Fatalf("hook ran %d times, want 2 (the first attempt, then the retry's cull)", attempts.Load())
	}
	if !errors.Is(c.Err, ErrDeadlineExceeded) {
		t.Fatalf("request resolved with %v, want ErrDeadlineExceeded (culled before retry)", c.Err)
	}
	st := p.Stats()
	if st.Retries != 0 {
		t.Fatalf("expired request was retried: %+v", st)
	}
	if st.Expired != 1 || st.ExecFailures != 0 {
		t.Fatalf("stats = %+v, want Expired=1 ExecFailures=0", st)
	}
	if n := totalExecutions(fi); n != 1 {
		t.Fatalf("executions = %d, want exactly the failed first attempt (%+v)", n, fi.Counts(0, ""))
	}
}

// TestServedInputTensorIsLeftUnchanged: a batch of one request hands
// that request's tensor to the runtime uncopied, which is safe only
// because nothing on the path writes an input. The served request must
// get net.Classify's classes, and the tensor must come back bit for bit.
func TestServedInputTensorIsLeftUnchanged(t *testing.T) {
	s := smallScheduler(t, Config{MaxQueueDelay: -1})
	fi := armFaults(s, 1)
	p := NewPipeline(s, PipelineConfig{MaxBatch: 1, ProbeInterval: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	in := tensor.New(64, 784)
	for i := range in.Data() {
		in.Data()[i] = float32(1+i%999) / 1000
	}
	before := in.Clone()
	c, err := p.Do(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Input: in, Deadline: 100 * time.Millisecond})
	if err != nil || c.Err != nil {
		t.Fatalf("request failed: %v / %v", err, c.Err)
	}
	p.Close()

	net, err := s.Dispatcher().Network("mnist-small")
	if err != nil {
		t.Fatal(err)
	}
	if want := net.Classify(tensor.Serial, before); !reflect.DeepEqual(c.Classes, want) {
		t.Errorf("classes = %v, want %v", c.Classes, want)
	}
	for i, v := range in.Data() {
		if math.Float32bits(v) != math.Float32bits(before.Data()[i]) {
			t.Fatalf("input element %d changed from %v to %v while it was served", i, before.Data()[i], v)
		}
	}
	if n := totalExecutions(fi); n != 1 {
		t.Errorf("executions = %d, want 1", n)
	}
}

// TestFeasibleWithinSeesLoad: the admission predictor must fold both the
// committed busy horizon of the simulated devices and the live worker
// queue occupancy (the queue probe) into its completion estimates.
func TestFeasibleWithinSeesLoad(t *testing.T) {
	s := smallScheduler(t, Config{MaxQueueDelay: -1})

	feasible, idleBest, err := s.FeasibleWithin("mnist-small", 8, time.Hour, 0)
	if err != nil || !feasible {
		t.Fatalf("idle system infeasible for a 1h SLO: %v feasible=%t", err, feasible)
	}
	if idleBest <= 0 {
		t.Fatalf("predicted latency %v, want positive", idleBest)
	}

	// Commit a large batch on every device: the busy horizon moves out,
	// and the best prediction must move with it.
	for _, name := range s.Devices() {
		if _, err := s.Runtime().Estimate(name, "mnist-small", 65536, 0); err != nil {
			t.Fatal(err)
		}
	}
	feasible, busyBest, err := s.FeasibleWithin("mnist-small", 8, idleBest, 0)
	if err != nil {
		t.Fatal(err)
	}
	if busyBest <= idleBest {
		t.Fatalf("busy prediction %v not above idle prediction %v", busyBest, idleBest)
	}
	if feasible {
		t.Fatalf("deadline %v still feasible with every device busy until ≥%v", idleBest, busyBest)
	}

	// The live queue probe feeds the same prediction: an hour of queued
	// work makes a one-minute SLO infeasible.
	s.SetQueueProbe(func(string) time.Duration { return time.Hour })
	feasible, _, err = s.FeasibleWithin("mnist-small", 8, time.Minute, 0)
	if err != nil {
		t.Fatal(err)
	}
	if feasible {
		t.Fatal("an hour of queued work left a 1-minute SLO feasible")
	}
	s.SetQueueProbe(nil)
}

// TestPipelineModelSLODefaults: requests without an explicit Deadline
// inherit the pipeline-wide default, their own Deadline overrides it,
// and Deadline < 0 opts out entirely.
func TestPipelineModelSLODefaults(t *testing.T) {
	s := smallScheduler(t, Config{MaxQueueDelay: -1})
	p := NewPipeline(s, PipelineConfig{
		ProbeInterval: -1,
		DefaultSLO:    time.Nanosecond, // impossible: everything using the default is rejected
	})
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// A request's own generous Deadline wins over the default.
	c, err := p.Do(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 8, Deadline: time.Minute})
	if err != nil || c.Err != nil {
		t.Fatalf("own deadline: %v / %v", err, c.Err)
	}
	// Without one, mnist-deep falls back to the impossible pipeline default.
	_, err = p.Submit(ctx, PipelineRequest{Model: "mnist-deep", Policy: BestThroughput, Batch: 8})
	if !errors.Is(err, ErrDeadlineInfeasible) {
		t.Fatalf("default SLO not applied: err = %v", err)
	}
	// Deadline < 0 opts out of the default.
	c, err = p.Do(ctx, PipelineRequest{Model: "mnist-deep", Policy: BestThroughput, Batch: 8, Deadline: -1})
	if err != nil || c.Err != nil {
		t.Fatalf("SLO opt-out: %v / %v", err, c.Err)
	}
}

// TestSoakDeadlineOverload is the overload acceptance soak (`make
// soak-deadline` runs it under -race): concurrent clients drive the
// pipeline far past saturation (a slow executor gates every batch) with
// mixed SLOs — generous, tight, impossible, and none. Graceful
// degradation means: feasible-SLO goodput keeps ≥95% SLO attainment,
// impossible-SLO work is rejected at admission (never executed), and the
// stats counters account for every submit attempt and every admitted
// request.
func TestSoakDeadlineOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	s := smallScheduler(t, Config{})
	p := NewPipeline(s, PipelineConfig{
		QueueDepth:       16,
		DeviceQueueDepth: 2,
		MaxBatch:         8,
		Window:           500 * time.Microsecond,
		ProbeInterval:    -1,
	})
	// The slow executor sets the real capacity: ~300 µs per batch per
	// device, so tight-loop clients offer far beyond 2× saturation and
	// backpressure + admission control must do the shedding.
	p.testExecHook = func(string) { time.Sleep(300 * time.Microsecond) }
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const (
		feasibleSLO = 250 * time.Millisecond
		tightSLO    = 2 * time.Millisecond
		perClient   = 150
	)
	type classStats struct {
		attempts, shed, rejected atomic.Int64
		expired, okInSLO, okLate atomic.Int64
	}
	var feasible, tight, background, impossible classStats
	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	client := func(slo time.Duration, cs *classStats) {
		defer wg.Done()
		for i := 0; i < perClient; i++ {
			cs.attempts.Add(1)
			start := time.Now()
			fut, err := p.Submit(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 4, Deadline: slo})
			switch {
			case errors.Is(err, ErrAdmissionFull):
				cs.shed.Add(1)
				continue
			case errors.Is(err, ErrDeadlineInfeasible):
				cs.rejected.Add(1)
				continue
			case err != nil:
				errCh <- err
				return
			}
			c, err := fut.Wait(ctx)
			if err != nil {
				errCh <- err
				return
			}
			switch {
			case errors.Is(c.Err, ErrDeadlineExceeded):
				cs.expired.Add(1)
			case c.Err != nil:
				errCh <- c.Err
				return
			case slo <= 0 || time.Since(start) <= slo:
				cs.okInSLO.Add(1)
			default:
				cs.okLate.Add(1)
			}
		}
	}
	// 8 generous-SLO clients, 8 SLO-free background clients saturating
	// the system, 4 tight-SLO clients exercising expiry culling and
	// prediction-driven rejection, and 4 impossible-SLO clients that
	// must all be rejected at admission.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go client(feasibleSLO, &feasible)
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go client(-1, &background)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go client(tightSLO, &tight)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go client(time.Nanosecond, &impossible)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("soak client failed: %v", err)
	}
	p.Close()
	st := p.Stats()

	sum := func(f func(*classStats) int64) int64 {
		return f(&feasible) + f(&tight) + f(&background) + f(&impossible)
	}
	attempts := sum(func(c *classStats) int64 { return c.attempts.Load() })
	shed := sum(func(c *classStats) int64 { return c.shed.Load() })
	rejected := sum(func(c *classStats) int64 { return c.rejected.Load() })
	expired := sum(func(c *classStats) int64 { return c.expired.Load() })
	ok := sum(func(c *classStats) int64 { return c.okInSLO.Load() + c.okLate.Load() })

	// (1) Impossible SLOs are rejected before admission — never executed.
	if got := impossible.rejected.Load(); got != impossible.attempts.Load() {
		t.Fatalf("impossible-SLO: %d of %d rejected, want all (shed=%d ok=%d expired=%d)",
			got, impossible.attempts.Load(), impossible.shed.Load(),
			impossible.okInSLO.Load()+impossible.okLate.Load(), impossible.expired.Load())
	}
	// (2) Every submit attempt is accounted for:
	// submitted + shed + infeasible = attempts.
	if total := st.Submitted + st.Shed + st.Infeasible; total != attempts {
		t.Fatalf("attempt accounting: submitted %d + shed %d + infeasible %d = %d ≠ attempts %d",
			st.Submitted, st.Shed, st.Infeasible, total, attempts)
	}
	if st.Shed != shed || st.Infeasible != rejected {
		t.Fatalf("shed/infeasible counters disagree with clients: %+v vs shed=%d rejected=%d", st, shed, rejected)
	}
	// (3) Every admitted request resolved into exactly one outcome:
	// ok + failed + cancelled + expired = admitted.
	if st.Completed != st.Submitted || st.InFlight != 0 {
		t.Fatalf("drain left work behind: %+v", st)
	}
	if ok+st.Failed+st.Cancelled+st.Expired != st.Submitted {
		t.Fatalf("outcome accounting: ok %d + failed %d + cancelled %d + expired %d ≠ admitted %d",
			ok, st.Failed, st.Cancelled, st.Expired, st.Submitted)
	}
	if st.Failed != 0 || st.Cancelled != 0 {
		t.Fatalf("no faults were injected, yet %+v", st)
	}
	if st.Expired != expired {
		t.Fatalf("Expired = %d, clients saw %d", st.Expired, expired)
	}
	// (4) Goodput under ≥2× saturation: admitted generous-SLO requests
	// keep ≥95% SLO attainment — overload is absorbed by shedding and
	// culling, not by blowing the tails of feasible work.
	feasAdmitted := feasible.okInSLO.Load() + feasible.okLate.Load() + feasible.expired.Load()
	if feasAdmitted == 0 {
		t.Fatal("no generous-SLO request was admitted")
	}
	if att := float64(feasible.okInSLO.Load()) / float64(feasAdmitted); att < 0.95 {
		t.Fatalf("feasible-SLO attainment %.3f < 0.95 (ok=%d late=%d expired=%d)",
			att, feasible.okInSLO.Load(), feasible.okLate.Load(), feasible.expired.Load())
	}
	if background.okInSLO.Load() == 0 {
		t.Fatal("background load never completed anything")
	}
	t.Logf("soak: attempts=%d admitted=%d shed=%d infeasible=%d expired=%d ok=%d | feasible ok=%d late=%d expired=%d | tight ok=%d rejected=%d expired=%d",
		attempts, st.Submitted, st.Shed, st.Infeasible, st.Expired, ok,
		feasible.okInSLO.Load(), feasible.okLate.Load(), feasible.expired.Load(),
		tight.okInSLO.Load(), tight.rejected.Load(), tight.expired.Load())
}
