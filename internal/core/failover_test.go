package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bomw/internal/fault"
	"bomw/internal/opencl"
	"bomw/internal/trace"
)

// armFaults arms a plan of faults drawn from seed on s's runtime, as
// node0 of a one-node fleet, in place of whatever was armed before, and
// returns its injector. With no faults it injects nothing and only
// counts executions.
func armFaults(s *Scheduler, seed int64, faults ...fault.Fault) *fault.Injector {
	in := fault.NewInjector(fault.Plan{Seed: seed, Faults: faults})
	s.Runtime().SetFaults(in, "node0", 0)
	return in
}

// failing fails executions on dev with probability p; an empty dev
// fails every device.
func failing(dev string, p float64) fault.Fault {
	return fault.Fault{Node: fault.AllNodes, Device: dev, Effect: fault.Err, P: p}
}

func TestSelectExcluding(t *testing.T) {
	s := testScheduler(t)
	first, err := s.Select("mnist-small", 4096, BestThroughput, 0)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := s.SelectExcluding("mnist-small", 4096, BestThroughput, 0, map[string]bool{first.Device: true})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Device == first.Device {
		t.Fatalf("exclusion ignored: still picked %s", dec.Device)
	}
	if !dec.Spilled {
		t.Fatal("rerouting off the predicted device must count as a spill")
	}
	// Excluding everything leaves nowhere to go.
	all := map[string]bool{}
	for _, name := range s.Devices() {
		all[name] = true
	}
	if _, err := s.SelectExcluding("mnist-small", 4096, BestThroughput, 0, all); !errors.Is(err, ErrNoEligibleDevice) {
		t.Fatalf("all-excluded Select = %v, want ErrNoEligibleDevice", err)
	}
}

func TestObserveRejectsResultWithoutEvents(t *testing.T) {
	s := testScheduler(t)
	dec, err := s.Select("mnist-small", 8, BestThroughput, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := &opencl.Result{Device: dec.Device, Model: "mnist-small", Batch: 8}
	if err := s.Observe(dec, res); err == nil {
		t.Fatal("Observe accepted a result that never executed: no commands, no span")
	}
}

func TestQuarantineRoutesAroundAndReadmits(t *testing.T) {
	s := smallScheduler(t, Config{})
	first, err := s.Select("mnist-small", 8, BestThroughput, 0)
	if err != nil {
		t.Fatal(err)
	}
	armFaults(s, 1, failing(first.Device, 1))

	// Three consecutive execution errors quarantine the device.
	for i := 0; i < 3; i++ {
		_, err := s.Runtime().Estimate(first.Device, "mnist-small", 8, 0)
		if err == nil {
			t.Fatal("error rate 1 did not fail")
		}
		s.ReportExecution(first.Device, err)
	}
	st := s.Stats()
	if st.Quarantines != 1 || len(st.Quarantined) != 1 || st.Quarantined[0] != first.Device {
		t.Fatalf("stats after 3 errors = %+v, want %s quarantined", st, first.Device)
	}
	dec, err := s.Select("mnist-small", 8, BestThroughput, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Device == first.Device {
		t.Fatal("Select routed to a quarantined device")
	}
	if !dec.Spilled {
		t.Fatal("quarantine reroute must count as a spill")
	}

	// A probe against the still-failing device must not re-admit it.
	if got := s.ProbeQuarantined(0); len(got) != 0 {
		t.Fatalf("probe re-admitted a failing device: %v", got)
	}
	// Once the fault clears, the probe re-admits.
	armFaults(s, 1)
	got := s.ProbeQuarantined(0)
	if len(got) != 1 || got[0] != first.Device {
		t.Fatalf("probe after recovery = %v, want [%s]", got, first.Device)
	}
	st = s.Stats()
	if st.Readmissions != 1 || len(st.Quarantined) != 0 {
		t.Fatalf("stats after readmission = %+v", st)
	}
}

func TestSelectServesEvenWhenAllQuarantined(t *testing.T) {
	s := smallScheduler(t, Config{})
	armFaults(s, 1, failing("", 1))
	for _, name := range s.Devices() {
		for i := 0; i < 3; i++ {
			_, err := s.Runtime().Estimate(name, "mnist-small", 8, 0)
			s.ReportExecution(name, err)
		}
	}
	if st := s.Stats(); len(st.Quarantined) != len(s.Devices()) {
		t.Fatalf("not all devices quarantined: %+v", st)
	}
	// With every device fenced off, refusing to schedule would fail the
	// request outright — Select must still name a device.
	dec, err := s.Select("mnist-small", 8, BestThroughput, 0)
	if err != nil {
		t.Fatalf("Select with all devices quarantined: %v", err)
	}
	if dec.Device == "" {
		t.Fatal("empty decision")
	}
}

func TestPipelineFailoverCompletesRequests(t *testing.T) {
	s := smallScheduler(t, Config{})
	p := NewPipeline(s, PipelineConfig{MaxBatch: 1, ProbeInterval: -1})
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Learn which device serves this workload, then fail it at 100%.
	warmup, err := p.Do(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 8})
	if err != nil || warmup.Err != nil {
		t.Fatalf("warmup: %v / %v", err, warmup.Err)
	}
	failed := warmup.Decision.Device
	armFaults(s, 1, failing(failed, 1))

	for i := 0; i < 6; i++ {
		c, err := p.Do(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 8})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if c.Err != nil {
			t.Fatalf("request %d failed despite failover: %v", i, c.Err)
		}
		if c.Decision.Device == failed {
			t.Fatalf("request %d reported completion on the failing device", i)
		}
	}
	st := p.Stats()
	if st.Retries == 0 || st.Failovers == 0 {
		t.Fatalf("pipeline stats = %+v, want retries and failovers counted", st)
	}
	if st.ExecFailures != 0 {
		t.Fatalf("exec failures = %d, want 0 (every batch must fail over)", st.ExecFailures)
	}
	sst := s.Stats()
	if sst.Quarantines == 0 {
		t.Fatalf("persistent failures never quarantined the device: %+v", sst)
	}
}

// TestPipelineCloseWaitsForQueuedBatches is the regression test for the
// drain bug: Close used to return as soon as the worker channels were
// closed, before workers finished queued batches — violating the
// contract that every accepted request's future resolves before Close
// returns.
func TestPipelineCloseWaitsForQueuedBatches(t *testing.T) {
	s := smallScheduler(t, Config{MaxQueueDelay: -1})
	p := NewPipeline(s, PipelineConfig{MaxBatch: 1, ProbeInterval: -1})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	p.testExecHook = func(string) {
		entered <- struct{}{}
		<-release
	}

	fut, err := p.Submit(context.Background(), PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	<-entered // the worker now holds the batch

	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a worker still held a batch")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	<-closed
	// The future must already be resolved — no waiting allowed.
	c, resolved := peek(fut)
	if !resolved {
		t.Fatal("Close returned before the accepted request's future resolved")
	}
	if c.Err != nil {
		t.Fatalf("held batch failed: %v", c.Err)
	}
}

// TestPipelinePlayWaitsForInflightOnSubmitError is the regression test
// for the future leak: a Submit error used to return from Play without
// wg.Wait(), abandoning completion goroutines mid-write.
func TestPipelinePlayWaitsForInflightOnSubmitError(t *testing.T) {
	s := smallScheduler(t, Config{MaxQueueDelay: -1})
	p := NewPipeline(s, PipelineConfig{MaxBatch: 1, ProbeInterval: -1})
	defer p.Close()
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	p.testExecHook = func(string) {
		entered <- struct{}{}
		<-release
	}

	tr := trace.Trace{
		{At: 0, Model: "mnist-small", Batch: 1},
		{At: time.Millisecond, Model: "no-such-model", Batch: 1},
	}
	done := make(chan error, 1)
	go func() {
		_, err := Play(context.Background(), p, tr, BestThroughput, 0, 1)
		done <- err
	}()
	<-entered // the first request is executing (held); the second will fail Submit
	select {
	case err := <-done:
		t.Fatalf("Play returned (%v) while a submitted future was unresolved", err)
	case <-time.After(150 * time.Millisecond):
	}
	close(release)
	if err := <-done; err == nil {
		t.Fatal("Play accepted an unknown model")
	}
	waitForDrain(t, p)
}

// waitForDrain polls until every submitted request has completed.
func waitForDrain(t *testing.T, p *Pipeline) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := p.Stats()
		if st.Completed == st.Submitted {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pipeline never drained: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelinePlaySurvivesDeviceOutage is the acceptance scenario: one
// device fails at a 100% error rate mid-run (a scripted outage window on
// the pipeline clock, which the test steps), yet a replayed trace
// completes every admitted request via failover, the failed device is
// quarantined, and after the window it is probed and re-admitted.
func TestPipelinePlaySurvivesDeviceOutage(t *testing.T) {
	// Queue spill is disabled so routing stays pinned to the best
	// healthy device until the failure domain (not queue occupancy)
	// reroutes it — the point under test.
	s := smallScheduler(t, Config{MaxQueueDelay: -1})
	const probeEvery = 5 * time.Millisecond
	clk := NewManualClock()
	p := NewPipeline(s, PipelineConfig{MaxBatch: 64, ProbeInterval: probeEvery, Clock: clk})
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// The outage starts mid-run and ends before the trace does.
	outage := fault.Fault{Node: fault.AllNodes, Start: 100 * time.Millisecond, End: 450 * time.Millisecond, Effect: fault.Outage}

	// ~400 requests over ~0.8 s of trace time straddle the outage. Play
	// paces arrivals on the wall clock, which the pipeline no longer
	// reads, so the trace is played in three compressed stretches —
	// before, inside and after the window — with the clock stepped to
	// each in between.
	tr, err := trace.Poisson(400, 500, []string{"mnist-small"}, []int{64}, 11)
	if err != nil {
		t.Fatal(err)
	}
	var played, dropped int
	play := func(from, to time.Duration) {
		t.Helper()
		var part trace.Trace
		for _, r := range tr {
			if r.At >= from && r.At < to {
				part = append(part, r)
			}
		}
		res, err := Play(ctx, p, part, BestThroughput, 0, 1e6)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Fatalf("outage leaked to %d clients", res.Failed)
		}
		if got := res.Requests + res.Dropped + res.Expired; got != len(part) {
			t.Fatalf("requests %d + dropped %d + expired %d ≠ trace stretch %d", res.Requests, res.Dropped, res.Expired, len(part))
		}
		played, dropped = played+res.Requests, dropped+res.Dropped
	}
	play(0, outage.Start)
	// Script the outage on the device the first stretch leaves routing
	// on: the health monitor may have demoted the classifier's first
	// pick by then.
	hot, err := p.Do(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 64})
	if err != nil || hot.Err != nil {
		t.Fatalf("hot-device probe: %v / %v", err, hot.Err)
	}
	failed := hot.Decision.Device
	outage.Device = failed
	fi := armFaults(s, 3, outage)
	clk.Advance(outage.Start + 50*time.Millisecond - clk.Now())
	play(outage.Start, outage.End)
	st := p.Stats()
	if st.ExecFailures != 0 {
		t.Fatalf("exec failures = %d: %d batches failed clients despite failover", st.ExecFailures, st.ExecFailures)
	}
	if st.Retries == 0 {
		t.Fatalf("the outage never triggered a retry — fault not exercised (pipeline %+v, faults %+v)", st, fi.Counts(0, ""))
	}
	if sst := s.Stats(); sst.Quarantines == 0 || sst.Readmissions != 0 {
		t.Fatalf("inside the outage: %+v, want %s quarantined and not yet re-admitted", sst, failed)
	}

	// The prober re-admits the device on its first tick past the window.
	// BlockUntil waits for the prober goroutine to be back at its timer
	// (no stretch is open, so its timer is the only one armed).
	clk.Advance(outage.End - clk.Now())
	clk.BlockUntil(1)
	clk.Advance(probeEvery)
	clk.BlockUntil(1)
	if sst := s.Stats(); sst.Readmissions == 0 {
		t.Fatalf("recovered device never re-admitted: %+v", sst)
	}
	if q := s.Quarantined(); len(q) != 0 {
		t.Fatalf("still quarantined after recovery: %v", q)
	}
	play(outage.End, tr[len(tr)-1].At+1)
	if played+dropped != len(tr) {
		t.Fatalf("requests %d + dropped %d ≠ trace %d", played, dropped, len(tr))
	}
	if played == 0 {
		t.Fatal("every request was dropped")
	}
	if st := p.Stats(); st.ExecFailures != 0 {
		t.Fatalf("exec failures = %d after recovery", st.ExecFailures)
	}
}

// TestSoakShedRetryQuarantine is the overload+fault soak (`make soak`
// runs it under -race): concurrent clients overrun a small admission
// queue while one device fails persistently, exercising shedding,
// retry/failover, quarantine and probe-driven recovery together. Every
// accepted request must still complete successfully.
func TestSoakShedRetryQuarantine(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	s := smallScheduler(t, Config{})
	p := NewPipeline(s, PipelineConfig{
		QueueDepth:    4,
		MaxBatch:      32,
		ProbeInterval: 5 * time.Millisecond,
	})
	// A slow executor induces real backpressure so admission sheds.
	p.testExecHook = func(string) { time.Sleep(500 * time.Microsecond) }
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	warmup, err := p.Do(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 8})
	if err != nil || warmup.Err != nil {
		t.Fatalf("warmup: %v / %v", err, warmup.Err)
	}
	failed := warmup.Decision.Device
	armFaults(s, 13, failing(failed, 1))

	const (
		clients = 24
		perC    = 50
	)
	var ok, shed atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perC; i++ {
				comp, err := p.Do(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 4})
				switch {
				case errors.Is(err, ErrAdmissionFull):
					shed.Add(1)
				case err != nil:
					errCh <- err
					return
				case comp.Err != nil:
					errCh <- comp.Err
					return
				default:
					ok.Add(1)
				}
			}
		}()
	}
	// The device recovers once its failures have quarantined it; the
	// prober should re-admit it while traffic is still flowing.
	go func() {
		for s.Stats().Quarantines == 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Millisecond):
			}
		}
		armFaults(s, 13)
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("accepted request failed during soak: %v", err)
	}
	p.Close()

	st := p.Stats()
	if ok.Load() == 0 {
		t.Fatal("no request survived the soak")
	}
	if st.Submitted != st.Completed || st.InFlight != 0 {
		t.Fatalf("drain left work behind: %+v", st)
	}
	if st.ExecFailures != 0 {
		t.Fatalf("exec failures = %d, want 0 (failover must absorb the bad device)", st.ExecFailures)
	}
	if st.Retries == 0 {
		t.Fatal("fault injection never triggered a retry")
	}
	sst := s.Stats()
	if sst.Quarantines == 0 {
		t.Fatalf("failing device never quarantined: %+v", sst)
	}
	if sst.Readmissions == 0 {
		t.Fatalf("recovered device never re-admitted: %+v", sst)
	}
	t.Logf("soak: ok=%d shed=%d retries=%d failovers=%d quarantines=%d readmits=%d",
		ok.Load(), shed.Load(), st.Retries, st.Failovers, sst.Quarantines, sst.Readmissions)
}
