package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"bomw/internal/fault"
)

// The stepped-clock tests: every timer on the serving path is driven by
// stepping a ManualClock, so none of them sleeps, polls or races a wall
// timer — what must not have happened yet provably has not, because the
// timer that would cause it has not fired.

// steppedScheduler is the package's shared scheduler, devices reset, with
// a fresh counting fault injector armed for the length of the test —
// so a stepped test costs milliseconds, not a scheduler build.
func steppedScheduler(t *testing.T) (*Scheduler, *fault.Injector) {
	t.Helper()
	s := testScheduler(t)
	fi := armFaults(s, 1)
	t.Cleanup(func() { s.Runtime().SetFaults(nil, "", 0) })
	return s, fi
}

func TestManualClockFiresInDeadlineOrder(t *testing.T) {
	clk := NewManualClock()
	var fired []string
	note := func(name string) func() {
		return func() { fired = append(fired, fmt.Sprintf("%s@%v", name, clk.Now())) }
	}
	clk.AfterFunc(3*time.Millisecond, note("c"))
	clk.AfterFunc(time.Millisecond, note("a"))
	clk.AfterFunc(time.Millisecond, note("b")) // same deadline: arming order
	stopped := clk.AfterFunc(2*time.Millisecond, note("stopped"))
	late := clk.AfterFunc(time.Hour, note("late"))
	// A callback arms a timer that falls inside the same step.
	clk.AfterFunc(2*time.Millisecond, func() {
		note("d")()
		clk.AfterFunc(500*time.Microsecond, note("e"))
	})
	if !stopped.Stop() || stopped.Stop() {
		t.Fatal("Stop must report true for an armed timer, then false")
	}
	clk.Advance(time.Millisecond - 1)
	if len(fired) != 0 {
		t.Fatalf("fired %v one nanosecond early", fired)
	}
	clk.Advance(3 * time.Millisecond)
	want := []string{"a@1ms", "b@1ms", "d@2ms", "e@2.5ms", "c@3ms"}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if now := clk.Now(); now != 4*time.Millisecond-1 {
		t.Fatalf("Now = %v after the steps, want 3.999999ms", now)
	}
	// Reset re-arms a fired timer and moves a pending one, like *time.Timer.
	if !late.Reset(time.Millisecond) {
		t.Fatal("Reset of a pending timer must report true")
	}
	clk.Advance(time.Millisecond)
	if got := fired[len(fired)-1]; got != "late@4.999999ms" {
		t.Fatalf("reset timer fired as %q", got)
	}
	if late.Reset(0) {
		t.Fatal("Reset of a fired timer must report false")
	}
	clk.BlockUntil(1) // already armed: returns at once
	clk.Advance(0)
	if len(fired) != 7 {
		t.Fatalf("a timer due now did not fire on Advance(0): %v", fired)
	}
}

// TestSteppedWindowFlush: the batching window is measured from the
// aggregate's arrival stamp on the pipeline clock. A held aggregate
// flushes when its oldest request has waited exactly Window — not a
// nanosecond earlier — and the batching loop's one timer re-arms for the
// next open aggregate, whose request was stamped at Submit (it carries an
// SLO) however much later the loop got to it.
func TestSteppedWindowFlush(t *testing.T) {
	const window = 2 * time.Millisecond
	ctx := context.Background()
	clk := NewManualClock()
	p := NewPipeline(testScheduler(t), PipelineConfig{HoldWindow: true, Window: window, ProbeInterval: -1, Clock: clk})
	defer p.Close()
	clk.Advance(7 * time.Millisecond) // t0 is not the origin: a window counted from anywhere else shows
	first, err := p.Submit(ctx, PipelineRequest{Model: "simple", Policy: LowestLatency, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	clk.BlockUntil(1) // the loop has stamped the request t0 and armed its wake
	clk.Advance(window / 2)
	// A second key, half a window younger.
	second, err := p.Submit(ctx, PipelineRequest{Model: "mnist-small", Policy: LowestLatency, Batch: 1, Deadline: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(window/2 - 1)
	if st := p.Stats(); st.Batches != 0 {
		t.Fatalf("a batch left %v into a %v window: %+v", window-1, window, st)
	}
	clk.Advance(1)
	if c, _ := first.Wait(ctx); c.Err != nil || c.Wait != window {
		t.Fatalf("oldest request: err %v, waited %v, want %v", c.Err, c.Wait, window)
	}
	if st := p.Stats(); st.WindowFlushes != 1 || st.Batches != 1 {
		t.Fatalf("at the window: %+v, want one window flush", st)
	}
	clk.BlockUntil(1) // the wake is re-armed for the younger aggregate
	clk.Advance(window / 2)
	if c, _ := second.Wait(ctx); c.Err != nil || c.Wait != window {
		t.Fatalf("younger request: err %v, waited %v, want %v", c.Err, c.Wait, window)
	}
	if st := p.Stats(); st.WindowFlushes != 2 || st.IdleFlushes+st.SizeFlushes != 0 {
		t.Fatalf("after both windows: %+v, want two window flushes and no other", st)
	}
}

// TestSteppedProber: a quarantined device whose fault has cleared is
// re-admitted by the recovery prober's first tick — ProbeInterval on the
// pipeline clock, and not one nanosecond before.
func TestSteppedProber(t *testing.T) {
	const every = 50 * time.Millisecond
	s, _ := steppedScheduler(t)
	first, err := s.Select("mnist-small", 8, BestThroughput, 0)
	if err != nil {
		t.Fatal(err)
	}
	armFaults(s, 1, failing(first.Device, 1))
	for i := 0; i < 3; i++ {
		_, err := s.Runtime().Estimate(first.Device, "mnist-small", 8, 0)
		s.ReportExecution(first.Device, err)
	}
	armFaults(s, 1)
	if q := s.Quarantined(); len(q) != 1 {
		t.Fatalf("quarantined = %v, want [%s]", q, first.Device)
	}

	clk := NewManualClock()
	p := NewPipeline(s, PipelineConfig{ProbeInterval: every, Clock: clk})
	defer p.Close()
	clk.BlockUntil(1) // the prober goroutine is at its timer
	clk.Advance(every - 1)
	if st := s.Stats(); st.Readmissions != 0 {
		t.Fatalf("re-admitted %v into a %v probe interval: %+v", every-1, every, st)
	}
	clk.Advance(1)
	clk.BlockUntil(1) // the probe ran and the prober is back at its timer
	if st := s.Stats(); st.Readmissions != 1 || len(st.Quarantined) != 0 {
		t.Fatalf("after one probe interval: %+v, want %s re-admitted", st, first.Device)
	}
}

// TestSteppedIdentities is the accounting identities PipelineStats
// documents as a seeded property test: a random pipeline configuration
// and fault plan, a random interleaving of submissions, clock steps and
// cancellations, then Close — on the timing-only path and with real
// input tensors. Every submit attempt is accounted for, every admitted
// request lands in exactly one outcome bucket, and every future handed
// out holds exactly one completion.
func TestSteppedIdentities(t *testing.T) {
	s, _ := steppedScheduler(t)
	for _, realInputs := range []bool{false, true} {
		for seed := int64(1); seed <= 32; seed++ {
			s.ResetDevices()
			if err := steppedIdentities(s, seed, realInputs); err != nil {
				t.Fatalf("seed %d, real inputs %t: %v", seed, realInputs, err)
			}
		}
	}
}

func steppedIdentities(s *Scheduler, seed int64, realInputs bool) error {
	rng := rand.New(rand.NewSource(seed))
	clk := NewManualClock()
	cfg := PipelineConfig{
		DefaultSLO:       []time.Duration{0, 150 * time.Microsecond, 50 * time.Millisecond}[rng.Intn(3)],
		HoldWindow:       rng.Intn(2) == 0,
		QueueDepth:       4, // small queues: held windows back up into shedding
		DeviceQueueDepth: 1,
		Clock:            clk,
	}
	dev := s.Devices()[rng.Intn(len(s.Devices()))]
	switch rng.Intn(3) {
	case 0:
		armFaults(s, 1)
	case 1:
		armFaults(s, 1, failing(dev, 0.1+0.8*rng.Float64()))
	case 2:
		start := time.Duration(rng.Intn(5)) * time.Millisecond
		armFaults(s, 1, fault.Fault{Node: fault.AllNodes, Device: dev, Start: start, End: start + 5*time.Millisecond, Effect: fault.Outage})
	}
	p := NewPipeline(s, cfg)

	var attempts, shed, infeasible int64
	var futs []*Future
	var cancels []context.CancelFunc
	for op := 0; op < 60; op++ {
		switch r := rng.Intn(10); {
		case r < 6:
			ctx, cancel := context.WithCancel(context.Background())
			cancels = append(cancels, cancel)
			req := PipelineRequest{Model: "simple", Policy: Policy(rng.Intn(2))}
			if n := 1 + rng.Intn(8); realInputs {
				req.Input = simpleSamples(n)
			} else {
				req.Batch = n
				req.Model = []string{"simple", "mnist-small"}[rng.Intn(2)]
			}
			attempts++
			fut, err := p.Submit(ctx, req)
			switch {
			case errors.Is(err, ErrAdmissionFull):
				shed++
			case errors.Is(err, ErrDeadlineInfeasible):
				infeasible++
			case err != nil:
				return err
			default:
				futs = append(futs, fut)
			}
		case r < 9:
			clk.Advance(time.Duration(rng.Intn(3000)) * time.Microsecond)
		case len(cancels) > 0:
			cancels[rng.Intn(len(cancels))]()
		}
	}
	p.Close()
	for _, cancel := range cancels {
		cancel()
	}

	st := p.Stats()
	if st.Submitted+st.Shed+st.Infeasible != attempts || st.Shed != shed || st.Infeasible != infeasible {
		return fmt.Errorf("%d attempts (%d shed, %d infeasible) ≠ submitted + shed + infeasible of %+v", attempts, shed, infeasible, st)
	}
	var ok, failed, cancelled, expired int64
	for i, fut := range futs {
		c, resolved := peek(fut)
		if !resolved {
			return fmt.Errorf("future %d unresolved after Close", i)
		}
		switch {
		case c.Err == nil:
			ok++
			if realInputs && len(c.Classes) == 0 {
				return fmt.Errorf("future %d completed without classes on the real-input path", i)
			}
		case errors.Is(c.Err, ErrDeadlineExceeded):
			expired++
		case errors.Is(c.Err, context.Canceled):
			cancelled++
		default:
			failed++
		}
	}
	if st.Submitted != int64(len(futs)) || st.Completed != st.Submitted || st.InFlight != 0 ||
		st.Failed != failed || st.Cancelled != cancelled || st.Expired != expired ||
		ok+failed+cancelled+expired != st.Submitted {
		return fmt.Errorf("outcomes ok %d failed %d cancelled %d expired %d of %d futures ≠ %+v", ok, failed, cancelled, expired, len(futs), st)
	}
	return nil
}
