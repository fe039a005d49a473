package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The request hand-offs: admission is a slice the batching loop swaps
// out on a kick, and a request's completion travels on its own carrier
// (pipeReq) — finish writes it and publishes it through the carrier's
// state word, and only a Wait that arrives first parks, on the carrier's
// wake channel. These tests hold each half of that protocol; `make
// handoff` runs them twenty times under the race detector at one and two
// CPUs.

type waitResult struct {
	c   Completion
	err error
}

// waitAsync runs f.Wait(ctx) on its own goroutine.
func waitAsync(f *Future, ctx context.Context) <-chan waitResult {
	out := make(chan waitResult, 1)
	go func() {
		c, err := f.Wait(ctx)
		out <- waitResult{c, err}
	}()
	return out
}

// within returns the Wait's result, failing the test if it takes 10 s.
func within(t *testing.T, res <-chan waitResult, what string) waitResult {
	t.Helper()
	select {
	case r := <-res:
		return r
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never returned", what)
		return waitResult{}
	}
}

// untilParked yields until the Wait whose result is res has parked on
// r, failing the test if that Wait returns first or never parks.
func untilParked(t *testing.T, r *pipeReq, res <-chan waitResult) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); r.state.Load() != carrierParked; runtime.Gosched() {
		select {
		case got := <-res:
			t.Fatalf("Wait returned %+v, %v before finish", got.c, got.err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("Wait never parked")
		}
	}
}

// A Wait that parks before finish, and one that arrives after it, each
// read the completion once; the carrier goes back to the pool empty.
func TestWaitParkedOrLateReadsTheCompletionOnce(t *testing.T) {
	ctx := context.Background()
	check := func(t *testing.T, i int, f *Future, r *pipeReq, got waitResult) {
		t.Helper()
		if got.err != nil || got.c.BatchSize != i+1 {
			t.Fatalf("iter %d: Wait = %+v, %v; want BatchSize %d", i, got.c, got.err, i+1)
		}
		if _, err := f.Wait(ctx); !errors.Is(err, ErrFutureClaimed) {
			t.Fatalf("iter %d: second Wait = %v, want ErrFutureClaimed", i, err)
		}
		// Nothing else draws from the pool here: the recycled carrier
		// is still this one, and must hold no state and no token.
		if st, n := r.state.Load(), len(r.wake); st != carrierEmpty || n != 0 {
			t.Fatalf("iter %d: recycled carrier in state %d with %d wake tokens", i, st, n)
		}
	}
	t.Run("parked before finish", func(t *testing.T) {
		for i := 0; i < 200; i++ {
			r := reqPool.get()
			f := &Future{r: r}
			res := waitAsync(f, ctx)
			untilParked(t, r, res)
			r.resolve(&Completion{BatchSize: i + 1})
			check(t, i, f, r, within(t, res, "a parked Wait"))
		}
	})
	t.Run("after finish", func(t *testing.T) {
		for i := 0; i < 200; i++ {
			r := reqPool.get()
			f := &Future{r: r}
			r.resolve(&Completion{BatchSize: i + 1})
			if st := r.state.Load(); st != carrierResolved {
				t.Fatalf("iter %d: finish with no Wait parked left state %d, want resolved", i, st)
			}
			check(t, i, f, r, within(t, waitAsync(f, ctx), "a Wait after finish"))
		}
	})
}

// A parked Wait whose context is cancelled while finish races it never
// loses the completion: either it reads the completion, or it returns
// the context's error and a fresh Wait reads it. Either way the carrier
// goes back to the pool without a stale wake token.
func TestParkedWaitCancelledAgainstFinishKeepsCompletion(t *testing.T) {
	for i := 0; i < 500; i++ {
		r := reqPool.get()
		f := &Future{r: r}
		ctx, cancel := context.WithCancel(context.Background())
		res := waitAsync(f, ctx)
		untilParked(t, r, res)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); cancel() }()
		go func() { defer wg.Done(); r.resolve(&Completion{BatchSize: 42}) }()
		got := within(t, res, "a parked, cancelled Wait")
		if got.err != nil {
			if !errors.Is(got.err, context.Canceled) {
				t.Fatalf("iter %d: parked Wait = %v, want context.Canceled", i, got.err)
			}
			if f.r != r {
				t.Fatalf("iter %d: the cancelled Wait gave up the carrier", i)
			}
			got = within(t, waitAsync(f, context.Background()), "the fresh Wait")
		}
		if got.err != nil || got.c.BatchSize != 42 {
			t.Fatalf("iter %d: completion lost: %+v, %v", i, got.c, got.err)
		}
		wg.Wait()
		if st, n := r.state.Load(), len(r.wake); st != carrierEmpty || n != 0 {
			t.Fatalf("iter %d: recycled carrier in state %d with %d wake tokens", i, st, n)
		}
	}
}

// A request is resolved once. A second resolve of the same carrier — a
// path that finished a request twice — panics, and leaves the carrier's
// state and its wake token as the first resolve left them: the resolver
// is not blocked on a full wake channel, and no stale token rides the
// carrier back to the pool to wake its next request's Wait early.
func TestSecondResolvePanics(t *testing.T) {
	// secondResolve runs resolve on its own goroutine, so a resolve that
	// blocks fails the test instead of hanging it.
	secondResolve := func(t *testing.T, r *pipeReq) {
		t.Helper()
		out := make(chan any, 1)
		go func() {
			defer func() { out <- recover() }()
			r.resolve(&Completion{BatchSize: 2})
		}()
		select {
		case v := <-out:
			if v == nil {
				t.Fatal("a second resolve returned; want a panic")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a second resolve blocked")
		}
	}
	t.Run("after finish", func(t *testing.T) {
		r := reqPool.get()
		f := &Future{r: r}
		r.resolve(&Completion{BatchSize: 1})
		secondResolve(t, r)
		if st, n := r.state.Load(), len(r.wake); st != carrierResolved || n != 0 {
			t.Fatalf("after a second resolve: state %d with %d wake tokens, want resolved with none", st, n)
		}
		if got := within(t, waitAsync(f, context.Background()), "a Wait after finish"); got.err != nil {
			t.Fatalf("Wait = %v", got.err)
		}
	})
	t.Run("parked", func(t *testing.T) {
		r := reqPool.get()
		f := &Future{r: r}
		// An abandoned Wait leaves the carrier parked with nobody to take
		// the token, so a second one would stay on wake.
		ctx, cancel := context.WithCancel(context.Background())
		res := waitAsync(f, ctx)
		untilParked(t, r, res)
		cancel()
		if got := within(t, res, "a cancelled Wait"); !errors.Is(got.err, context.Canceled) {
			t.Fatalf("parked Wait = %v, want context.Canceled", got.err)
		}
		r.resolve(&Completion{BatchSize: 1})
		secondResolve(t, r)
		if st, n := r.state.Load(), len(r.wake); st != carrierWoken || n != 1 {
			t.Fatalf("after a second resolve: state %d with %d wake tokens, want woken with one", st, n)
		}
		if got := within(t, waitAsync(f, context.Background()), "the fresh Wait"); got.err != nil {
			t.Fatalf("Wait = %v", got.err)
		}
		if st, n := r.state.Load(), len(r.wake); st != carrierEmpty || n != 0 {
			t.Fatalf("recycled carrier in state %d with %d wake tokens", st, n)
		}
	})
}

// Admission never loses a wakeup: eight submitters offer 2000 requests
// each, in bursts, to a pipeline whose admission sheds at 64. Only the
// append that makes admission non-empty kicks the batching loop, so a
// kick lost between Submit and the loop strands every request behind it
// — no window timer or idle nudge drains admission. Every accepted
// future must resolve within 10 s, and every offer is on the ledger.
func TestAdmissionNeverLosesAWakeup(t *testing.T) {
	const submitters, perSubmitter, burst = 8, 2000, 16
	p := NewPipeline(testScheduler(t), PipelineConfig{QueueDepth: 64, ProbeInterval: -1})
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	type tally struct{ submitted, shed, infeasible, resolved int64 }
	tallies := make([]tally, submitters)
	errs := make(chan error, submitters)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(tl *tally) {
			defer wg.Done()
			futs := make([]*Future, 0, burst)
			for sent := 0; sent < perSubmitter; {
				futs = futs[:0]
				for ; len(futs) < burst && sent < perSubmitter; sent++ {
					// One request in eight carries an SLO no device can meet.
					req := PipelineRequest{Model: "simple", Policy: BestThroughput, Batch: 1, Deadline: -1}
					if sent%8 == 7 {
						req.Deadline = time.Nanosecond
					}
					fut, err := p.Submit(context.Background(), req)
					switch {
					case err == nil:
						tl.submitted++
						futs = append(futs, fut)
					case errors.Is(err, ErrAdmissionFull):
						tl.shed++
					case errors.Is(err, ErrDeadlineInfeasible):
						tl.infeasible++
					default:
						errs <- err
						return
					}
				}
				for _, fut := range futs {
					if _, err := fut.Wait(ctx); err != nil {
						errs <- err
						return
					}
					tl.resolved++
				}
			}
		}(&tallies[g])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("a submitter stopped: %v (a lost wakeup strands admitted requests)", err)
	}
	var sum tally
	for _, tl := range tallies {
		sum.submitted += tl.submitted
		sum.shed += tl.shed
		sum.infeasible += tl.infeasible
		sum.resolved += tl.resolved
	}
	st := p.Stats()
	if offered := int64(submitters * perSubmitter); sum.submitted+sum.shed+sum.infeasible != offered ||
		st.Submitted != sum.submitted || st.Shed != sum.shed || st.Infeasible != sum.infeasible {
		t.Fatalf("offered %d, counted %+v; the ledger reads %+v", offered, sum, st.Ledger)
	}
	if sum.resolved != sum.submitted || st.Completed != st.Submitted {
		t.Fatalf("%d of %d accepted futures resolved; the ledger reads %+v", sum.resolved, sum.submitted, st.Ledger)
	}
	if sum.infeasible == 0 {
		t.Fatal("no request was refused as infeasible: the identity's third term went untested")
	}
}

// The flow's last touch of a request is finish: the Wait that reads the
// completion recycles the carrier at once, so any read of a request
// after its finish — deliver's latency pass over the batch, say — races
// the next request's Submit. Run under the race detector, batches of
// several requests make that race visible; without it this is a smoke
// run of the same traffic.
func TestFlowLeavesCarrierAtFinish(t *testing.T) {
	const clients, rounds, burst = 4, 200, 16
	p := NewPipeline(testScheduler(t), PipelineConfig{ProbeInterval: -1})
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	in := simpleSamples(1)
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			futs := make([]*Future, burst)
			for round := 0; round < rounds; round++ {
				for j := range futs {
					fut, err := p.Submit(ctx, PipelineRequest{Model: "simple", Policy: BestThroughput, Input: in, Deadline: -1})
					if err != nil {
						errs <- err
						return
					}
					futs[j] = fut
				}
				for _, fut := range futs {
					c, err := fut.Wait(ctx)
					if err == nil {
						err = c.Err
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Batches >= st.Submitted {
		t.Fatalf("%d batches for %d requests: no batch held several carriers", st.Batches, st.Submitted)
	}
}
