package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The pool-safety invariant under test: a request's carrier is recycled
// only by the Wait that read its completion, after detaching it from the
// handle — so a carrier is never reissued while a waiter can still read
// it, and a stale handle never sees the carrier's next request. An
// abandoned wait (context cancelled while the request is still in
// flight) keeps the carrier with its handle, because a resolution may
// still be racing toward it.

func TestAbandonedWaitPinsFutureOutOfPool(t *testing.T) {
	s := testScheduler(t)
	// HoldWindow + huge window: the request sits in an open aggregate,
	// guaranteed unresolved while we abandon the wait.
	p := NewPipeline(s, PipelineConfig{Window: time.Hour, MaxBatch: 1 << 20, HoldWindow: true})

	ctx, cancel := context.WithCancel(context.Background())
	fut, err := p.Submit(ctx, PipelineRequest{Model: "simple", Policy: BestThroughput, Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	carrier := fut.r
	cancel()
	if _, werr := fut.Wait(ctx); !errors.Is(werr, context.Canceled) {
		t.Fatalf("abandoned Wait returned %v, want context.Canceled", werr)
	}
	if fut.r != carrier {
		t.Fatal("abandoned Wait detached the carrier: it could be pooled with a resolution still in flight")
	}

	// Close drains the pipeline: the cancelled request is culled and its
	// carrier receives the completion. The abandoned handle still delivers
	// it to a later Wait — delivery is never lost to an abandoned wait —
	// and that Wait is the one that recycles.
	p.Close()
	c, werr := fut.Wait(context.Background())
	if werr != nil {
		t.Fatalf("post-close Wait: %v", werr)
	}
	if !errors.Is(c.Err, context.Canceled) {
		t.Fatalf("culled request resolved with %v, want context.Canceled", c.Err)
	}
	if fut.r != nil {
		t.Fatal("the Wait that received the completion kept the carrier")
	}
}

func TestConsumedFutureRecycles(t *testing.T) {
	s := testScheduler(t)
	p := NewPipeline(s, PipelineConfig{})
	defer p.Close()

	fut, err := p.Submit(context.Background(), PipelineRequest{Model: "simple", Policy: BestThroughput, Input: simpleSamples(1)})
	if err != nil {
		t.Fatal(err)
	}
	carrier := fut.r
	c, err := fut.Wait(context.Background())
	if err != nil || c.Err != nil || len(c.Classes) != 1 {
		t.Fatalf("Wait: %v / %v, classes %v", err, c.Err, c.Classes)
	}
	// The consumer detached the carrier before recycling it, and left it
	// empty: its next request starts from a clean state, and this handle
	// can never reach it again.
	if fut.r != nil {
		t.Fatal("consumed future still references its carrier")
	}
	if st, n := carrier.state.Load(), len(carrier.wake); st != carrierEmpty || n != 0 {
		t.Fatalf("recycled carrier in state %d with %d wake tokens, want empty and 0", st, n)
	}
	if carrier.c.Classes != nil || carrier.req.Input != nil {
		t.Fatal("recycled carrier still pins its completion or input")
	}
}

// TestFutureContract pins the handle's rules: a future delivers once, to
// one waiter; the rest learn at once that it is claimed.
func TestFutureContract(t *testing.T) {
	// waitOrHang fails the test if a Wait that must not block does.
	waitOrHang := func(t *testing.T, f *Future) (Completion, error) {
		t.Helper()
		type result struct {
			c   Completion
			err error
		}
		done := make(chan result, 1)
		go func() {
			c, err := f.Wait(context.Background())
			done <- result{c, err}
		}()
		select {
		case r := <-done:
			return r.c, r.err
		case <-time.After(10 * time.Second):
			t.Fatal("Wait blocked")
			return Completion{}, nil
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"second Wait is claimed", func(t *testing.T) {
			r := reqPool.get()
			f := &Future{r: r}
			r.resolve(&Completion{BatchSize: 3})
			if c, err := f.Wait(context.Background()); err != nil || c.BatchSize != 3 {
				t.Fatalf("first Wait = %+v, %v", c, err)
			}
			if _, err := waitOrHang(t, f); !errors.Is(err, ErrFutureClaimed) {
				t.Fatalf("second Wait = %v, want ErrFutureClaimed", err)
			}
		}},
		{"concurrent Waits: one completion, one claimed", func(t *testing.T) {
			r := reqPool.get()
			f := &Future{r: r}
			type result struct {
				c   Completion
				err error
			}
			out := make(chan result, 2)
			for i := 0; i < 2; i++ {
				go func() {
					c, err := f.Wait(context.Background())
					out <- result{c, err}
				}()
			}
			r.resolve(&Completion{BatchSize: 7})
			got, claimed := 0, 0
			for i := 0; i < 2; i++ {
				switch r := <-out; {
				case r.err == nil && r.c.BatchSize == 7:
					got++
				case errors.Is(r.err, ErrFutureClaimed):
					claimed++
				default:
					t.Fatalf("unexpected Wait result %+v, %v", r.c, r.err)
				}
			}
			if got != 1 || claimed != 1 {
				t.Fatalf("%d completions and %d claimed, want 1 and 1", got, claimed)
			}
		}},
		{"cancelled Wait, then a fresh Wait delivers", func(t *testing.T) {
			r := reqPool.get()
			f := &Future{r: r}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := f.Wait(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled Wait = %v, want context.Canceled", err)
			}
			if f.r != r {
				t.Fatal("cancelled Wait gave up the carrier")
			}
			r.resolve(&Completion{BatchSize: 5})
			if c, err := waitOrHang(t, f); err != nil || c.BatchSize != 5 {
				t.Fatalf("fresh Wait = %+v, %v", c, err)
			}
		}},
		{"detached future resolves once", func(t *testing.T) {
			f := NewDetachedFuture()
			if !f.Resolve(Completion{BatchSize: 1}) || f.Resolve(Completion{BatchSize: 2}) {
				t.Fatal("Resolve did not win exactly once")
			}
			if c, err := f.Wait(context.Background()); err != nil || c.BatchSize != 1 {
				t.Fatalf("Wait = %+v, %v", c, err)
			}
			if _, err := waitOrHang(t, f); !errors.Is(err, ErrFutureClaimed) {
				t.Fatalf("second Wait = %v, want ErrFutureClaimed", err)
			}
		}},
		{"unissued slots return to the pool", func(t *testing.T) {
			if raceEnabled {
				t.Skip("sync.Pool drops Puts at random under -race")
			}
			// A held worker backs the pipeline up until admission sheds
			// for good; from then on every Submit sheds, and a closed
			// pipeline refuses outright. Neither may allocate a handle,
			// and a shed Submit must hand its carrier back: a lost carrier
			// shows as the pool's New (a carrier and its channel) on every
			// call.
			s := smallScheduler(t, Config{MaxQueueDelay: -1})
			p := NewPipeline(s, PipelineConfig{MaxBatch: 1, QueueDepth: 2, DeviceQueueDepth: 1, ProbeInterval: -1})
			ctx := context.Background()
			req := PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 8}
			futs, release := holdAndFill(t, p, req)
			submit := func(want error) float64 {
				return testing.AllocsPerRun(100, func() {
					if fut, err := p.Submit(ctx, req); !errors.Is(err, want) || fut != nil {
						t.Fatalf("Submit = %v, %v; want nil, %v", fut, err, want)
					}
				})
			}
			if n := submit(ErrAdmissionFull); n != 0 {
				t.Errorf("a shed Submit allocates %.1f objects, want 0", n)
			}
			release()
			p.Close()
			if n := submit(ErrPipelineClosed); n != 0 {
				t.Errorf("a Submit to a closed pipeline allocates %.1f objects, want 0", n)
			}
			for i, fut := range futs {
				if c, err := fut.Wait(ctx); err != nil || c.Err != nil {
					t.Fatalf("accepted request %d: %v / %v", i, err, c.Err)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// holdAndFill holds p's device workers on their first batch and submits
// req until admission is full for good. It returns the admitted futures
// and the func that lets the workers go, which must run before Close.
// p must batch one request at a time (MaxBatch 1) over a scheduler that
// does not spill, so that every batch queues on one device.
//
// Full is a state, not a sample: the worker holds one batch, its queue
// DeviceQueueDepth more, and the batching loop is stuck sending one more
// — InFlight counts all of them, and a loop that cannot send never drains
// admission again. A shed seen only after that is admission full for
// good; one seen before may be a request the loop was still moving.
func holdAndFill(t *testing.T, p *Pipeline, req PipelineRequest) ([]*Future, func()) {
	t.Helper()
	release, held := make(chan struct{}), make(chan struct{})
	var hold, free sync.Once
	p.testExecHook = func(string) {
		hold.Do(func() { close(held) })
		<-release
	}
	let := func() { free.Do(func() { close(release) }) }
	fatalf := func(format string, args ...any) {
		let() // a held worker would wedge the caller's Close
		t.Fatalf(format, args...)
	}
	ctx := context.Background()
	fut, err := p.Submit(ctx, req)
	if err != nil {
		fatalf("first submit: %v", err)
	}
	futs := []*Future{fut}
	<-held
	stuck := int64(p.cfg.DeviceQueueDepth + 2)
	for deadline := time.Now().Add(10 * time.Second); ; {
		full := p.Stats().InFlight == stuck
		fut, err := p.Submit(ctx, req)
		if errors.Is(err, ErrAdmissionFull) && full {
			return futs, let
		}
		if err == nil {
			futs = append(futs, fut)
		} else if !errors.Is(err, ErrAdmissionFull) {
			fatalf("submit %d = %v", len(futs), err)
		}
		if time.Now().After(deadline) {
			fatalf("admission never filled for good: %d admitted, %+v", len(futs), p.Stats().Ledger)
		}
		runtime.Gosched()
	}
}

// peek returns f's completion without waiting, and whether it has
// resolved. It takes no token, so a later Wait still receives it.
func peek(f *Future) (Completion, bool) {
	r := f.r
	if st := r.state.Load(); st == carrierResolved || st == carrierWoken {
		return r.c, true
	}
	return Completion{}, false
}
