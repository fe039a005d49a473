package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"bomw/internal/core"
	"bomw/internal/tensor"
)

// TestPooledFutureReuseRace hammers the served path — Cluster.Submit and
// the public Wait, as the HTTP handler and the benchmark drive it — with
// concurrent completions, mid-flight cancellations and stale handles.
// Run under -race this is the regression test for the carrier-reuse
// invariant: a request's carrier recycled while a stale waiter or stage
// still touches it shows up as a data race, and a stale completion
// leaking into a recycled carrier shows up as a BatchSize mismatch — each
// goroutine submits a unique batch size with MaxBatch 1, so every
// request is its own batch and must come back with exactly its own size.
// Spent handles go to one more goroutine that Waits each of them twice
// while their carriers serve other requests: both Waits must find the
// future claimed, never another request's completion.
func TestPooledFutureReuseRace(t *testing.T) {
	c := realCluster(t, 2, Config{}, core.PipelineConfig{MaxBatch: 1, QueueDepth: 4096})
	defer c.Close()

	const goroutines = 8
	const iters = 150
	var wg sync.WaitGroup
	errs := make(chan error, goroutines+1)
	spent := make(chan *core.Future, 64) // slack, so clients seldom wait on the one stale-waiter
	stale := make(chan struct{})
	go func() {
		defer close(stale)
		var staleErr error
		for fut := range spent { // drained to the end, so no client blocks on a failure
			for i := 0; i < 2 && staleErr == nil; i++ {
				if _, err := fut.Wait(context.Background()); !errors.Is(err, core.ErrFutureClaimed) {
					staleErr = fmt.Errorf("Wait %d on a spent handle = %v, want ErrFutureClaimed", i+1, err)
				}
			}
		}
		if staleErr != nil {
			errs <- staleErr
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		size := g + 1 // per-goroutine tag, echoed back as BatchSize
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ctx := context.Background()
				var cancel context.CancelFunc
				if i%3 == 0 {
					// A third of the waits race a cancellation against the
					// completion — the abandoned-wait path under load.
					ctx, cancel = context.WithTimeout(ctx, 50*time.Microsecond)
				}
				fut, err := c.Submit(ctx, core.PipelineRequest{Model: "mnist-small", Policy: core.BestThroughput, Batch: size})
				comp := core.Completion{}
				if err == nil {
					comp, err = fut.Wait(ctx)
					if errors.Is(err, context.DeadlineExceeded) {
						// The abandoned handle kept its carrier: a fresh Wait
						// still receives this request's own completion.
						comp, err = fut.Wait(context.Background())
					}
				}
				if cancel != nil {
					cancel()
				}
				if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, core.ErrAdmissionFull) {
					continue // refused at Submit
				}
				if err != nil {
					errs <- err
					return
				}
				spent <- fut
				if comp.Err != nil {
					if errors.Is(comp.Err, context.DeadlineExceeded) || errors.Is(comp.Err, context.Canceled) {
						continue
					}
					errs <- comp.Err
					return
				}
				if comp.BatchSize != size {
					errs <- fmt.Errorf("stale completion: submitted batch %d, received BatchSize %d — a recycled carrier delivered another request's result", size, comp.BatchSize)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(spent)
	<-stale
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// oneSample is a one-sample input for the simple model.
func oneSample(i int) *tensor.Tensor {
	return tensor.FromSlice([]float32{5.1, 3.5, 1.4, float32(i%3) * 0.2}, 1, 4)
}

// TestServedBurstAllocations is the served path's allocation budget: a
// burst of 64 one-sample requests through a 1-node fleet's Submit and
// Wait — lib_simple_burst's loop — allocates each request its 24-byte
// Future handle and little else. The pipeline carriers, which also
// hold the completions, are pooled, the router ranks on its stack, and
// the labels are sliced out of the batch's. The parent of this gate allocated ≈ 456 objects per burst.
// A deadline request takes the same path under the same budget: the
// router copies no request's input.
func TestServedBurstAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	for _, deadline := range []time.Duration{-1, 50 * time.Millisecond} {
		t.Run(fmt.Sprintf("deadline=%v", deadline), func(t *testing.T) {
			servedBurstAllocations(t, deadline)
		})
	}
}

func servedBurstAllocations(t *testing.T, deadline time.Duration) {
	// A replica of the shared template: fresh devices, so no virtual time
	// another test booked on the template's stands in a deadline's way.
	rep, err := templateScheduler(t).Replica(1)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := Build(rep, 1, 1, core.PipelineConfig{ProbeInterval: -1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	var inputs [64]*tensor.Tensor
	for i := range inputs {
		inputs[i] = oneSample(i)
	}
	var futs [64]*core.Future
	burst := func() {
		for i := range futs {
			fut, err := c.Submit(ctx, core.PipelineRequest{Model: "simple", Input: inputs[i], Deadline: deadline})
			if err != nil {
				t.Fatal(err)
			}
			futs[i] = fut
		}
		for i, fut := range futs {
			if comp, err := fut.Wait(ctx); err != nil || comp.Err != nil || len(comp.Classes) != 1 {
				t.Fatalf("request %d: %v / %v, classes %v", i, err, comp.Err, comp.Classes)
			}
		}
	}
	for i := 0; i < 8; i++ {
		burst() // warm the pools, the decision cache and the batching loop's timer
	}
	n := testing.AllocsPerRun(20, burst)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as AllocsPerRun counts
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 20; i++ {
		burst()
	}
	runtime.ReadMemStats(&after)
	t.Logf("a burst of 64 allocates %.0f objects, %d B", n, (after.TotalAlloc-before.TotalAlloc)/20)
	if n > 96 {
		t.Fatalf("a burst of 64 allocates %.0f objects, want ≤ 96", n)
	}
}

// TestRouteAllocatesNothing: every policy ranks the fleet into the
// router's stack array without allocating.
func TestRouteAllocatesNothing(t *testing.T) {
	for _, p := range policies {
		c, _ := fakeRanker(t, p, 3, 0, 2, 0)
		var order [maxAttempts]int
		got := 0
		n := testing.AllocsPerRun(100, func() {
			got = c.rank("simple", &order)
		})
		if n != 0 || got != maxAttempts {
			t.Errorf("%s: rank allocates %.1f objects and ranks %v", p, n, order[:got])
		}
	}
}
