package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// The input-ownership rule (PipelineRequest.Input): the pipeline reads a
// request's input until its future resolves, or until Submit refuses
// it, and never after. These tests hand the input back the way a server
// recycling its decode buffers does — every caller overwrites its input
// the moment Wait returns — so that under -race (`make race`) a read
// after the future resolved is reported.

// overwriting is a set of concurrent callers, one per request, each
// with its own input.
type overwriting struct {
	submitted sync.WaitGroup // a caller is done once Submit has returned
	done      sync.WaitGroup // and once it has overwritten its input
	comps     []Completion
	errs      []error // Submit's refusal, or Wait's error
}

// overwriteOnReturn starts the callers: each submits its request, waits,
// and — the moment Wait returns a completion or Submit refuses — writes
// every value of its input.
func overwriteOnReturn(ctx context.Context, p *Pipeline, reqs []PipelineRequest) *overwriting {
	o := &overwriting{comps: make([]Completion, len(reqs)), errs: make([]error, len(reqs))}
	o.submitted.Add(len(reqs))
	o.done.Add(len(reqs))
	for i, req := range reqs {
		go func() {
			defer o.done.Done()
			fut, err := p.Submit(ctx, req)
			o.submitted.Done()
			if err == nil {
				o.comps[i], err = fut.Wait(ctx)
			}
			o.errs[i] = err
			data := req.Input.Data()
			for k := range data {
				data[k] = -1
			}
		}()
	}
	return o
}

// realRequests is n requests for simple, 1 to 3 samples each, every one
// with its own input.
func realRequests(n int, deadline func(i int) time.Duration) []PipelineRequest {
	reqs := make([]PipelineRequest, n)
	for i := range reqs {
		reqs[i] = PipelineRequest{Model: "simple", Policy: BestThroughput, Input: simpleSamples(1 + i%3), Deadline: deadline(i)}
	}
	return reqs
}

// TestInputIsTheCallersOnceWaitReturns: a completion. Concurrent callers
// aggregate into stacked batches, and each overwrites its input while
// the rest of its batch may still be delivering.
func TestInputIsTheCallersOnceWaitReturns(t *testing.T) {
	p := NewPipeline(testScheduler(t), PipelineConfig{MaxBatch: 16, Window: time.Millisecond, ProbeInterval: -1})
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for round := 0; round < 4; round++ {
		o := overwriteOnReturn(ctx, p, realRequests(48, func(int) time.Duration { return -1 }))
		o.done.Wait()
		for i, err := range o.errs {
			if err != nil || o.comps[i].Err != nil {
				t.Fatalf("round %d request %d: %v / %v", round, i, err, o.comps[i].Err)
			}
		}
	}
	if st := p.Stats(); st.Batches >= st.Completed {
		t.Errorf("%d batches for %d requests: no batch stacked two inputs", st.Batches, st.Completed)
	}
}

// TestInputIsTheCallersOnceCulled: a deadline cull. Requests with a
// 10 ms SLO share an aggregate with SLO-free ones while a held worker
// keeps the system busy; the clock passes their deadline, the flush
// culls them, and their callers overwrite while the survivors of the
// same aggregate are stacked and executed.
func TestInputIsTheCallersOnceCulled(t *testing.T) {
	clk := NewManualClock()
	p := NewPipeline(testScheduler(t), PipelineConfig{MaxBatch: 64, ProbeInterval: -1, Clock: clk})
	defer p.Close()
	release := make(chan struct{})
	p.testExecHook = func(string) { <-release }
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	blocker := overwriteOnReturn(ctx, p, realRequests(1, func(int) time.Duration { return -1 }))
	blocker.submitted.Wait()
	o := overwriteOnReturn(ctx, p, realRequests(32, func(i int) time.Duration {
		if i%2 == 0 {
			return 10 * time.Millisecond
		}
		return -1
	}))
	o.submitted.Wait()
	clk.Advance(50 * time.Millisecond) // every 10 ms SLO has passed: the window flush culls them
	close(release)
	blocker.done.Wait()
	o.done.Wait()
	for i, err := range o.errs {
		switch c := o.comps[i]; {
		case err != nil:
			t.Fatalf("request %d: %v", i, err)
		case i%2 == 0 && !errors.Is(c.Err, ErrDeadlineExceeded):
			t.Fatalf("request %d resolved with %v, want ErrDeadlineExceeded", i, c.Err)
		case i%2 == 1 && c.Err != nil:
			t.Fatalf("SLO-free request %d failed: %v", i, c.Err)
		}
	}
	if st := p.Stats(); st.Expired != 16 {
		t.Fatalf("Expired = %d, want 16", st.Expired)
	}
}

// TestInputIsTheCallersOnceFailedOver: a fail-over. The device that
// serves the workload fails every execution, so batches are read once
// on it and again on the next device before they resolve.
func TestInputIsTheCallersOnceFailedOver(t *testing.T) {
	s := smallScheduler(t, Config{})
	p := NewPipeline(s, PipelineConfig{MaxBatch: 1, ProbeInterval: -1})
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	warmup, err := p.Do(ctx, PipelineRequest{Model: "simple", Policy: BestThroughput, Input: simpleSamples(1), Deadline: -1})
	if err != nil || warmup.Err != nil {
		t.Fatalf("warmup: %v / %v", err, warmup.Err)
	}
	armFaults(s, 1, failing(warmup.Decision.Device, 1))

	reqs := make([]PipelineRequest, 24)
	for i := range reqs {
		// The warm-up's shape: the failing device is picked first.
		reqs[i] = PipelineRequest{Model: "simple", Policy: BestThroughput, Input: simpleSamples(1), Deadline: -1}
	}
	o := overwriteOnReturn(ctx, p, reqs)
	o.done.Wait()
	for i, err := range o.errs {
		if err != nil || o.comps[i].Err != nil {
			t.Fatalf("request %d: %v / %v", i, err, o.comps[i].Err)
		}
	}
	if st := p.Stats(); st.Failovers == 0 {
		t.Fatalf("no batch failed over: %+v", st)
	}
}
