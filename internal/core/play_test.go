package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"bomw/internal/trace"
)

// recordingTarget is a Submitter that resolves every request at once and
// records what it was offered, and when.
type recordingTarget struct {
	mu       sync.Mutex
	reqs     []PipelineRequest
	at       []time.Time
	onSubmit func(n int) // called with the number of submits so far
}

func (r *recordingTarget) Submit(_ context.Context, req PipelineRequest) (*Future, error) {
	r.mu.Lock()
	r.reqs = append(r.reqs, req)
	r.at = append(r.at, time.Now())
	n := len(r.reqs)
	r.mu.Unlock()
	if r.onSubmit != nil {
		r.onSubmit(n)
	}
	fut := NewDetachedFuture()
	fut.Resolve(Completion{Latency: time.Millisecond, Completed: time.Millisecond})
	return fut, nil
}

func TestPlayKeepsArrivalOrder(t *testing.T) {
	tr, err := trace.Poisson(40, 200, []string{"a", "b"}, []int{1, 8}, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	target := &recordingTarget{}
	res, err := Play(ctx, target, tr, LowestLatency, -1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != len(tr) || len(target.reqs) != len(tr) {
		t.Fatalf("recorded %d and submitted %d of %d requests", res.Requests, len(target.reqs), len(tr))
	}
	for i, req := range target.reqs {
		want := PipelineRequest{Model: tr[i].Model, Policy: LowestLatency, Batch: tr[i].Batch, Deadline: -1}
		if req != want {
			t.Fatalf("request %d submitted as %+v, want %+v (order must be preserved)", i, req, want)
		}
	}
}

func TestPlayKeepsSpacingAtSpeedup(t *testing.T) {
	// Two requests 100 ms apart at speedup 2 must not both be submitted
	// within the first ~50 ms.
	tr := trace.Trace{
		{At: 0, Model: "a", Batch: 1},
		{At: 100 * time.Millisecond, Model: "a", Batch: 1},
	}
	target := &recordingTarget{}
	start := time.Now()
	if _, err := Play(context.Background(), target, tr, BestThroughput, 0, 2); err != nil {
		t.Fatal(err)
	}
	if len(target.at) != 2 {
		t.Fatalf("submitted %d of 2 requests", len(target.at))
	}
	if gap := target.at[1].Sub(start); gap < 40*time.Millisecond {
		t.Fatalf("second arrival after %v, want ≥ ~50ms", gap)
	}
}

// Cancelling stops playback at once: the arrival due an hour later is
// never submitted, and Play returns the context's error after waiting
// out the futures it did submit.
func TestPlayStopsOnCancel(t *testing.T) {
	tr := trace.Trace{
		{At: 0, Model: "a", Batch: 1},
		{At: 0, Model: "a", Batch: 1},
		{At: time.Hour, Model: "a", Batch: 1},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	target := &recordingTarget{onSubmit: func(n int) {
		if n == 2 {
			cancel()
		}
	}}
	done := make(chan error, 1)
	go func() {
		_, err := Play(ctx, target, tr, BestThroughput, 0, 1)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Play after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Play kept waiting for an arrival after cancellation")
	}
	if len(target.reqs) != 2 {
		t.Fatalf("submitted %d requests, want the 2 due before the cancel", len(target.reqs))
	}
}
