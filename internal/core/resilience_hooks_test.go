package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestDetachedFutureResolveExactlyOnce covers the test fakes' future:
// the first Resolve wins, every later one is discarded, and the waiter
// observes exactly the winner.
func TestDetachedFutureResolveExactlyOnce(t *testing.T) {
	f := NewDetachedFuture()
	if !f.Resolve(Completion{BatchSize: 1}) {
		t.Fatal("first Resolve lost")
	}
	if f.Resolve(Completion{BatchSize: 2}) {
		t.Fatal("second Resolve won")
	}
	c, err := f.Wait(context.Background())
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if c.BatchSize != 1 {
		t.Fatalf("waiter observed the losing completion: %+v", c)
	}
}

// TestDetachedFutureRacingResolvers hammers one detached future from
// many goroutines: exactly one wins, and the winner's payload is what
// the waiter sees. Run under -race this is the arbitration's memory
// safety proof.
func TestDetachedFutureRacingResolvers(t *testing.T) {
	const racers = 16
	f := NewDetachedFuture()
	wins := make(chan int, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if f.Resolve(Completion{BatchSize: id + 1}) {
				wins <- id + 1
			}
		}(i)
	}
	wg.Wait()
	close(wins)
	var winners []int
	for w := range wins {
		winners = append(winners, w)
	}
	if len(winners) != 1 {
		t.Fatalf("%d resolvers won, want exactly 1", len(winners))
	}
	c, err := f.Wait(context.Background())
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if c.BatchSize != winners[0] {
		t.Fatalf("waiter saw %d, winner was %d", c.BatchSize, winners[0])
	}
	// Wait leaves the resolution state alone: a late resolver still loses.
	if !f.detached || f.Resolve(Completion{}) {
		t.Fatalf("detached future mutated by Wait: detached=%v", f.detached)
	}
}

// TestResolveOnPipelineFuturePanics pins the misuse guard: Resolve is
// not an alternate delivery channel for pipeline-owned futures.
func TestResolveOnPipelineFuturePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Resolve on a pooled pipeline future did not panic")
		}
	}()
	f := &Future{r: reqPool.get()} // what Submit issues
	f.Resolve(Completion{})
}

// TestAvgLatencyTracksDeliveries checks the latency reading: zero
// before any delivery, positive and bounded by the observed worst
// completion latency after traffic.
func TestAvgLatencyTracksDeliveries(t *testing.T) {
	s := testScheduler(t)
	n := NewNode("node0", s, PipelineConfig{ProbeInterval: -1})
	defer n.Close()
	if got := n.AvgLatency(); got != 0 {
		t.Fatalf("AvgLatency before traffic = %v, want 0", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var worst time.Duration
	for i := 0; i < 8; i++ {
		c, err := n.Do(ctx, PipelineRequest{Model: "simple", Policy: LowestLatency, Batch: 4})
		if err != nil || c.Err != nil {
			t.Fatalf("Do %d: %v / %v", i, err, c.Err)
		}
		if c.Latency > worst {
			worst = c.Latency
		}
	}
	got := n.AvgLatency()
	if got <= 0 {
		t.Fatalf("AvgLatency after %v-worst traffic = %v, want positive", worst, got)
	}
	if got > 4*worst {
		t.Fatalf("AvgLatency %v implausibly above worst observed %v", got, worst)
	}
}

// TestNodeKillDuringDrainRace is the satellite-2 regression test: Kill
// landing on an already-draining node must serialise with the drain —
// both return, the killed label wins, no future is lost, and under
// -race the lifecycle transition is clean.
func TestNodeKillDuringDrainRace(t *testing.T) {
	for round := 0; round < 10; round++ {
		s := testScheduler(t)
		n := NewNode("node0", s, PipelineConfig{ProbeInterval: -1, Window: 100 * time.Microsecond})
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)

		// Keep traffic in flight so the drain has a tail to resolve.
		var futs []*Future
		for i := 0; i < 16; i++ {
			fut, err := n.Submit(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 2})
			if err != nil {
				break
			}
			futs = append(futs, fut)
		}

		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); <-start; n.Drain() }()
		go func() { defer wg.Done(); <-start; n.Kill() }()
		close(start)
		wg.Wait()

		// Whichever interleaving won, the node is terminal and refuses work.
		if st := n.State(); st != NodeKilled && st != NodeDrained {
			t.Fatalf("round %d: state after drain/kill race = %v", round, st)
		}
		if _, err := n.Submit(context.Background(), PipelineRequest{Model: "simple", Batch: 1}); !errors.Is(err, ErrNodeDown) {
			t.Fatalf("round %d: Submit after race = %v, want ErrNodeDown", round, err)
		}
		// Every accepted future still resolves (exactly-once survives the race).
		for i, fut := range futs {
			if _, err := fut.Wait(ctx); err != nil {
				t.Fatalf("round %d: future %d abandoned: %v", round, i, err)
			}
		}
		cancel()
	}
}
