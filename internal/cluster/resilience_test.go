package cluster

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bomw/internal/core"
	"bomw/internal/fault"
)

// serveCluster builds a fleet of serving fakes (instant completions by
// default) under the least-loaded policy, loads ordered by index so the
// routing order is deterministic: node0 first, node1 second, ...
func serveCluster(t *testing.T, n int, cfg Config) (*Cluster, []*fakeNode) {
	t.Helper()
	fakes := make([]*fakeNode, n)
	nodes := make([]Node, n)
	for i := 0; i < n; i++ {
		fakes[i] = newFakeNode("node"+string(rune('0'+i)), int64(i))
		fakes[i].setServe(0, time.Millisecond, nil)
		nodes[i] = fakes[i]
	}
	if cfg.Policy == nil {
		pol, err := PolicyByName("least-loaded", 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Policy = pol
	}
	c, err := New(nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, fakes
}

// TestMassEvictionReturnsErrNoHealthyNodes is the satellite regression:
// with every node out of the routing set, Submit fails with the typed
// sentinel (under both its new and pre-PR-9 names) and the server-facing
// retry hint is a sane positive floor.
func TestMassEvictionReturnsErrNoHealthyNodes(t *testing.T) {
	c, _ := serveCluster(t, 3, Config{})
	defer c.Close()
	for _, name := range c.NodeNames() {
		if err := c.Evict(name); err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.Submit(context.Background(), core.PipelineRequest{Model: "simple", Batch: 1})
	if !errors.Is(err, ErrNoHealthyNodes) {
		t.Fatalf("Submit = %v, want ErrNoHealthyNodes", err)
	}
	if hint := c.ReadmissionHint(); hint <= 0 {
		t.Fatalf("ReadmissionHint = %v, want > 0", hint)
	}
}

// TestChaosWindowBlocksRoutingAndHintsRecovery: a fleet whose only node
// is inside a scripted crash window refuses with ErrNoHealthyNodes and
// derives the retry hint from the window's remaining span.
func TestChaosWindowBlocksRoutingAndHintsRecovery(t *testing.T) {
	faults := fault.NewInjector(fault.Plan{Faults: []fault.Fault{
		{Node: "node0", End: 2 * time.Second, Effect: fault.Down},
	}})
	clk := core.NewManualClock()
	clk.Advance(500 * time.Millisecond)
	c, _ := serveCluster(t, 1, Config{Faults: faults, Clock: clk})
	defer c.Close()
	_, err := c.Submit(context.Background(), core.PipelineRequest{Model: "simple", Batch: 1})
	if !errors.Is(err, ErrNoHealthyNodes) {
		t.Fatalf("Submit inside crash window = %v, want ErrNoHealthyNodes", err)
	}
	if hint := c.ReadmissionHint(); hint != 1500*time.Millisecond {
		t.Fatalf("ReadmissionHint = %v, want 1.5s (window remainder)", hint)
	}
	c.Sweep()
	st := c.Stats()
	if st.ChaosTrips != 1 || !st.PerNode[0].ChaosDown {
		t.Fatalf("sweep did not mark the chaos window: %+v", st.PerNode[0])
	}
}

// TestClusterHedgePredictive: the primary's own completion estimate eats
// more than half the slack, so the hedge launches immediately and its
// result wins while the stuck primary is cancelled as a benign loser.
func TestClusterHedgePredictive(t *testing.T) {
	c, fakes := serveCluster(t, 2, Config{NodeHedge: true})
	fakes[0].predict = 40 * time.Millisecond            // > deadline/2: predictive trigger
	fakes[0].setServe(time.Hour, time.Millisecond, nil) // and genuinely stuck
	fakes[1].predict = time.Millisecond
	fut, err := c.Submit(context.Background(), core.PipelineRequest{
		Model: "simple", Batch: 1, Deadline: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := fut.Wait(context.Background())
	if err != nil || comp.Err != nil {
		t.Fatalf("hedged request failed: %v / %v", err, comp.Err)
	}
	c.Close() // settles the loser's relay before reading counters
	st := c.Stats()
	if st.NodeHedges != 1 || st.NodeHedgesWon != 1 {
		t.Fatalf("NodeHedges=%d Won=%d, want 1 and 1", st.NodeHedges, st.NodeHedgesWon)
	}
	if st.BenignCancels != 1 {
		t.Fatalf("BenignCancels = %d, want 1 (the cancelled primary)", st.BenignCancels)
	}
	if got := fakes[1].acceptCount(); got != 1 {
		t.Fatalf("hedge target accepted %d, want 1", got)
	}
}

// TestClusterHedgeReactive: the primary predicts comfortably but stalls,
// so the half-slack timer fires the backup — at Deadline/2 on the fleet
// clock, which the test steps, and not one nanosecond before.
func TestClusterHedgeReactive(t *testing.T) {
	const deadline = 60 * time.Millisecond
	clk := core.NewManualClock()
	c, fakes := serveCluster(t, 2, Config{NodeHedge: true, Clock: clk})
	fakes[0].predict = time.Millisecond                 // prediction sees no danger
	fakes[0].setServe(time.Hour, time.Millisecond, nil) // reality disagrees: parked until cancelled
	fakes[1].predict = time.Millisecond
	fut, err := c.Submit(context.Background(), core.PipelineRequest{
		Model: "simple", Batch: 1, Deadline: deadline,
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(deadline/2 - 1)
	if st := c.Stats(); st.NodeHedges != 0 || fut.Resolved() {
		t.Fatalf("before half the slack: NodeHedges=%d resolved=%t, want 0 and false", st.NodeHedges, fut.Resolved())
	}
	clk.Advance(1) // the trigger runs on this goroutine: the backup is launched when Advance returns
	if st := c.Stats(); st.NodeHedges != 1 {
		t.Fatalf("at half the slack: NodeHedges=%d, want 1", st.NodeHedges)
	}
	comp, err := fut.Wait(context.Background())
	if err != nil || comp.Err != nil {
		t.Fatalf("reactively hedged request failed: %v / %v", err, comp.Err)
	}
	c.Close() // settles the cancelled primary's relay before reading counters
	st := c.Stats()
	if st.NodeHedges != 1 || st.NodeHedgesWon != 1 || st.BenignCancels != 1 {
		t.Fatalf("NodeHedges=%d Won=%d BenignCancels=%d, want 1 each", st.NodeHedges, st.NodeHedgesWon, st.BenignCancels)
	}
	if got := fakes[1].acceptCount(); got != 1 {
		t.Fatalf("hedge target accepted %d, want 1", got)
	}
}

// TestClusterHedgeNoTarget: a single-node fleet has nothing to hedge
// onto — the trigger fires, finds no untried node, and the request still
// completes on the primary with no counters moved.
func TestClusterHedgeNoTarget(t *testing.T) {
	c, fakes := serveCluster(t, 1, Config{NodeHedge: true})
	fakes[0].predict = 40 * time.Millisecond
	fut, err := c.Submit(context.Background(), core.PipelineRequest{
		Model: "simple", Batch: 1, Deadline: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if comp, err := fut.Wait(context.Background()); err != nil || comp.Err != nil {
		t.Fatalf("request failed: %v / %v", err, comp.Err)
	}
	c.Close()
	if st := c.Stats(); st.NodeHedges != 0 {
		t.Fatalf("NodeHedges = %d on a 1-node fleet", st.NodeHedges)
	}
}

// TestHedgeOutlivesFailedPrimary: the primary fails while the hedge is
// still racing — the error is held back and the hedge's success resolves
// the caller's future (first *successful* result wins).
func TestHedgeOutlivesFailedPrimary(t *testing.T) {
	c, fakes := serveCluster(t, 2, Config{NodeHedge: true})
	fakes[0].predict = 40 * time.Millisecond // predictive trigger
	fakes[0].setServe(0, time.Millisecond, core.ErrDeadlineExceeded)
	fakes[1].setServe(20*time.Millisecond, time.Millisecond, nil)
	fut, err := c.Submit(context.Background(), core.PipelineRequest{
		Model: "simple", Batch: 1, Deadline: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := fut.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if comp.Err != nil {
		t.Fatalf("failed primary stole the future from a winning hedge: %v", comp.Err)
	}
	c.Close()
	if st := c.Stats(); st.NodeHedgesWon != 1 {
		t.Fatalf("NodeHedgesWon = %d, want 1", st.NodeHedgesWon)
	}
}

// TestAllAttemptsFailSurfacesError: when every attempt fails, the last
// relay out must still resolve the caller's future with the error.
func TestAllAttemptsFailSurfacesError(t *testing.T) {
	c, fakes := serveCluster(t, 2, Config{NodeHedge: true})
	fakes[0].predict = 40 * time.Millisecond
	fakes[0].setServe(0, time.Millisecond, core.ErrDeadlineExceeded)
	fakes[1].setServe(5*time.Millisecond, time.Millisecond, core.ErrDeadlineExceeded)
	fut, err := c.Submit(context.Background(), core.PipelineRequest{
		Model: "simple", Batch: 1, Deadline: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	comp, err := fut.Wait(ctx)
	if err != nil {
		t.Fatalf("future never resolved: %v", err)
	}
	if !errors.Is(comp.Err, core.ErrDeadlineExceeded) {
		t.Fatalf("comp.Err = %v, want ErrDeadlineExceeded", comp.Err)
	}
	c.Close()
	if st := c.Stats(); st.NodeHedgesWon != 0 {
		t.Fatalf("NodeHedgesWon = %d for a failed hedge, want 0", st.NodeHedgesWon)
	}
}

// TestStragglerMigration: a deadline request queued behind a node that
// goes suspect is cancelled node-side, observed by its relay, and
// resubmitted on a healthy node — the caller's future resolves with the
// migrated completion and the loss is accounted benign.
func TestStragglerMigration(t *testing.T) {
	c, fakes := serveCluster(t, 2, Config{Straggler: true})
	fakes[0].setServe(time.Hour, time.Millisecond, nil) // queued forever until cancelled
	fut, err := c.Submit(context.Background(), core.PipelineRequest{
		Model: "simple", Batch: 1, Deadline: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.suspectMember(c.members[0], 30*time.Millisecond) // migrates pending work away
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	comp, err := fut.Wait(ctx)
	if err != nil || comp.Err != nil {
		t.Fatalf("migrated request failed: %v / %v", err, comp.Err)
	}
	c.Close()
	st := c.Stats()
	if st.Migrations != 1 {
		t.Fatalf("Migrations = %d, want 1", st.Migrations)
	}
	if st.BenignCancels != 1 {
		t.Fatalf("BenignCancels = %d, want 1", st.BenignCancels)
	}
	if got := fakes[1].acceptCount(); got != 1 {
		t.Fatalf("migration target accepted %d, want 1", got)
	}
}

// TestChaosTripMigration: a deadline request parked on a node when a
// submission-driven sweep finds that node inside a scripted crash
// window is cancelled node-side and resubmitted on the survivor — the
// sweep's chaos trip → migrateFrom path, on a clock the test steps.
func TestChaosTripMigration(t *testing.T) {
	clk := core.NewManualClock()
	c, fakes := serveCluster(t, 2, Config{
		Straggler:  true, // deadline requests take the arbitration path, which registers them for migration
		SweepEvery: 1,
		Clock:      clk,
		Faults: fault.NewInjector(fault.Plan{Faults: []fault.Fault{
			{Node: "node0", Start: time.Second, End: 2 * time.Second, Effect: fault.Down},
		}}),
	})
	fakes[0].setServe(time.Hour, time.Millisecond, nil) // parked until cancelled
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	parked, err := c.Submit(ctx, core.PipelineRequest{Model: "simple", Batch: 1, Deadline: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.ChaosTrips != 0 || fakes[0].acceptCount() != 1 {
		t.Fatalf("before the window: trips %d, node0 accepted %d; want 0 and 1", st.ChaosTrips, fakes[0].acceptCount())
	}
	clk.Advance(1500 * time.Millisecond) // inside node0's crash window
	// This submission's sweep is the one that crosses the window edge.
	driver, err := c.Submit(ctx, core.PipelineRequest{Model: "simple", Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, fut := range []*core.Future{parked, driver} {
		if comp, err := fut.Wait(ctx); err != nil || comp.Err != nil {
			t.Fatalf("request failed: %v / %v", err, comp.Err)
		}
	}
	c.Close()
	st := c.Stats()
	if st.ChaosTrips != 1 || st.Migrations != 1 || st.BenignCancels != 1 {
		t.Fatalf("trips %d, migrations %d, benign cancels %d; want 1 each", st.ChaosTrips, st.Migrations, st.BenignCancels)
	}
	if got := fakes[1].acceptCount(); got != 2 {
		t.Fatalf("survivor accepted %d, want 2 (the sweep's driver and the migrated request)", got)
	}
}

// TestMigrationNoTargetStillResolves: migration with nowhere to go must
// not strand the caller — the last relay out resolves the detached
// future with the cancellation it saw.
func TestMigrationNoTargetStillResolves(t *testing.T) {
	c, fakes := serveCluster(t, 1, Config{Straggler: true})
	fakes[0].setServe(time.Hour, time.Millisecond, nil)
	fut, err := c.Submit(context.Background(), core.PipelineRequest{
		Model: "simple", Batch: 1, Deadline: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.suspectMember(c.members[0], 30*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	comp, err := fut.Wait(ctx)
	if err != nil {
		t.Fatalf("future never resolved: %v", err)
	}
	if comp.Err == nil {
		t.Fatal("a migration with no target cannot have completed")
	}
	c.Close()
	if st := c.Stats(); st.Migrations != 0 {
		t.Fatalf("Migrations = %d, want 0 (no target)", st.Migrations)
	}
}

// TestClusterKillRacesDrain is the -race regression at the fleet tier:
// Kill and Drain land on the same node concurrently under live traffic,
// the node's own lifecycle gate orders them, and the fleet keeps every
// future it handed out.
func TestClusterKillRacesDrain(t *testing.T) {
	pol, _ := PolicyByName("least-loaded", 1)
	c := realCluster(t, 3, Config{Policy: pol, SweepEvery: 25}, core.PipelineConfig{
		Window: 200 * time.Microsecond, MaxBatch: 16,
	})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	var accepted, resolved int64
	var mu sync.Mutex
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 40; k++ {
				fut, err := c.Submit(ctx, core.PipelineRequest{Model: "simple", Policy: core.BestThroughput, Batch: 4})
				if err != nil {
					continue // refusals are fine mid-kill
				}
				mu.Lock()
				accepted++
				mu.Unlock()
				if _, err := fut.Wait(ctx); err == nil {
					mu.Lock()
					resolved++
					mu.Unlock()
				}
			}
		}()
	}
	var lifecycle sync.WaitGroup
	lifecycle.Add(2)
	go func() { defer lifecycle.Done(); _ = c.Drain("node1") }()
	go func() { defer lifecycle.Done(); _ = c.Kill("node1") }()
	done := make(chan struct{})
	go func() { lifecycle.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		t.Fatal("Kill racing Drain deadlocked")
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if accepted != resolved {
		t.Fatalf("accepted %d futures, resolved %d", accepted, resolved)
	}
	st := c.Stats()
	if st.Completed != st.Submitted {
		t.Fatalf("fleet lost futures across the race: %+v", st)
	}
}

// executingNode is a node whose one request is already executing: it
// reads the request's input over and over, whatever its context says,
// until stop is set, then completes with an hour's latency. It is the
// losing primary of a hedge race that has started on the device and
// cannot be culled.
type executingNode struct {
	*fakeNode
	stop  atomic.Bool
	reads atomic.Int64
}

func (n *executingNode) Submit(_ context.Context, req core.PipelineRequest) (*core.Future, error) {
	fut := core.NewDetachedFuture()
	go func() {
		for {
			var sum float32
			for _, v := range req.Input.Data() {
				sum += v
			}
			n.reads.Add(1)
			if n.stop.Load() {
				break
			}
		}
		fut.Resolve(core.Completion{Latency: time.Hour})
	}()
	return fut, nil
}

// TestHedgeLoserReadsItsOwnInput: a resilient submission's attempts read
// a copy of the input. The primary is executing when the hedge wins, so
// when the caller's Wait returns the loser is still reading; the caller
// then overwrites its input at once, as a server recycling its decode
// buffers does. Under -race, an attempt reading the caller's tensor
// itself is reported here. The loser's completion is discarded.
func TestHedgeLoserReadsItsOwnInput(t *testing.T) {
	fakes := []*fakeNode{newFakeNode("node0", 0), newFakeNode("node1", 1)}
	fakes[0].predict = 40 * time.Millisecond // > deadline/2: the hedge launches at once
	fakes[1].predict = time.Millisecond
	fakes[1].setServe(0, time.Millisecond, nil)
	primary := &executingNode{fakeNode: fakes[0]}
	pol, err := PolicyByName("least-loaded", 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New([]Node{primary, fakes[1]}, Config{NodeHedge: true, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	in := oneSample(0)
	fut, err := c.Submit(context.Background(), core.PipelineRequest{Model: "simple", Input: in, Deadline: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := fut.Wait(context.Background())
	if err != nil || comp.Err != nil {
		t.Fatalf("hedged request failed: %v / %v", err, comp.Err)
	}
	for i := range in.Data() {
		in.Data()[i] = -1
	}
	for after := primary.reads.Load(); primary.reads.Load() < after+2; {
		runtime.Gosched() // the loser reads on after the caller took its input back
	}
	primary.stop.Store(true)
	c.Close() // settles the loser's relay
	if comp.Latency != time.Millisecond {
		t.Fatalf("the caller got latency %v, want the hedge's 1ms: the loser's completion was not discarded", comp.Latency)
	}
	if st := c.Stats(); st.NodeHedges != 1 || st.NodeHedgesWon != 1 {
		t.Fatalf("NodeHedges=%d Won=%d, want 1 and 1", st.NodeHedges, st.NodeHedgesWon)
	}
}
