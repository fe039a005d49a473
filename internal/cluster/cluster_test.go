package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bomw/internal/core"
	"bomw/internal/fault"
	"bomw/internal/models"
	"bomw/internal/trace"
)

// ---- router behaviour over scripted fakes ------------------------------

func fakeFleet(t *testing.T, n int, cfg Config) (*Cluster, []*fakeNode) {
	t.Helper()
	fakes := make([]*fakeNode, n)
	nodes := make([]Node, n)
	for i := range fakes {
		fakes[i] = newFakeNode(fmt.Sprintf("node%d", i), 0)
		nodes[i] = fakes[i]
	}
	if cfg.Clock == nil {
		cfg.Clock = core.NewManualClock()
	}
	c, err := New(nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, fakes
}

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
	if cfg.Policy == "" {
		cfg.Policy = LeastLoaded
	}
	c, err := New(nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, fakes
}

func TestSubmitFailsOverPastSheddingNode(t *testing.T) {
	c, fakes := fakeFleet(t, 3, Config{})
	fakes[0].setErr(core.ErrAdmissionFull)
	// Round-robin offers node0 first; the router must land on node1.
	if _, err := c.Submit(context.Background(), core.PipelineRequest{Model: "simple", Batch: 4}); err != nil {
		t.Fatal(err)
	}
	if fakes[1].acceptCount() != 1 {
		t.Fatalf("failover target node1 accepted %d, want 1", fakes[1].acceptCount())
	}
	st := c.Stats()
	if st.Evictions != 0 {
		t.Fatalf("overload must not evict: %+v", st)
	}
	if st.PerNode[1].Rerouted != 1 {
		t.Fatalf("reroute not accounted: %+v", st.PerNode[1])
	}
}

// TestAllAttemptsFailSurfacesError: when every node the router tries
// refuses, Submit returns the last refusal and counts one route
// failure. It tries no more than maxAttempts nodes, so the one node
// that would have accepted, ranked after them, is never reached.
func TestAllAttemptsFailSurfacesError(t *testing.T) {
	c, fakes := fakeFleet(t, maxAttempts+1, Config{})
	for _, f := range fakes[:maxAttempts] {
		f.setErr(core.ErrAdmissionFull)
	}
	fakes[maxAttempts-1].setErr(core.ErrDeadlineInfeasible) // round-robin tries it last
	_, err := c.Submit(context.Background(), core.PipelineRequest{Model: "simple", Batch: 1, Deadline: 50 * time.Millisecond})
	if !errors.Is(err, core.ErrDeadlineInfeasible) {
		t.Fatalf("Submit = %v, want the last refusal, ErrDeadlineInfeasible", err)
	}
	st := c.Stats()
	if st.RouteFailures != 1 || st.Evictions != 0 {
		t.Fatalf("route failures %d, evictions %d; want 1 and 0", st.RouteFailures, st.Evictions)
	}
	if got := fakes[maxAttempts].acceptCount(); got != 0 {
		t.Fatalf("node%d, ranked past maxAttempts, accepted %d", maxAttempts, got)
	}
}

// TestRefusingNodeLosesNothingUntilSweepEvicts: a node that refuses
// with ErrNodeDown costs no request — each one fails over to a
// survivor — and leaves routing in one place only: the health sweep,
// once the node's health says not Ready.
func TestRefusingNodeLosesNothingUntilSweepEvicts(t *testing.T) {
	const every = 8
	c, fakes := fakeFleet(t, 3, Config{SweepEvery: every})
	fakes[0].setErr(core.ErrNodeDown)
	submit := func(n int) {
		t.Helper()
		for k := 0; k < n; k++ {
			if _, err := c.Submit(context.Background(), core.PipelineRequest{Model: "simple", Batch: 4}); err != nil {
				t.Fatalf("submit %d: %v", k, err)
			}
		}
	}
	submit(2 * every)
	if st := c.Stats(); st.Evictions != 0 || st.PerNode[0].Evicted {
		t.Fatalf("a node whose health says Ready was evicted: %+v", st)
	}
	fakes[0].mu.Lock()
	fakes[0].ready = false
	fakes[0].mu.Unlock()
	submit(every)
	st := c.Stats()
	if st.Evictions != 1 || !st.PerNode[0].Evicted || st.Ready != 2 {
		t.Fatalf("the sweep did not evict the not-Ready node: %+v", st)
	}
	if accepted := fakes[1].acceptCount() + fakes[2].acceptCount(); accepted != 3*every {
		t.Fatalf("survivors accepted %d of %d", accepted, 3*every)
	}
}

func TestSubmitReturnsTerminalErrorsImmediately(t *testing.T) {
	c, fakes := fakeFleet(t, 3, Config{})
	terminal := errors.New("core: unknown model")
	fakes[0].setErr(terminal)
	fakes[1].setErr(terminal)
	_, err := c.Submit(context.Background(), core.PipelineRequest{Model: "nope", Batch: 4})
	if !errors.Is(err, terminal) {
		t.Fatalf("err = %v, want the terminal error", err)
	}
	// Identical on every replica: the router must not have retried.
	if got := fakes[0].acceptCount() + fakes[1].acceptCount() + fakes[2].acceptCount(); got != 0 {
		t.Fatalf("terminal error was retried onto a node: %d accepts", got)
	}
}

func TestSubmitNoReadyNodes(t *testing.T) {
	c, _ := fakeFleet(t, 2, Config{})
	if err := c.Evict("node0"); err != nil {
		t.Fatal(err)
	}
	if err := c.Evict("node1"); err != nil {
		t.Fatal(err)
	}
	_, err := c.Submit(context.Background(), core.PipelineRequest{Model: "simple", Batch: 4})
	if !errors.Is(err, ErrNoHealthyNodes) {
		t.Fatalf("err = %v, want ErrNoHealthyNodes", err)
	}
	if st := c.Stats(); st.RouteFailures != 1 {
		t.Fatalf("route failure not accounted: %+v", st)
	}
}

// TestMassEvictionReturnsErrNoHealthyNodes: with every node out of the
// routing set, Submit fails with the typed sentinel and the
// server-facing retry hint is a sane positive floor.
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

func TestSweepEvictsUnhealthyAndReadmitsRecovered(t *testing.T) {
	c, fakes := fakeFleet(t, 3, Config{SweepEvery: -1})
	// node2's health collapses (e.g. every device quarantined).
	fakes[2].mu.Lock()
	fakes[2].ready = false
	fakes[2].mu.Unlock()
	c.Sweep()
	st := c.Stats()
	if !st.PerNode[2].Evicted || st.Evictions != 1 {
		t.Fatalf("unhealthy node not evicted: %+v", st)
	}
	// It recovers; the next sweep readmits it.
	fakes[2].mu.Lock()
	fakes[2].ready = true
	fakes[2].mu.Unlock()
	c.Sweep()
	st = c.Stats()
	if st.PerNode[2].Evicted || st.Readmissions != 1 {
		t.Fatalf("recovered node not readmitted: %+v", st)
	}
}

// TestOperatorEvictionHolds: a node the operator evicted stays out of
// routing while it reports Ready, through every submission-driven
// sweep, until the operator readmits it.
func TestOperatorEvictionHolds(t *testing.T) {
	c, fakes := fakeFleet(t, 3, Config{SweepEvery: 8})
	if err := c.Evict("node0"); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 64; k++ {
		if _, err := c.Submit(context.Background(), core.PipelineRequest{Model: "simple", Batch: 1}); err != nil {
			t.Fatalf("submit %d: %v", k, err)
		}
	}
	if got := fakes[0].acceptCount(); got != 0 {
		t.Fatalf("evicted node0 accepted %d of 64 submits", got)
	}
	if st := c.Stats(); !st.PerNode[0].Evicted || st.Readmissions != 0 {
		t.Fatalf("a sweep readmitted node0: evicted %t, readmissions %d", st.PerNode[0].Evicted, st.Readmissions)
	}
	if err := c.Readmit("node0"); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if _, err := c.Submit(context.Background(), core.PipelineRequest{Model: "simple", Batch: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := fakes[0].acceptCount(); got != 1 {
		t.Fatalf("readmitted node0 accepted %d of one round-robin lap, want 1", got)
	}
	// A sweep that evicted a node itself still readmits it on recovery.
	fakes[0].mu.Lock()
	fakes[0].ready = false
	fakes[0].mu.Unlock()
	c.Sweep()
	fakes[0].mu.Lock()
	fakes[0].ready = true
	fakes[0].mu.Unlock()
	c.Sweep()
	if st := c.Stats(); st.PerNode[0].Evicted || st.Readmissions != 2 {
		t.Fatalf("after a health eviction and recovery: evicted %t, readmissions %d; want false and 2", st.PerNode[0].Evicted, st.Readmissions)
	}
}

func TestManualLifecycleOps(t *testing.T) {
	c, fakes := fakeFleet(t, 2, Config{})
	if err := c.Drain("node1"); err != nil {
		t.Fatal(err)
	}
	if fakes[1].drains != 1 {
		t.Fatalf("drain not delivered: %d", fakes[1].drains)
	}
	// A drained fake reports not-Ready, so readmission must refuse it.
	if err := c.Readmit("node1"); err == nil {
		t.Fatal("readmitted a drained node")
	}
	if err := c.Kill("node0"); err != nil {
		t.Fatal(err)
	}
	if fakes[0].kills != 1 {
		t.Fatalf("kill not delivered: %d", fakes[0].kills)
	}
	for _, op := range []func(string) error{c.Drain, c.Evict, c.Readmit, c.Kill} {
		if err := op("node9"); !errors.Is(err, ErrUnknownNode) {
			t.Fatalf("unknown node = %v, want ErrUnknownNode", err)
		}
	}
}

func TestNewRejectsBadFleets(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	a := newFakeNode("same", 0)
	b := newFakeNode("same", 0)
	if _, err := New([]Node{a, b}, Config{}); err == nil {
		t.Fatal("duplicate names accepted")
	}
	if _, err := New([]Node{a, nil}, Config{}); err == nil {
		t.Fatal("nil node accepted")
	}
}

// ---- integration over real nodes ---------------------------------------

// clusterTemplate builds one trained template scheduler for the whole
// test package (coarse batch grid, one rep, the simple model loaded).
var (
	tmplOnce sync.Once
	tmpl     *core.Scheduler
	tmplErr  error
)

func templateScheduler(t testing.TB) *core.Scheduler {
	t.Helper()
	tmplOnce.Do(func() {
		tmpl, tmplErr = core.New(core.Config{
			TrainModels: models.PaperModels(),
			Batches:     []int{8, 512, 8192, 65536},
			Reps:        1,
		})
		if tmplErr != nil {
			return
		}
		tmplErr = tmpl.LoadModel(models.Simple(), 1)
		if tmplErr == nil {
			tmplErr = tmpl.LoadModel(models.MnistSmall(), 1)
		}
	})
	if tmplErr != nil {
		t.Fatal(tmplErr)
	}
	return tmpl
}

// TestConcurrentSweepsKeepTheirWordsAtomic: submitters that reach the
// sweep count together race for the one sweep, so the sweep's flags —
// the cluster's sweeping word, each member's evicted word — are shared.
// Under the race detector (make race) every access to them must be
// atomic: a whole-value reset such as c.sweeping = atomic.Bool{}
// compiles and passes go vet, and shows here as a data race.
func TestConcurrentSweepsKeepTheirWordsAtomic(t *testing.T) {
	c, fakes := serveCluster(t, 3, Config{SweepEvery: -1})
	fakes[1].Kill() // one member for the sweeps to evict
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.sweep()
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Evictions != 1 || st.Ready != 2 {
		t.Fatalf("evictions %d, ready %d; want the killed node evicted once and 2 ready", st.Evictions, st.Ready)
	}
}

// TestFleetLedgerCountsRefusalsPerNode: the fleet ledger sums the node
// ledgers, so a request is counted in Shed or Infeasible once per node
// that refused it, while Submits and RouteFailures count requests. One
// deadline request no node of three can meet reads Infeasible 3.
func TestFleetLedgerCountsRefusalsPerNode(t *testing.T) {
	c := realCluster(t, 3, Config{}, core.PipelineConfig{})
	defer c.Close()
	_, err := c.Submit(context.Background(), core.PipelineRequest{
		Model: "mnist-small", Policy: core.BestThroughput, Batch: 64, Deadline: time.Nanosecond,
	})
	if !errors.Is(err, core.ErrDeadlineInfeasible) {
		t.Fatalf("Submit = %v, want ErrDeadlineInfeasible from every node", err)
	}
	st := c.Stats()
	if st.Infeasible != 3 || st.RouteFailures != 1 || st.Submits != 1 || st.Submitted != 0 {
		t.Fatalf("infeasible %d, route failures %d, submits %d, submitted %d; want 3, 1, 1, 0",
			st.Infeasible, st.RouteFailures, st.Submits, st.Submitted)
	}
}

// realCluster stands up n real nodes from the shared template.
func realCluster(t testing.TB, n int, cfg Config, pcfg core.PipelineConfig) *Cluster {
	t.Helper()
	if pcfg.ProbeInterval == 0 {
		pcfg.ProbeInterval = -1
	}
	c, _, err := Build(templateScheduler(t), n, 1, pcfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSweepEvictsNodeWhoseEveryDeviceFails: device quarantine rolled up
// to the node. A node whose every device fails quarantines them all,
// which is what makes its health read not Ready; the sweep then takes
// it out of routing, and every later request goes to the healthy node.
func TestSweepEvictsNodeWhoseEveryDeviceFails(t *testing.T) {
	tmpl, err := templateScheduler(t).Replica(1) // devices of its own
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.NewInjector(fault.Plan{Seed: 1, Faults: []fault.Fault{{Node: "node0", Effect: fault.Err, P: 1}}})
	c, _, err := Build(tmpl, 2, 1, core.PipelineConfig{ProbeInterval: -1}, Config{SweepEvery: 1, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	do := func() error {
		comp, err := c.Do(ctx, core.PipelineRequest{Model: "simple", Batch: 4, Deadline: -1})
		if err != nil {
			t.Fatal(err)
		}
		return comp.Err
	}
	failed := 0
	for i := 0; i < 16; i++ {
		if do() != nil {
			failed++
		}
	}
	st := c.Stats()
	if n := st.PerNode[0]; !n.Evicted || n.QuarantinedDevices != n.Devices || failed == 0 {
		t.Fatalf("failing node: evicted %t, %d of %d devices quarantined, %d requests failed; want evicted, all, some",
			n.Evicted, n.QuarantinedDevices, n.Devices, failed)
	}
	for i := 0; i < 16; i++ {
		if err := do(); err != nil {
			t.Fatalf("request %d after the eviction failed: %v", i, err)
		}
	}
	t.Logf("%d of the first 16 requests failed before the sweep evicted node0", failed)
}

// core.Play drives the routing tier like a pipeline: a burst offered
// open-loop to a fleet with shallow admission queues lands every arrival
// in exactly one of completed, dropped, expired and failed.
func TestPlayAccountsEveryArrivalOnCluster(t *testing.T) {
	c := realCluster(t, 3, Config{}, core.PipelineConfig{QueueDepth: 8, MaxBatch: 16})
	defer c.Close()
	tr, err := trace.Poisson(300, 1000, []string{"simple", "mnist-small"}, []int{1, 8}, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := core.Play(ctx, c, tr, core.BestThroughput, 250*time.Millisecond, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Requests + res.Dropped + res.Expired + res.Failed; got != len(tr) {
		t.Fatalf("requests %d + dropped %d + expired %d + failed %d ≠ trace %d",
			res.Requests, res.Dropped, res.Expired, res.Failed, len(tr))
	}
	if res.Requests == 0 || res.Failed != 0 {
		t.Fatalf("ledger %+v: want completions and no failures", res)
	}
}

// TestClusterDrainUnderLoad is the drain-ordering regression test at the
// fleet level: clients hammer the router while one node drains mid-run.
// The drain must not deadlock against the router's submissions, every
// future the fleet handed out must resolve, and the drained node's
// accepted tail must complete rather than drop.
func TestClusterDrainUnderLoad(t *testing.T) {
	c := realCluster(t, 3, Config{Policy: LeastLoaded}, core.PipelineConfig{
		Window: 200 * time.Microsecond, MaxBatch: 16,
	})
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const clients, perClient = 8, 60
	var accepted, resolved, refused atomic.Int64
	errCh := make(chan error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				fut, err := c.Submit(ctx, core.PipelineRequest{Model: "simple", Policy: core.BestThroughput, Batch: 4})
				switch {
				case errors.Is(err, core.ErrAdmissionFull), errors.Is(err, ErrNoHealthyNodes),
					errors.Is(err, core.ErrNodeDraining), errors.Is(err, core.ErrNodeDown):
					refused.Add(1)
					continue
				case err != nil:
					errCh <- err
					return
				}
				accepted.Add(1)
				if _, err := fut.Wait(ctx); err != nil {
					errCh <- err
					return
				}
				resolved.Add(1)
			}
		}()
	}
	time.Sleep(3 * time.Millisecond)
	drained := make(chan error, 1)
	go func() { drained <- c.Drain("node1") }()
	wg.Wait()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatal(err)
		}
	case <-ctx.Done():
		t.Fatal("drain deadlocked against the router")
	}
	close(errCh)
	for err := range errCh {
		t.Fatalf("client failed: %v", err)
	}
	if accepted.Load() != resolved.Load() {
		t.Fatalf("accepted %d futures, resolved %d — the drain dropped in-flight work", accepted.Load(), resolved.Load())
	}
	st := c.Stats()
	if st.Submitted != accepted.Load() {
		t.Fatalf("fleet admitted %d, clients saw %d accepts", st.Submitted, accepted.Load())
	}
	if st.Completed != st.Submitted {
		t.Fatalf("fleet dropped futures: %+v", st)
	}
	t.Logf("accepted=%d refused=%d drained-node served=%d", accepted.Load(), refused.Load(), st.PerNode[1].Submitted)
}

// TestClusterKillRacesDrain is the -race regression at the fleet tier:
// Kill and Drain land on the same node concurrently under live traffic,
// the node's own lifecycle gate orders them, and the fleet keeps every
// future it handed out.
func TestClusterKillRacesDrain(t *testing.T) {
	c := realCluster(t, 3, Config{Policy: LeastLoaded, SweepEvery: 25}, core.PipelineConfig{
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

// TestClusterSmoke is the CI smoke drill: an 8-node fleet under
// concurrent load survives one mid-run node kill — the router evicts the
// dead node, traffic fails over, every accepted future resolves, and the
// fleet stays serviceable throughout.
func TestClusterSmoke(t *testing.T) {
	c := realCluster(t, 8, Config{Policy: LeastLoaded, SweepEvery: 50}, core.PipelineConfig{
		Window: 200 * time.Microsecond, MaxBatch: 16,
	})
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const clients, perClient = 8, 50
	var accepted, resolved atomic.Int64
	errCh := make(chan error, clients)
	var wg sync.WaitGroup
	killAt := int64(clients * perClient / 3)
	var killOnce sync.Once
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				if accepted.Load() >= killAt {
					killOnce.Do(func() {
						if err := c.Kill("node3"); err != nil {
							errCh <- err
						}
					})
				}
				fut, err := c.Submit(ctx, core.PipelineRequest{Model: "simple", Policy: core.BestThroughput, Batch: 4})
				switch {
				case errors.Is(err, core.ErrAdmissionFull), errors.Is(err, ErrNoHealthyNodes),
					errors.Is(err, core.ErrNodeDraining), errors.Is(err, core.ErrNodeDown):
					continue
				case err != nil:
					errCh <- err
					return
				}
				accepted.Add(1)
				if _, err := fut.Wait(ctx); err != nil {
					errCh <- err
					return
				}
				resolved.Add(1)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("smoke client failed: %v", err)
	}
	if accepted.Load() != resolved.Load() {
		t.Fatalf("accepted %d, resolved %d", accepted.Load(), resolved.Load())
	}
	st := c.Stats()
	if st.Ready != 7 {
		t.Fatalf("ready = %d after one kill, want 7 (%+v)", st.Ready, st.PerNode)
	}
	if !st.PerNode[3].Evicted || st.PerNode[3].State != "killed" {
		t.Fatalf("killed node not evicted: %+v", st.PerNode[3])
	}
	if st.Completed != st.Submitted {
		t.Fatalf("fleet dropped futures: %+v", st)
	}
	// The fleet must have kept serving: the survivors absorbed the load.
	var survivors int64
	for i, ns := range st.PerNode {
		if i != 3 {
			survivors += ns.Submitted
		}
	}
	if survivors == 0 || accepted.Load() < int64(clients*perClient)*8/10 {
		t.Fatalf("fleet did not keep serving through the kill: accepted=%d survivors=%d", accepted.Load(), survivors)
	}
}

// TestSoakClusterTwoKills is the fleet acceptance soak: a 64-node fleet
// under least-loaded routing serves a heterogeneous feasible-SLO trace,
// two nodes are killed mid-run, and the fleet's SLO attainment must stay
// within 5 percentage points of a no-fault baseline over the same trace
// — node death costs routing capacity, not correctness.
func TestSoakClusterTwoKills(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	run := func(kills []string) (attainment float64, st FleetStats) {
		c := realCluster(t, 64, Config{Policy: LeastLoaded, SweepEvery: 200}, core.PipelineConfig{
			Window: 200 * time.Microsecond, MaxBatch: 32,
		})
		defer c.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		const clients, perClient = 16, 80
		mods := []string{"simple", "mnist-small"}
		var attempts, ok, failed atomic.Int64
		errCh := make(chan error, clients)
		var killOnce sync.Once
		killAt := int64(clients * perClient / 2)
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for k := 0; k < perClient; k++ {
					if len(kills) > 0 && attempts.Load() >= killAt {
						killOnce.Do(func() {
							for _, name := range kills {
								if err := c.Kill(name); err != nil {
									errCh <- err
								}
							}
						})
					}
					attempts.Add(1)
					fut, err := c.Submit(ctx, core.PipelineRequest{
						Model:    mods[(i+k)%len(mods)],
						Policy:   core.BestThroughput,
						Batch:    1 << (k % 4),
						Deadline: 500 * time.Millisecond, // generous, feasible
					})
					switch {
					case errors.Is(err, core.ErrAdmissionFull), errors.Is(err, core.ErrDeadlineInfeasible),
						errors.Is(err, ErrNoHealthyNodes), errors.Is(err, core.ErrNodeDraining),
						errors.Is(err, core.ErrNodeDown):
						failed.Add(1)
						continue
					case err != nil:
						errCh <- err
						return
					}
					comp, err := fut.Wait(ctx)
					switch {
					case err != nil:
						errCh <- err
						return
					case comp.Err != nil:
						failed.Add(1)
					default:
						ok.Add(1)
					}
				}
			}(i)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatalf("soak client failed: %v", err)
		}
		return float64(ok.Load()) / float64(attempts.Load()), c.Stats()
	}

	baseAtt, baseStats := run(nil)
	faultAtt, faultStats := run([]string{"node7", "node23"})
	t.Logf("baseline attainment %.4f (fleet %+v ready=%d)", baseAtt, baseStats.SLOAttainment, baseStats.Ready)
	t.Logf("two-kill attainment %.4f (fleet %+v ready=%d evictions=%d)",
		faultAtt, faultStats.SLOAttainment, faultStats.Ready, faultStats.Evictions)
	if faultStats.Ready != 62 {
		t.Fatalf("ready = %d after two kills, want 62", faultStats.Ready)
	}
	if faultAtt < baseAtt-0.05 {
		t.Fatalf("two-kill attainment %.4f fell more than 5%% below baseline %.4f", faultAtt, baseAtt)
	}
	// Accounting holds fleet-wide through the kills.
	if faultStats.Completed != faultStats.Submitted {
		t.Fatalf("fleet dropped futures through the kills: %+v", faultStats)
	}
}

// TestLedgerRollsUp: the fleet's embedded ledger is the field-wise sum of
// its node rows', each row carries its node's ledger and attainment
// unchanged, and an empty ledger attains 1.
func TestLedgerRollsUp(t *testing.T) {
	if got := (core.Ledger{}).Attainment(); got != 1 {
		t.Fatalf("zero ledger attainment = %v, want 1", got)
	}
	c, fakes := serveCluster(t, 4, Config{})
	defer c.Close()
	var want core.Ledger
	for i, f := range fakes {
		k := int64(i + 1)
		// A distinct value in every field of every node: a sum that mixes
		// two fields up, or drops one, cannot come out right.
		f.ledger = core.Ledger{
			Submitted: 1000 * k, Shed: 2 * k, Infeasible: 3 * k, Cancelled: 5 * k, Expired: 7 * k,
			Failed: 11 * k, Completed: 990 * k, Batches: 13 * k, InFlight: 17 * k,
		}
		want.Add(f.ledger)
	}
	if want != (core.Ledger{
		Submitted: 10000, Shed: 20, Infeasible: 30, Cancelled: 50, Expired: 70,
		Failed: 110, Completed: 9900, Batches: 130, InFlight: 170,
	}) {
		t.Fatalf("Add is not field-wise: %+v", want)
	}
	st := c.Stats()
	if st.Ledger != want {
		t.Fatalf("fleet ledger = %+v, want the rows' sum %+v", st.Ledger, want)
	}
	for i, row := range st.PerNode {
		if row.Ledger != fakes[i].ledger || row.SLOAttainment != fakes[i].ledger.Attainment() {
			t.Fatalf("per_node[%d] = %+v, want ledger %+v", i, row, fakes[i].ledger)
		}
	}
	// (1000 − 5 − 7 − 11) / 1000 on every node, so fleet-wide too.
	if st.SLOAttainment != 0.977 || st.PerNode[0].SLOAttainment != 0.977 {
		t.Fatalf("attainment = %v fleet / %v node0, want 0.977", st.SLOAttainment, st.PerNode[0].SLOAttainment)
	}
}
