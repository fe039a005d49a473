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
	if st.Ready != 3 {
		t.Fatalf("overload took a node out of routing: %+v", st)
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
	if st.RouteFailures != 1 || st.Ready != maxAttempts+1 {
		t.Fatalf("route failures %d, ready %d; want 1 and %d", st.RouteFailures, st.Ready, maxAttempts+1)
	}
	if got := fakes[maxAttempts].acceptCount(); got != 0 {
		t.Fatalf("node%d, ranked past maxAttempts, accepted %d", maxAttempts, got)
	}
}

// TestRefusingNodeLosesNothingUntilSweepEvicts: a node that refuses
// with ErrNodeDown costs no request — each one fails over to a
// survivor — and stops costing even the failover on the first request
// after its readiness reads false. No periodic sweep is involved any
// more: routing reads every member's readiness on each request, and
// the operator's eviction is never set.
func TestRefusingNodeLosesNothingUntilSweepEvicts(t *testing.T) {
	c, fakes := fakeFleet(t, 3, Config{})
	fakes[0].setErr(core.ErrNodeDown)
	submit := func(n int) {
		t.Helper()
		for k := 0; k < n; k++ {
			if _, err := c.Submit(context.Background(), core.PipelineRequest{Model: "simple", Batch: 4}); err != nil {
				t.Fatalf("submit %d: %v", k, err)
			}
		}
	}
	rerouted := func() int64 {
		st := c.Stats()
		return st.PerNode[1].Rerouted + st.PerNode[2].Rerouted
	}
	submit(6)
	if got := rerouted(); got != 2 {
		t.Fatalf("%d reroutes past the refusing node in two round-robin laps, want 2", got)
	}
	fakes[0].setReady(false)
	if st := c.Stats(); st.Ready != 2 || st.PerNode[0].Evicted {
		t.Fatalf("a not-Ready node: ready %d, evicted %t; want 2 ready and no operator eviction", st.Ready, st.PerNode[0].Evicted)
	}
	submit(6)
	if got := rerouted(); got != 2 {
		t.Fatalf("the not-Ready node was still ranked: %d reroutes, want 2", got)
	}
	if accepted := fakes[1].acceptCount() + fakes[2].acceptCount(); accepted != 12 {
		t.Fatalf("survivors accepted %d of 12", accepted)
	}
}

// TestSweepEvictsUnhealthyAndReadmitsRecovered: a node whose health
// collapses (e.g. every device quarantined) leaves routing on the next
// request, and rejoins on the first request after it reads Ready
// again, with no sweep or submission count to wait out.
func TestSweepEvictsUnhealthyAndReadmitsRecovered(t *testing.T) {
	c, fakes := fakeFleet(t, 3, Config{})
	submit := func(n int) {
		t.Helper()
		for k := 0; k < n; k++ {
			if _, err := c.Submit(context.Background(), core.PipelineRequest{Model: "simple", Batch: 4}); err != nil {
				t.Fatalf("submit %d: %v", k, err)
			}
		}
	}
	fakes[2].setReady(false)
	if st := c.Stats(); st.Ready != 2 || st.PerNode[2].Evicted {
		t.Fatalf("unhealthy node: ready %d, evicted %t; want 2 ready and no operator eviction", st.Ready, st.PerNode[2].Evicted)
	}
	submit(6)
	if got := fakes[2].acceptCount(); got != 0 {
		t.Fatalf("the unhealthy node accepted %d, want 0", got)
	}
	if accepted := fakes[0].acceptCount() + fakes[1].acceptCount(); accepted != 6 {
		t.Fatalf("survivors accepted %d of 6", accepted)
	}
	fakes[2].setReady(true)
	if st := c.Stats(); st.Ready != 3 {
		t.Fatalf("recovered node not counted ready: %+v", st)
	}
	submit(3)
	if got := fakes[2].acceptCount(); got != 1 {
		t.Fatalf("the recovered node accepted %d of one round-robin lap, want 1", got)
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
	st := c.Stats()
	if st.ChaosTrips != 1 || !st.PerNode[0].ChaosDown {
		t.Fatalf("the router did not count the window's entry: trips %d, %+v", st.ChaosTrips, st.PerNode[0])
	}
}

// TestOperatorEvictionHolds: a node the operator evicted stays out of
// routing while it reports Ready, until the operator readmits it; and
// Readmit refuses a node that is not Ready, which stays evicted.
func TestOperatorEvictionHolds(t *testing.T) {
	c, fakes := fakeFleet(t, 3, Config{})
	submit := func(n int) {
		t.Helper()
		for k := 0; k < n; k++ {
			if _, err := c.Submit(context.Background(), core.PipelineRequest{Model: "simple", Batch: 1}); err != nil {
				t.Fatalf("submit %d: %v", k, err)
			}
		}
	}
	if err := c.Evict("node0"); err != nil {
		t.Fatal(err)
	}
	submit(64)
	if got := fakes[0].acceptCount(); got != 0 {
		t.Fatalf("evicted node0 accepted %d of 64 submits", got)
	}
	if st := c.Stats(); !st.PerNode[0].Evicted || st.Ready != 2 {
		t.Fatalf("after 64 submits: evicted %t, ready %d; want node0 still evicted, 2 ready", st.PerNode[0].Evicted, st.Ready)
	}
	if err := c.Readmit("node0"); err != nil {
		t.Fatal(err)
	}
	submit(3)
	if got := fakes[0].acceptCount(); got != 1 {
		t.Fatalf("readmitted node0 accepted %d of one round-robin lap, want 1", got)
	}
	if err := c.Evict("node0"); err != nil {
		t.Fatal(err)
	}
	fakes[0].setReady(false)
	if err := c.Readmit("node0"); err == nil {
		t.Fatal("readmitted a node that is not Ready")
	}
	if st := c.Stats(); !st.PerNode[0].Evicted {
		t.Fatal("a refused Readmit lifted the eviction")
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

// TestConcurrentChaosEdgesCountOnce: submitters that read a down
// window's edge together race to count it, so each member's chaosDown
// word and the fleet's edge counters are shared. Four goroutines submit
// across the window's opening and its closing, and each edge counts
// exactly once; under the race detector (make race) every access to
// those words must be atomic.
func TestConcurrentChaosEdgesCountOnce(t *testing.T) {
	clk := core.NewManualClock()
	faults := fault.NewInjector(fault.Plan{Faults: []fault.Fault{
		{Node: "node1", Start: time.Second, End: 2 * time.Second, Effect: fault.Down},
	}})
	c, fakes := fakeFleet(t, 3, Config{Clock: clk, Faults: faults})
	burst := func() {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if _, err := c.Submit(context.Background(), core.PipelineRequest{Model: "simple", Batch: 1}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	burst()
	clk.Advance(1500 * time.Millisecond) // inside the window
	before := fakes[1].acceptCount()
	burst()
	if got := fakes[1].acceptCount(); got != before {
		t.Fatalf("node1 accepted %d requests inside its down window", got-before)
	}
	clk.Advance(time.Second) // past it
	burst()
	st := c.Stats()
	if st.ChaosTrips != 1 || st.ChaosRecoveries != 1 || st.PerNode[1].ChaosDown {
		t.Fatalf("trips %d, recoveries %d, node1 down %t; want one of each edge and node1 up",
			st.ChaosTrips, st.ChaosRecoveries, st.PerNode[1].ChaosDown)
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

// everyDeviceFails builds a 2-node fleet whose node0 fails every
// execution on every device, from its own replica of the template (a
// fault plan is armed on node runtimes, and node0 shares its
// template's).
func everyDeviceFails(t *testing.T, end time.Duration, pcfg core.PipelineConfig, cfg Config) (*Cluster, []*core.Node) {
	t.Helper()
	tmpl, err := templateScheduler(t).Replica(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = fault.NewInjector(fault.Plan{Seed: 1, Faults: []fault.Fault{{Node: "node0", End: end, Effect: fault.Err, P: 1}}})
	c, nodes, err := Build(tmpl, 2, 1, pcfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, nodes
}

// TestNodeWhoseEveryDeviceFailsLeavesRoutingAtOnce: device quarantine
// rolled up to the node, at the default Config. Each request routed to
// the failing node fails over across its three devices and fails, one
// error per device; the third quarantines all three, the node reads not
// Ready, and the router ranks it no more. Of 64 sequential round-robin
// requests, the three that quarantined node0 fail, and no other.
func TestNodeWhoseEveryDeviceFailsLeavesRoutingAtOnce(t *testing.T) {
	c, nodes := everyDeviceFails(t, 0, core.PipelineConfig{ProbeInterval: -1}, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	failed := 0
	for i := 0; i < 64; i++ {
		comp, err := c.Do(ctx, core.PipelineRequest{Model: "simple", Batch: 4, Deadline: -1})
		if err != nil {
			t.Fatal(err)
		}
		if comp.Err != nil {
			failed++
		}
	}
	st := c.Stats()
	n := st.PerNode[0]
	if failed > 3 || n.QuarantinedDevices != n.Devices || nodes[0].Ready() || st.Ready != 1 || n.Evicted {
		t.Fatalf("%d of 64 failed; node0: %d of %d devices quarantined, ready %t, evicted %t; fleet ready %d; want ≤ 3 failed, all quarantined, not ready, not evicted, 1 ready",
			failed, n.QuarantinedDevices, n.Devices, nodes[0].Ready(), n.Evicted, st.Ready)
	}
	t.Logf("%d of 64 requests failed", failed)
}

// TestProbeReadmissionReturnsNodeToRouting: on a stepped clock, the
// recovery prober's first tick after node0's fault has cleared readmits
// a device, and the very next request routes to node0 again.
func TestProbeReadmissionReturnsNodeToRouting(t *testing.T) {
	const every = 50 * time.Millisecond
	clk := core.NewManualClock()
	// Least-loaded on an idle fleet ties, and ties go to node0.
	c, nodes := everyDeviceFails(t, every/2, core.PipelineConfig{ProbeInterval: every}, Config{Policy: LeastLoaded, Clock: clk})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	do := func() (node0 bool, err error) {
		before := nodes[0].Stats().Pipeline.Submitted
		comp, err := c.Do(ctx, core.PipelineRequest{Model: "simple", Batch: 4, Deadline: -1})
		if err != nil {
			t.Fatal(err)
		}
		return nodes[0].Stats().Pipeline.Submitted > before, comp.Err
	}
	for i := 0; i < 3; i++ {
		if on0, err := do(); !on0 || err == nil {
			t.Fatalf("request %d: on node0 %t, err %v; want node0 and a failure", i, on0, err)
		}
	}
	if on0, err := do(); on0 || err != nil {
		t.Fatalf("after node0's devices were quarantined: on node0 %t, err %v; want node1 and success", on0, err)
	}
	clk.BlockUntil(2) // both nodes' probers are at their timers
	clk.Advance(every)
	clk.BlockUntil(2) // node0's probe ran and both probers are back at their timers
	if !nodes[0].Ready() {
		t.Fatalf("node0 not Ready after a probe past its fault: %+v", nodes[0].Health())
	}
	if on0, err := do(); !on0 || err != nil {
		t.Fatalf("after the probe: on node0 %t, err %v; want node0 and success", on0, err)
	}
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
	c := realCluster(t, 3, Config{Policy: LeastLoaded}, core.PipelineConfig{
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
// concurrent load survives one mid-run node kill — the dead node leaves
// routing, traffic fails over, every accepted future resolves, and the
// fleet stays serviceable throughout.
func TestClusterSmoke(t *testing.T) {
	c := realCluster(t, 8, Config{Policy: LeastLoaded}, core.PipelineConfig{
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
	if st.PerNode[3].Evicted || st.PerNode[3].State != "killed" {
		t.Fatalf("killed node: %+v, want state killed and no operator eviction", st.PerNode[3])
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
		c := realCluster(t, 64, Config{Policy: LeastLoaded}, core.PipelineConfig{
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
	t.Logf("two-kill attainment %.4f (fleet %+v ready=%d)",
		faultAtt, faultStats.SLOAttainment, faultStats.Ready)
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
