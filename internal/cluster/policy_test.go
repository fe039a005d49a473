package cluster

import (
	"cmp"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"bomw/internal/core"
	"bomw/internal/fault"
)

// fakeNode is a scriptable Node for routing tests: it accepts or refuses
// submissions per its err field and records what it accepted. The nil *core.Future it returns is fine for the
// router, which only passes futures through.
type fakeNode struct {
	name string
	load int64

	ledger core.Ledger // Stats() reports it as the pipeline's

	mu       sync.Mutex
	err      error // returned by Submit when set
	accepted []string
	drains   int
	kills    int
	ready    bool

	// serving mode: when serve is set, Submit hands out a detached
	// future that a goroutine resolves with {serveErr, serveLat} after
	// serveWait of wall time. A submission cancelled before then
	// resolves with context.Canceled instead — the same contract a real
	// pipeline honours when it culls queued work.
	serve     bool
	serveWait time.Duration
	serveLat  time.Duration
	serveErr  error
}

func newFakeNode(name string, load int64) *fakeNode {
	return &fakeNode{name: name, load: load, ready: true}
}

func (f *fakeNode) Name() string { return f.name }
func (f *fakeNode) Load() int64  { return f.load }

func (f *fakeNode) AvgLatency() time.Duration { return 0 }

func (f *fakeNode) Submit(ctx context.Context, req core.PipelineRequest) (*core.Future, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return nil, f.err
	}
	f.accepted = append(f.accepted, req.Model)
	if !f.serve {
		return nil, nil
	}
	fut := core.NewDetachedFuture()
	comp := core.Completion{Latency: f.serveLat, Err: f.serveErr}
	wait := f.serveWait
	go func() {
		if wait > 0 {
			select {
			case <-ctx.Done():
				fut.Resolve(core.Completion{Err: context.Canceled})
				return
			case <-time.After(wait):
			}
		} else if ctx.Err() != nil {
			fut.Resolve(core.Completion{Err: context.Canceled})
			return
		}
		fut.Resolve(comp)
	}()
	return fut, nil
}

// setServe flips the fake into serving mode: futures resolve with
// {err, lat} after wait of wall time, or context.Canceled on cancel.
func (f *fakeNode) setServe(wait, lat time.Duration, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.serve = true
	f.serveWait = wait
	f.serveLat = lat
	f.serveErr = err
}

func (f *fakeNode) QueueDelay() time.Duration { return time.Millisecond }

func (f *fakeNode) Stats() core.NodeStats {
	return core.NodeStats{Name: f.name, State: core.NodeReady, Pipeline: core.PipelineStats{Ledger: f.ledger}}
}

func (f *fakeNode) Health() core.NodeHealth {
	f.mu.Lock()
	defer f.mu.Unlock()
	return core.NodeHealth{State: core.NodeReady, Devices: 3, Ready: f.ready}
}

func (f *fakeNode) Ready() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ready
}

func (f *fakeNode) setReady(ready bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ready = ready
}

func (f *fakeNode) Drain() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.drains++
	f.ready = false
}

func (f *fakeNode) Kill() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.kills++
	f.ready = false
}

func (f *fakeNode) setErr(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.err = err
}

func (f *fakeNode) acceptCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.accepted)
}

// policies are the routing rules PolicyByName accepts.
var policies = []Policy{RoundRobin, LeastLoaded, ModelAffinity}

// ranked returns the router's ranking for one request to model.
func ranked(c *Cluster, model string) []int {
	var order [maxAttempts]int
	return order[:c.rank(model, &order)]
}

// fakeRanker builds a fleet of non-serving fakes named node0.. with the
// given loads under policy p.
func fakeRanker(t *testing.T, p Policy, loads ...int64) (*Cluster, []*fakeNode) {
	t.Helper()
	fakes := make([]*fakeNode, len(loads))
	nodes := make([]Node, len(loads))
	for i, l := range loads {
		fakes[i] = newFakeNode(fmt.Sprintf("node%d", i), l)
		nodes[i] = fakes[i]
	}
	c, err := New(nodes, Config{Policy: p, Clock: core.NewManualClock()})
	if err != nil {
		t.Fatal(err)
	}
	return c, fakes
}

func TestRoundRobinFairness(t *testing.T) {
	c, _ := fakeRanker(t, RoundRobin, 0, 0, 0, 0)
	const n = 4
	counts := make([]int, n)
	for k := 0; k < 40; k++ {
		order := ranked(c, "simple")
		if len(order) != maxAttempts {
			t.Fatalf("request %d ranked %v, want %d nodes", k, order, maxAttempts)
		}
		if want := k % n; order[0] != want {
			t.Fatalf("request %d started at %d, want %d", k, order[0], want)
		}
		// The failover order continues the rotation.
		for i := 1; i < len(order); i++ {
			if order[i] != (order[0]+i)%n {
				t.Fatalf("request %d order %v is not a rotation", k, order)
			}
		}
		counts[order[0]]++
	}
	for i, c := range counts {
		if c != 10 {
			t.Fatalf("node %d got %d first-choices, want exactly 10: %v", i, c, counts)
		}
	}
}

func TestLeastLoadedUnderSkew(t *testing.T) {
	cases := []struct {
		name  string
		loads []int64
		want  []int
	}{
		{"skewed", []int64{5, 0, 3, 0}, []int{1, 3, 2}},
		{"uniform ties break by index", []int64{2, 2, 2}, []int{0, 1, 2}},
		{"single", []int64{9}, []int{0}},
		{"monotone", []int64{0, 1, 2, 3}, []int{0, 1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := fakeRanker(t, LeastLoaded, tc.loads...)
			if got := ranked(c, "simple"); !slices.Equal(got, tc.want) {
				t.Fatalf("rank(%v) = %v, want %v", tc.loads, got, tc.want)
			}
		})
	}
}

func TestModelAffinityStableHomes(t *testing.T) {
	c, fakes := fakeRanker(t, ModelAffinity, 0, 1, 2, 3, 4)
	models := []string{"simple", "mnist-small", "mnist-deep", "mnist-cnn", "cifar10"}

	// Same model, same fleet: the home never moves, regardless of load.
	homes := map[string]int{}
	for _, m := range models {
		first := ranked(c, m)[0]
		for k := 0; k < 5; k++ {
			fakes[k].load = int64(4 - k)
			if got := ranked(c, m)[0]; got != first {
				t.Fatalf("model %q home moved %d -> %d", m, first, got)
			}
		}
		homes[m] = first
	}
	// The hash should spread distinct models over more than one node.
	distinct := map[int]bool{}
	for _, h := range homes {
		distinct[h] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all %d models homed on one node: %v", len(models), homes)
	}
	// Removing one node moves ONLY the models homed there; every other
	// model's home node is undisturbed (the rendezvous property).
	dead := homes[models[0]]
	if err := c.Evict(fakes[dead].name); err != nil {
		t.Fatal(err)
	}
	for _, m := range models {
		got := ranked(c, m)[0]
		if homes[m] == dead {
			if got == dead {
				t.Fatalf("model %q still routed to its evicted home", m)
			}
			continue // this model had to move
		}
		if got != homes[m] {
			t.Fatalf("model %q moved from node%d to node%d when an unrelated node left", m, homes[m], got)
		}
	}
}

// The in-place rendezvous hash is hash/fnv's FNV-1a over the same
// bytes.
func TestRendezvousScoreIsFNV1a(t *testing.T) {
	for _, model := range []string{"", "simple", "mnist-cnn"} {
		for _, node := range []string{"node0", "node15", "ü"} {
			h := fnv.New64a()
			h.Write([]byte(model))
			h.Write([]byte{0})
			h.Write([]byte(node))
			if got, want := rendezvousScore(model, node), h.Sum64(); got != want {
				t.Errorf("rendezvousScore(%q, %q) = %#x, FNV-1a %#x", model, node, got, want)
			}
		}
	}
}

// referenceRank is the ranking's definition: a full stable sort of the
// routable members by the policy's key, fleet index breaking ties, cut
// to the first maxAttempts. cursor is round-robin's cursor before the
// request.
func referenceRank(p Policy, model string, fakes []*fakeNode, routable []bool, cursor uint64) []int {
	var idx []int
	for i, ok := range routable {
		if ok {
			idx = append(idx, i)
		}
	}
	switch p {
	case RoundRobin:
		if len(idx) > 0 {
			start := int(cursor % uint64(len(idx)))
			idx = append(idx[start:], idx[:start]...)
		}
	case LeastLoaded:
		slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(fakes[a].load, fakes[b].load) })
	case ModelAffinity:
		slices.SortStableFunc(idx, func(a, b int) int {
			return cmp.Compare(rendezvousScore(model, fakes[b].name), rendezvousScore(model, fakes[a].name))
		})
	}
	return idx[:min(len(idx), maxAttempts)]
}

// TestRankMatchesStableSort: over random fleets of 1–64 nodes, with
// tied loads, evicted and not-Ready members and open and closed down
// windows, the router's stack ranking equals the head of a full stable
// sort of the routable members.
func TestRankMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	models := []string{"simple", "mnist-small", "mnist-cnn", "cifar10"}
	now := time.Second
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(64)
		fakes := make([]*fakeNode, n)
		nodes := make([]Node, n)
		routable := make([]bool, n)
		evict := make([]bool, n)
		var plan fault.Plan
		for i := range fakes {
			fakes[i] = newFakeNode(fmt.Sprintf("node%d", i), int64(rng.Intn(4)))
			nodes[i] = fakes[i]
			routable[i] = true
			switch rng.Intn(6) {
			case 0:
				evict[i], routable[i] = true, false
			case 1: // inside a down window
				plan.Faults = append(plan.Faults, fault.Fault{Node: fakes[i].name, End: 2 * now, Effect: fault.Down})
				routable[i] = false
			case 2: // a window that has closed
				plan.Faults = append(plan.Faults, fault.Fault{Node: fakes[i].name, End: now / 2, Effect: fault.Down})
			case 3: // drained, killed or every device quarantined
				fakes[i].ready, routable[i] = false, false
			}
		}
		if trial%25 == 0 { // now and then nothing is routable
			for i := range evict {
				evict[i], routable[i] = true, false
			}
		}
		for _, p := range policies {
			clk := core.NewManualClock()
			clk.Advance(now)
			c, err := New(nodes, Config{Policy: p, Clock: clk, Faults: fault.NewInjector(plan)})
			if err != nil {
				t.Fatal(err)
			}
			for i, out := range evict {
				if out {
					if err := c.Evict(fakes[i].name); err != nil {
						t.Fatal(err)
					}
				}
			}
			for k := 0; k < 5; k++ {
				for _, f := range fakes {
					f.load = int64(rng.Intn(4))
				}
				model := models[rng.Intn(len(models))]
				want := referenceRank(p, model, fakes, routable, c.cursor.Load())
				if got := ranked(c, model); !slices.Equal(got, want) {
					t.Fatalf("trial %d, %s, %d nodes, request %d for %s: rank %v, stable sort %v",
						trial, p, n, k, model, got, want)
				}
			}
		}
	}
}

func TestPolicyByName(t *testing.T) {
	for _, p := range policies {
		got, err := PolicyByName(string(p))
		if err != nil || got != p {
			t.Fatalf("PolicyByName(%q) = %q, %v", p, got, err)
		}
	}
	if p, err := PolicyByName(""); err != nil || p != RoundRobin {
		t.Fatalf("empty name = %q/%v, want round-robin", p, err)
	}
	for _, name := range []string{"random", "weighted-scoring"} {
		if _, err := PolicyByName(name); err == nil {
			t.Fatalf("unknown policy %q accepted", name)
		}
	}
	if _, err := New([]Node{newFakeNode("node0", 0)}, Config{Policy: "random"}); err == nil {
		t.Fatal("New accepted an unknown policy")
	}
}

// TestRoutingDeterminism replays the same request trace against two
// identical fleets for every policy: the routing decisions — which node
// accepted each request — must be identical, the property seeded
// incident replay rests on.
func TestRoutingDeterminism(t *testing.T) {
	const nodes, requests = 6, 200
	models := []string{"simple", "mnist-small", "mnist-deep", "cifar10"}
	run := func(p Policy) []string {
		fakes := make([]*fakeNode, nodes)
		clusterNodes := make([]Node, nodes)
		for i := range fakes {
			fakes[i] = newFakeNode(fmt.Sprintf("node%d", i), int64(i%3))
			clusterNodes[i] = fakes[i]
		}
		c, err := New(clusterNodes, Config{Policy: p, Clock: core.NewManualClock()})
		if err != nil {
			t.Fatal(err)
		}
		var trace []string
		for k := 0; k < requests; k++ {
			req := core.PipelineRequest{
				Model:    models[k%len(models)],
				Batch:    1 << (k % 5),
				Deadline: time.Duration(10+k%7) * time.Millisecond,
			}
			before := make([]int, nodes)
			for i, f := range fakes {
				before[i] = f.acceptCount()
			}
			if _, err := c.Submit(context.Background(), req); err != nil {
				t.Fatalf("submit %d: %v", k, err)
			}
			for i, f := range fakes {
				if f.acceptCount() > before[i] {
					trace = append(trace, fakes[i].name)
					break
				}
			}
		}
		if len(trace) != requests {
			t.Fatalf("recorded %d decisions, want %d", len(trace), requests)
		}
		return trace
	}
	for _, p := range policies {
		t.Run(string(p), func(t *testing.T) {
			a, b := run(p), run(p)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("decision %d diverged: %s vs %s", i, a[i], b[i])
				}
			}
		})
	}
}
