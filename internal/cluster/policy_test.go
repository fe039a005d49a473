package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
	"time"

	"bomw/internal/core"
)

// fakeNode is a scriptable Node for routing tests: it accepts or refuses
// submissions per its err field, predicts a fixed latency, and records
// what it accepted. The nil *core.Future it returns is fine for the
// router, which only passes futures through.
type fakeNode struct {
	name    string
	load    int64
	predict time.Duration // FeasibleWithin's predicted completion latency
	predErr error

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
	return &fakeNode{name: name, load: load, predict: time.Millisecond, ready: true}
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

func (f *fakeNode) FeasibleWithin(_ string, _ int, deadline, _ time.Duration) (bool, time.Duration, error) {
	if f.predErr != nil {
		return false, 0, f.predErr
	}
	return f.predict <= deadline, f.predict, nil
}

func (f *fakeNode) QueueDelay() time.Duration { return f.predict }

func (f *fakeNode) Stats() core.NodeStats {
	return core.NodeStats{Name: f.name, State: core.NodeReady, Pipeline: core.PipelineStats{Ledger: f.ledger}}
}

func (f *fakeNode) Health() core.NodeHealth {
	f.mu.Lock()
	defer f.mu.Unlock()
	return core.NodeHealth{State: core.NodeReady, Devices: 3, Ready: f.ready}
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

// fakeViews builds policy views over fakes, mirroring Cluster.eligible.
func fakeViews(fakes ...*fakeNode) []NodeView {
	views := make([]NodeView, len(fakes))
	for i, f := range fakes {
		views[i] = NodeView{Index: i, Name: f.name, Load: f.load, node: f}
	}
	return views
}

func orderEq(got, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestRoundRobinFairness(t *testing.T) {
	p := NewRoundRobin()
	views := fakeViews(newFakeNode("a", 0), newFakeNode("b", 0), newFakeNode("c", 0), newFakeNode("d", 0))
	counts := make([]int, len(views))
	var order []int
	for k := 0; k < 40; k++ {
		order = p.Route(Request{Model: "simple"}, views, order) // reused, as the router reuses its pooled buffer
		if len(order) != len(views) {
			t.Fatalf("order %v does not cover the fleet", order)
		}
		if want := k % len(views); order[0] != want {
			t.Fatalf("request %d started at %d, want %d", k, order[0], want)
		}
		// The failover order continues the rotation.
		for i := 1; i < len(order); i++ {
			if order[i] != (order[0]+i)%len(views) {
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
		{"skewed", []int64{5, 0, 3, 0}, []int{1, 3, 2, 0}},
		{"uniform ties break by index", []int64{2, 2, 2}, []int{0, 1, 2}},
		{"single", []int64{9}, []int{0}},
		{"monotone", []int64{0, 1, 2, 3}, []int{0, 1, 2, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fakes := make([]*fakeNode, len(tc.loads))
			for i, l := range tc.loads {
				fakes[i] = newFakeNode(fmt.Sprintf("n%d", i), l)
			}
			got := LeastLoaded{}.Route(Request{Model: "simple"}, fakeViews(fakes...), nil)
			if !orderEq(got, tc.want) {
				t.Fatalf("Route(%v) = %v, want %v", tc.loads, got, tc.want)
			}
		})
	}
}

func TestModelAffinityStableHomes(t *testing.T) {
	p := ModelAffinity{Seed: 7}
	fakes := make([]*fakeNode, 5)
	for i := range fakes {
		fakes[i] = newFakeNode(fmt.Sprintf("node%d", i), int64(i))
	}
	views := fakeViews(fakes...)
	models := []string{"simple", "mnist-small", "mnist-deep", "mnist-cnn", "cifar10"}

	// Same model, same fleet: the home never moves, regardless of load.
	homes := map[string]int{}
	for _, m := range models {
		first := p.Route(Request{Model: m}, views, nil)[0]
		for k := 0; k < 5; k++ {
			if got := p.Route(Request{Model: m}, views, nil)[0]; got != first {
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
	var surviving []*fakeNode
	for i, f := range fakes {
		if i != dead {
			surviving = append(surviving, f)
		}
	}
	reduced := fakeViews(surviving...)
	for _, m := range models {
		got := reduced[p.Route(Request{Model: m}, reduced, nil)[0]].Name
		if homes[m] == dead {
			continue // this model had to move
		}
		if want := fakes[homes[m]].name; got != want {
			t.Fatalf("model %q moved from %s to %s when an unrelated node died", m, want, got)
		}
	}
	// A different seed is allowed to disagree about placement entirely,
	// but must itself be stable.
	q := ModelAffinity{Seed: 8}
	for _, m := range models {
		a, b := q.Route(Request{Model: m}, views, nil)[0], q.Route(Request{Model: m}, views, nil)[0]
		if a != b {
			t.Fatalf("seed-8 home for %q unstable: %d vs %d", m, a, b)
		}
	}
}

// The in-place rendezvous hash is hash/fnv's FNV-1a over the same
// bytes, so model homes are where they were.
func TestRendezvousScoreIsFNV1a(t *testing.T) {
	for _, seed := range []int64{0, 7, -1, 1 << 40} {
		for _, model := range []string{"", "simple", "mnist-cnn"} {
			for _, node := range []string{"node0", "node15", "ü"} {
				h := fnv.New64a()
				var s [8]byte
				binary.LittleEndian.PutUint64(s[:], uint64(seed))
				h.Write(s[:])
				h.Write([]byte(model))
				h.Write([]byte{0})
				h.Write([]byte(node))
				if got, want := rendezvousScore(model, node, seed), h.Sum64(); got != want {
					t.Errorf("rendezvousScore(%q, %q, %d) = %#x, FNV-1a %#x", model, node, seed, got, want)
				}
			}
		}
	}
}

func TestWeightedScoringSlackOrderAndTieBreaks(t *testing.T) {
	mk := func(name string, load int64, predict time.Duration, predErr error) *fakeNode {
		f := newFakeNode(name, load)
		f.predict = predict
		f.predErr = predErr
		return f
	}
	cases := []struct {
		name  string
		fakes []*fakeNode
		req   Request
		want  []int
	}{
		{
			name: "largest slack first, infeasible last",
			fakes: []*fakeNode{
				mk("a", 0, 4*time.Millisecond, nil),
				mk("b", 0, 2*time.Millisecond, nil),
				mk("c", 0, 8*time.Millisecond, nil),
				mk("d", 0, 12*time.Millisecond, nil), // misses the SLO
			},
			req:  Request{Model: "simple", SLO: 10 * time.Millisecond},
			want: []int{1, 0, 2, 3},
		},
		{
			name: "equal slack ties break on load then index",
			fakes: []*fakeNode{
				mk("a", 3, 2*time.Millisecond, nil),
				mk("b", 1, 2*time.Millisecond, nil),
				mk("c", 1, 2*time.Millisecond, nil),
			},
			req:  Request{Model: "simple", SLO: 10 * time.Millisecond},
			want: []int{1, 2, 0},
		},
		{
			name: "no SLO scores on predicted latency alone",
			fakes: []*fakeNode{
				mk("a", 0, 9*time.Millisecond, nil),
				mk("b", 0, 1*time.Millisecond, nil),
			},
			req:  Request{Model: "simple"},
			want: []int{1, 0},
		},
		{
			name: "unpredictable node ranks last",
			fakes: []*fakeNode{
				mk("a", 0, time.Millisecond, fmt.Errorf("no devices")),
				mk("b", 0, 5*time.Millisecond, nil),
			},
			req:  Request{Model: "simple", SLO: 10 * time.Millisecond},
			want: []int{1, 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := WeightedScoring{}.Route(tc.req, fakeViews(tc.fakes...), nil)
			if !orderEq(got, tc.want) {
				t.Fatalf("Route = %v, want %v", got, tc.want)
			}
		})
	}
}

// builtinPolicies are the names PolicyByName accepts.
var builtinPolicies = []string{"round-robin", "least-loaded", "model-affinity", "weighted-scoring"}

func TestPolicyByName(t *testing.T) {
	for _, name := range builtinPolicies {
		p, err := PolicyByName(name, 1)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("PolicyByName(%q).Name() = %q", name, p.Name())
		}
	}
	if p, err := PolicyByName("", 1); err != nil || p.Name() != "round-robin" {
		t.Fatalf("empty name = %v/%v, want round-robin", p, err)
	}
	if _, err := PolicyByName("random", 1); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestRoutingDeterminism replays the same request trace against two
// identically seeded fleets for every policy: the routing decisions —
// which node accepted each request — must be identical, the property
// seeded incident replay rests on.
func TestRoutingDeterminism(t *testing.T) {
	const nodes, requests = 6, 200
	models := []string{"simple", "mnist-small", "mnist-deep", "cifar10"}
	run := func(policyName string) []string {
		fakes := make([]*fakeNode, nodes)
		clusterNodes := make([]Node, nodes)
		for i := range fakes {
			fakes[i] = newFakeNode(fmt.Sprintf("node%d", i), int64(i%3))
			fakes[i].predict = time.Duration(i+1) * time.Millisecond
			clusterNodes[i] = fakes[i]
		}
		pol, err := PolicyByName(policyName, 42)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(clusterNodes, Config{Policy: pol, Clock: core.NewManualClock()})
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
	for _, policyName := range builtinPolicies {
		t.Run(policyName, func(t *testing.T) {
			a, b := run(policyName), run(policyName)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("decision %d diverged: %s vs %s", i, a[i], b[i])
				}
			}
		})
	}
}
