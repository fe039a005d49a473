package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"bomw/internal/core"
)

// Request carries the routing-relevant facts of one submission: what is
// being served, how big it is, the effective SLO (0 = none) and, read on
// demand, the fleet's virtual now. Policies see only this plus the
// eligible node views — never the payload.
type Request struct {
	Model string
	Batch int
	SLO   time.Duration
	clock core.Clock // the fleet's; nil outside Cluster.Submit
}

// Now reads the fleet's virtual now, zero for a Request built outside
// Cluster.Submit. The clock is read here, not at Submit, so only a
// policy that scores on time pays for reading it.
func (r Request) Now() time.Duration {
	if r.clock == nil {
		return 0
	}
	return r.clock.Now()
}

// NodeView is the per-node snapshot a routing policy reads: a stable
// fleet index, the node's name, its instantaneous load, and the node's
// own completion predictor for slack scoring.
type NodeView struct {
	Index int
	Name  string
	Load  int64
	node  Node
	// score is a built-in policy's sort key, written by its Route into
	// the router's pooled views so that ranking allocates nothing:
	// weighted-scoring's slack, model-affinity's rendezvous hash (read
	// back as a uint64).
	score int64
}

// Predict returns the node's best predicted completion latency for the
// request under the given deadline — the same model the node's own
// admission control uses (Scheduler.FeasibleWithin).
func (v NodeView) Predict(model string, batch int, deadline, now time.Duration) (time.Duration, error) {
	_, predicted, err := v.node.FeasibleWithin(model, batch, deadline, now)
	return predicted, err
}

// Policy orders the eligible nodes for one request. Route appends
// indices INTO views, in preference order, to order[:0] and returns the
// result — the router passes a pooled buffer, so routing allocates
// nothing once it has grown. The router tries them in turn (bounded by
// maxAttempts), so position 1 is the failover target of position 0.
// Implementations must be deterministic given their own state and the
// inputs — the cluster's seeded-replay guarantee (same trace, same seed
// ⇒ identical routing decisions) rests on it.
type Policy interface {
	Name() string
	Route(req Request, views []NodeView, order []int) []int
}

// PolicyByName builds a routing policy from its CLI/API name:
// round-robin, least-loaded, model-affinity or weighted-scoring. The
// seed parameterises hash-based policies (model-affinity's placement
// salt) so distinct fleets can disagree about model homes while one
// fleet stays deterministic.
func PolicyByName(name string, seed int64) (Policy, error) {
	switch name {
	case "round-robin", "":
		return NewRoundRobin(), nil
	case "least-loaded":
		return LeastLoaded{}, nil
	case "model-affinity":
		return ModelAffinity{Seed: seed}, nil
	case "weighted-scoring":
		return WeightedScoring{}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown routing policy %q (want round-robin, least-loaded, model-affinity or weighted-scoring)", name)
	}
}

// RoundRobin rotates a cursor over the eligible nodes: request k starts
// at position k mod n and wraps, so load spreads uniformly regardless of
// node state, and the failover order continues the rotation.
type RoundRobin struct {
	cursor atomic.Uint64
}

// NewRoundRobin builds a round-robin policy with its cursor at zero.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Policy.
func (*RoundRobin) Name() string { return "round-robin" }

// Route implements Policy. Every request advances the cursor, one node
// or many, so the rotation is the same whatever the fleet's size was;
// one node needs no division.
func (p *RoundRobin) Route(_ Request, views []NodeView, order []int) []int {
	order = order[:0]
	n := len(views)
	if n == 0 {
		return order
	}
	k := p.cursor.Add(1) - 1
	if n == 1 {
		return append(order, 0)
	}
	start := int(k % uint64(n))
	for i := 0; i < n; i++ {
		order = append(order, (start+i)%n)
	}
	return order
}

// LeastLoaded orders nodes by instantaneous occupancy (admission queue
// plus in-flight batches), ties broken by fleet index so the order is
// deterministic.
type LeastLoaded struct{}

// Name implements Policy.
func (LeastLoaded) Name() string { return "least-loaded" }

// Route implements Policy.
func (LeastLoaded) Route(_ Request, views []NodeView, order []int) []int {
	order = identity(order, len(views))
	slices.SortStableFunc(order, func(a, b int) int {
		va, vb := views[a], views[b]
		if va.Load != vb.Load {
			return cmp.Compare(va.Load, vb.Load)
		}
		return cmp.Compare(va.Index, vb.Index)
	})
	return order
}

// ModelAffinity routes each model to a stable "home" node via rendezvous
// (highest-random-weight) hashing over node names: the same model always
// lands on the same node while that node is eligible — concentrating a
// model's working set (warm caches, learned queue estimates) — and when
// the home node drains or dies, exactly that model's traffic moves to
// its next-highest node while every other model's home is undisturbed.
// The failover order IS the descending score order.
type ModelAffinity struct {
	// Seed salts the placement hash, decorrelating model homes across
	// fleets that share node names.
	Seed int64
}

// Name implements Policy.
func (ModelAffinity) Name() string { return "model-affinity" }

// Route implements Policy.
func (p ModelAffinity) Route(req Request, views []NodeView, order []int) []int {
	for i := range views {
		views[i].score = int64(rendezvousScore(req.Model, views[i].Name, p.Seed))
	}
	order = identity(order, len(views))
	slices.SortStableFunc(order, func(a, b int) int {
		if sa, sb := uint64(views[a].score), uint64(views[b].score); sa != sb {
			return cmp.Compare(sb, sa)
		}
		return cmp.Compare(views[a].Index, views[b].Index)
	})
	return order
}

// FNV-1a, 64-bit (hash/fnv's New64a, computed in place).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// rendezvousScore is the FNV-1a hash of the seed's eight little-endian
// bytes, the model, a zero byte and the node.
func rendezvousScore(model, node string, seed int64) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(seed>>(8*i)))) * fnvPrime64
	}
	for i := 0; i < len(model); i++ {
		h = (h ^ uint64(model[i])) * fnvPrime64
	}
	h *= fnvPrime64 // the zero byte: h ^ 0 == h
	for i := 0; i < len(node); i++ {
		h = (h ^ uint64(node[i])) * fnvPrime64
	}
	return h
}

// WeightedScoring scores each node by the predicted slack of the request
// on it — SLO minus the node's predicted completion latency, the same
// per-node model admission control uses — and routes to the largest
// slack: the node most likely to make the deadline with room to spare.
// Nodes predicted infeasible (negative slack) rank after feasible ones,
// least-doomed first, so the failover order degrades gracefully.
// Requests without an SLO are scored on predicted latency alone (an
// hour-long virtual deadline turns the predictor into a pure latency
// model). Ties break on lower load, then lower fleet index.
type WeightedScoring struct{}

// Name implements Policy.
func (WeightedScoring) Name() string { return "weighted-scoring" }

// scoreHorizon is the deadline handed to the predictor for SLO-free
// requests: long enough that every node is "feasible" and the score
// reduces to predicted latency.
const scoreHorizon = time.Hour

// Route implements Policy.
func (WeightedScoring) Route(req Request, views []NodeView, order []int) []int {
	deadline := req.SLO
	if deadline <= 0 {
		deadline = scoreHorizon
	}
	now := req.Now()
	for i, v := range views {
		predicted, err := v.Predict(req.Model, req.Batch, deadline, now)
		if err != nil {
			// An unpredictable node (unknown model, no devices) scores
			// worst; Submit will surface the real error if it is tried.
			views[i].score = int64(-scoreHorizon)
			continue
		}
		views[i].score = int64(deadline - predicted)
	}
	order = identity(order, len(views))
	slices.SortStableFunc(order, func(a, b int) int {
		va, vb := views[a], views[b]
		if sa, sb := va.score, vb.score; sa != sb {
			return cmp.Compare(sb, sa)
		}
		if va.Load != vb.Load {
			return cmp.Compare(va.Load, vb.Load)
		}
		return cmp.Compare(va.Index, vb.Index)
	})
	return order
}

// identity appends 0..n-1 to order[:0].
func identity(order []int, n int) []int {
	order = order[:0]
	for i := 0; i < n; i++ {
		order = append(order, i)
	}
	return order
}
