// Package cluster is the scale-out tier over internal/core: N serving
// nodes — each one scheduler + pipeline + device set, the paper's whole
// single-box system — behind a routing front-end (three routing rules,
// see Policy) and fleet-wide statistics. The single box of the paper
// becomes a replaceable unit: the router picks a node per request among
// the nodes that are ready now, and fails over when a node sheds or
// dies. A node leaves routing the moment it stops being Ready — drained,
// killed, or every device quarantined (the device failure domain rolled
// up to the node) — and returns the moment its recovery prober readmits
// a device.
//
// All nodes share one virtual clock, so fleet-wide latency, energy and
// SLO accounting stay on a single time axis exactly as they do inside
// one node.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bomw/internal/core"
	"bomw/internal/fault"
)

// Node is the narrow surface the cluster routes over — what
// internal/core's Node provides: admission, a cheap load signal,
// stats/health snapshots and lifecycle control.
type Node interface {
	Name() string
	Submit(ctx context.Context, req core.PipelineRequest) (*core.Future, error)
	// Ready reports whether the node takes traffic now. The router reads
	// it for every member on every request, so it must be cheap and
	// lock-free.
	Ready() bool
	Load() int64
	QueueDelay() time.Duration
	// AvgLatency is the node's delivered-batch completion-latency EWMA,
	// the per_node avg_latency_us reading. Zero until the node has served.
	AvgLatency() time.Duration
	Stats() core.NodeStats
	Health() core.NodeHealth
	// Drain and Kill may race: the node orders them itself, and a Kill
	// overtakes a drain in progress.
	Drain()
	Kill()
}

// Sentinel errors of the routing tier.
var (
	// ErrNoHealthyNodes is returned by Submit when the routing set is
	// empty — every node evicted, not Ready or inside a down window. The
	// fleet-level load-shedding signal: HTTP servers translate it to 503
	// with a Retry-After derived from ReadmissionHint.
	ErrNoHealthyNodes = errors.New("cluster: no healthy nodes")
	// ErrUnknownNode names a node the cluster does not have.
	ErrUnknownNode = errors.New("cluster: unknown node")
)

// maxAttempts bounds how many nodes one Submit may try: the policy's
// first choice plus failovers onto the next-ranked nodes when a node
// refuses (see refusal).
const maxAttempts = 3

// Config parameterises the cluster.
type Config struct {
	// Policy ranks candidate nodes per request. Defaults to round-robin.
	Policy Policy
	// Clock is the fleet's shared virtual clock. Every node's pipeline
	// should be built on the same one. Defaults to core.WallClock() —
	// wall time since the cluster was created (the serving mapping).
	Clock core.Clock

	// Faults evaluates a fault plan on the shared virtual clock; nil
	// injects none. New arms it on every *core.Node member's runtime, so
	// the plan's device faults and slow nodes act there, and its down
	// windows act here, at the routing tier: the node is skipped by
	// routing for the window, then it is routable again — the
	// flapping-restart model.
	Faults *fault.Injector
}

func (c *Config) fillDefaults() {
	if c.Policy == "" {
		c.Policy = RoundRobin
	}
	if c.Clock == nil {
		c.Clock = core.WallClock()
	}
}

// member is one node plus the cluster-side routing state around it.
type member struct {
	node Node
	idx  int

	evicted  atomic.Bool  // evicted by the operator: only Readmit returns it
	routed   atomic.Int64 // requests this node accepted
	rerouted atomic.Int64 // requests accepted after another node refused

	// chaosDown is whether the router last read the node inside a down
	// window, so that each window entry and exit is counted once.
	chaosDown atomic.Bool
}

// Cluster is N nodes behind a routing policy on a shared virtual clock.
type Cluster struct {
	cfg     Config
	members []*member
	byName  map[string]*member

	cursor     atomic.Uint64 // round-robin's rotation
	submits    atomic.Int64  // Submit calls
	routeFails atomic.Int64  // submits no node accepted
	closeOnce  sync.Once

	chaosTrips      atomic.Int64 // down-window entries observed
	chaosRecoveries atomic.Int64 // down-window exits observed
}

// New builds a cluster over pre-built nodes. Node names must be unique —
// they are the fleet's operator-facing identity (drain/evict/readmit
// target names, stats keys). A node's position in nodes is its index in
// cfg.Faults' plan.
func New(nodes []Node, cfg Config) (*Cluster, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	cfg.fillDefaults()
	if _, err := PolicyByName(string(cfg.Policy)); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, byName: make(map[string]*member, len(nodes))}
	for i, n := range nodes {
		if n == nil {
			return nil, fmt.Errorf("cluster: node %d is nil", i)
		}
		if _, dup := c.byName[n.Name()]; dup {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n.Name())
		}
		m := &member{node: n, idx: i}
		c.members = append(c.members, m)
		c.byName[n.Name()] = m
	}
	for i, n := range nodes {
		if cn, ok := n.(*core.Node); ok && cfg.Faults != nil {
			cn.Scheduler().Runtime().SetFaults(cfg.Faults, cn.Name(), i)
		}
	}
	return c, nil
}

// FleetNames lists the names Build gives an n-node fleet,
// node0..node{n-1}: what a fault plan written before the fleet exists
// targets.
func FleetNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("node%d", i)
	}
	return names
}

// Build replicates a trained template scheduler into n nodes named
// node0..node{n-1} — node0 serves on the template itself, the rest on
// Scheduler.Replica copies (shared classifiers, fresh devices; the
// template's networks too wherever seed is the one it loaded them with,
// so n nodes hold the weights once) — and wires them into a cluster on
// one shared clock. pcfg.Clock is
// overridden with the cluster clock (cfg.Clock, defaulting to wall time
// since creation).
func Build(template *core.Scheduler, n int, seed int64, pcfg core.PipelineConfig, cfg Config) (*Cluster, []*core.Node, error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("cluster: need at least one node, got %d", n)
	}
	cfg.fillDefaults()
	pcfg.Clock = cfg.Clock
	scheds := []*core.Scheduler{template}
	for i := 1; i < n; i++ {
		rep, err := template.Replica(seed)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: building node%d: %w", i, err)
		}
		scheds = append(scheds, rep)
	}
	var coreNodes []*core.Node
	var nodes []Node
	names := FleetNames(n)
	for i, s := range scheds {
		nd := core.NewNode(names[i], s, pcfg)
		coreNodes = append(coreNodes, nd)
		nodes = append(nodes, nd)
	}
	c, err := New(nodes, cfg)
	if err != nil {
		for _, nd := range coreNodes {
			nd.Drain()
		}
		return nil, nil, err
	}
	return c, coreNodes, nil
}

// Faults returns the fault plan's injector, nil when none is armed.
func (c *Cluster) Faults() *fault.Injector { return c.cfg.Faults }

// Clock returns a reader of the fleet's shared virtual clock.
func (c *Cluster) Clock() func() time.Duration { return c.cfg.Clock.Now }

// Size returns the fleet size (including evicted nodes).
func (c *Cluster) Size() int { return len(c.members) }

// NodeNames lists the fleet's node names in index order.
func (c *Cluster) NodeNames() []string {
	out := make([]string, len(c.members))
	for i, m := range c.members {
		out[i] = m.node.Name()
	}
	return out
}

// Submit routes one request to a node and admits it there. The policy
// ranks the routable nodes; the router tries up to maxAttempts of them,
// failing over past every node that refuses: one that sheds
// (ErrAdmissionFull), predicts an SLO miss (ErrDeadlineInfeasible) or is
// down, draining or closed. A node that is not Ready — drained, killed,
// or with every device quarantined — is not ranked at all: readiness is
// read live on every request. Validation errors (unknown model or
// policy, bad batch) are identical on every replica and surface
// immediately. On success the returned future resolves exactly once —
// the node pipeline's contract, unchanged by routing — and so does
// core.PipelineRequest.Input's: the future returned is the accepting
// node's own, so no path copies the input, and no node reads req.Input
// once the future has resolved or Submit has returned an error.
func (c *Cluster) Submit(ctx context.Context, req core.PipelineRequest) (*core.Future, error) {
	c.submits.Add(1)
	var order [maxAttempts]int
	n := c.rank(req.Model, &order)
	if n == 0 {
		c.routeFails.Add(1)
		return nil, fmt.Errorf("%w: all %d nodes evicted, not ready or in a down window", ErrNoHealthyNodes, len(c.members))
	}
	var lastErr error
	for i, idx := range order[:n] {
		m := c.members[idx]
		fut, err := m.node.Submit(ctx, req)
		if err == nil {
			m.routed.Add(1)
			if i > 0 {
				m.rerouted.Add(1)
			}
			return fut, nil
		}
		if !refusal(err) {
			return nil, err
		}
		lastErr = err
	}
	c.routeFails.Add(1)
	return nil, lastErr
}

// refusal reports whether a node's Submit error is about the node, not
// the request, so that another node may accept it: overload or an SLO
// the node cannot meet, or a node that is down, draining or closed.
func refusal(err error) bool {
	return errors.Is(err, core.ErrAdmissionFull) || errors.Is(err, core.ErrDeadlineInfeasible) ||
		errors.Is(err, core.ErrNodeDraining) || errors.Is(err, core.ErrNodeDown) || errors.Is(err, core.ErrPipelineClosed)
}

// QueueDelay is the fleet's best-case backlog estimate: the smallest
// per-node pipeline queue delay over the routable nodes — the soonest a
// retried request could plausibly find room anywhere. Zero when no node
// is routable (callers apply their own floor).
func (c *Cluster) QueueDelay() time.Duration {
	now := c.faultNow()
	var best time.Duration
	found := false
	for _, m := range c.members {
		if !c.routable(m, now) {
			continue
		}
		if d := m.node.QueueDelay(); !found || d < best {
			best, found = d, true
		}
	}
	return best
}

// Do submits a request and waits for its completion.
func (c *Cluster) Do(ctx context.Context, req core.PipelineRequest) (core.Completion, error) {
	fut, err := c.Submit(ctx, req)
	if err != nil {
		return core.Completion{}, err
	}
	return fut.Wait(ctx)
}

// findMember resolves an operator-facing node name.
func (c *Cluster) findMember(name string) (*member, error) {
	m, ok := c.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownNode, name, c.NodeNames())
	}
	return m, nil
}

// Drain drains a node: every request it had accepted resolves before
// Drain returns. The node leaves Ready as the drain begins, so the
// router stops ranking it at once, and a request that read it Ready just
// before is refused with ErrNodeDraining and fails over.
func (c *Cluster) Drain(name string) error {
	m, err := c.findMember(name)
	if err != nil {
		return err
	}
	m.node.Drain()
	return nil
}

// Evict removes a node from routing without touching the node — the
// operator's "stop sending traffic here" lever. The node keeps serving
// what it already accepted, and stays out of routing until Readmit.
func (c *Cluster) Evict(name string) error {
	m, err := c.findMember(name)
	if err != nil {
		return err
	}
	m.evicted.Store(true)
	return nil
}

// Readmit returns an evicted node to the routing set, refusing nodes
// that are not Ready (killed, drained, all devices quarantined): the
// operator is told the node would still take no traffic.
func (c *Cluster) Readmit(name string) error {
	m, err := c.findMember(name)
	if err != nil {
		return err
	}
	if h := m.node.Health(); !h.Ready {
		return fmt.Errorf("cluster: node %q is not ready (%s, %d/%d devices quarantined)",
			name, h.State, h.Quarantined, h.Devices)
	}
	m.evicted.Store(false)
	return nil
}

// Kill fail-stops a node (the failure drill): it leaves routing and
// refuses all new work immediately; requests it had already accepted
// still resolve. A Kill landing while the node drains overtakes the
// drain, as Node.Kill does: the node ends Killed.
func (c *Cluster) Kill(name string) error {
	m, err := c.findMember(name)
	if err != nil {
		return err
	}
	m.node.Kill()
	return nil
}

// Close drains every node concurrently; after Close returns, every
// future the fleet ever handed out has resolved. Idempotent.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		var wg sync.WaitGroup
		for _, m := range c.members {
			wg.Add(1)
			go func(m *member) {
				defer wg.Done()
				m.node.Drain()
			}(m)
		}
		wg.Wait()
	})
}

// ReadmissionHint is how soon a fleet-wide refusal is worth retrying:
// the soonest down-window close when a fault plan is armed, else a
// one-second floor covering the recovery prober, whose readmission of a
// device makes a node whose every device failed Ready again. Servers
// derive the Retry-After of ErrNoHealthyNodes 503s from it.
func (c *Cluster) ReadmissionHint() time.Duration {
	if in := c.cfg.Faults; in != nil {
		if d := in.NextRecovery(c.cfg.Clock.Now()); d > 0 {
			return d
		}
	}
	return time.Second
}

// NodeSnapshot is one node's row in the fleet stats; its JSON form is
// the /v1/cluster per_node row.
type NodeSnapshot struct {
	Name  string `json:"name"`
	State string `json:"state"`
	// Evicted marks a node the operator evicted (Evict, until Readmit).
	Evicted bool `json:"evicted"`
	// ChaosDown marks a node inside a scripted down window right now.
	ChaosDown bool `json:"chaos_down"`
	// AvgLatencyUs is the node's delivered-batch completion-latency
	// EWMA, in microseconds.
	AvgLatencyUs int64 `json:"avg_latency_us"`
	// Routed/Rerouted count router decisions that landed here; Rerouted
	// is the subset accepted after a higher-ranked node refused.
	Routed   int64 `json:"routed"`
	Rerouted int64 `json:"rerouted"`
	// Ledger is the node pipeline's accounting.
	core.Ledger
	// SLOAttainment is the ledger's Attainment.
	SLOAttainment float64 `json:"slo_attainment"`
	// Device failure domain, aggregated.
	Devices            int `json:"devices"`
	QuarantinedDevices int `json:"quarantined_devices"`
	DegradedDevices    int `json:"degraded_devices"`
}

// ChaosCounts are the scripted down-window edges the fleet has crossed.
type ChaosCounts struct {
	ChaosTrips      int64 `json:"trips"`      // down-window entries
	ChaosRecoveries int64 `json:"recoveries"` // down-window exits
}

// FleetStats aggregates the fleet: routing activity, membership, and the
// sum of every node's serving counters. Its JSON form is the body of
// /v1/cluster, which adds the fault plan.
type FleetStats struct {
	Policy string `json:"policy"`
	Nodes  int    `json:"nodes"`
	// Ready counts the members routable now: not evicted, not inside a
	// down window, and Ready.
	Ready int `json:"ready"`

	Submits       int64 `json:"submits"`        // routing attempts (Submit calls)
	RouteFailures int64 `json:"route_failures"` // submits no node accepted

	ChaosCounts `json:"chaos"`

	// Ledger sums the nodes' ledgers. Its Shed and Infeasible therefore
	// count node refusals, one per node a request was tried on, not
	// requests: a deadline request all three nodes of a fleet refuse
	// reads Infeasible 3, RouteFailures 1 and Submits 1.
	core.Ledger
	// SLOAttainment is fleet-wide ok completions over admitted requests.
	SLOAttainment float64 `json:"slo_attainment"`

	PerNode []NodeSnapshot `json:"per_node"`
}

// Stats snapshots the fleet.
func (c *Cluster) Stats() FleetStats {
	st := FleetStats{Policy: string(c.cfg.Policy), Nodes: len(c.members)}
	st.Submits = c.submits.Load()
	st.RouteFailures = c.routeFails.Load()
	now := c.faultNow()
	for _, m := range c.members {
		ns := m.node.Stats()
		h := m.node.Health()
		snap := NodeSnapshot{
			Name:               ns.Name,
			State:              ns.State.String(),
			Evicted:            m.evicted.Load(),
			AvgLatencyUs:       m.node.AvgLatency().Microseconds(),
			Routed:             m.routed.Load(),
			Rerouted:           m.rerouted.Load(),
			Ledger:             ns.Pipeline.Ledger,
			SLOAttainment:      ns.Pipeline.Attainment(),
			Devices:            h.Devices,
			QuarantinedDevices: h.Quarantined,
			DegradedDevices:    h.Degraded,
			ChaosDown:          c.down(m, now),
		}
		if !snap.Evicted && !snap.ChaosDown && h.Ready {
			st.Ready++
		}
		st.Add(snap.Ledger)
		st.PerNode = append(st.PerNode, snap)
	}
	st.ChaosTrips = c.chaosTrips.Load()
	st.ChaosRecoveries = c.chaosRecoveries.Load()
	st.SLOAttainment = st.Ledger.Attainment()
	return st
}
