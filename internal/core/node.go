package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// A Node is one serving box: a scheduler, its serving pipeline, its
// device set and its health state, behind the narrow surface the cluster
// tier routes over. The paper schedules inference inside one
// CPU+iGPU+dGPU machine; the Node makes that machine a replaceable unit,
// so a fleet of them can sit behind a routing front-end
// (internal/cluster) the way a single Pipeline sits behind the HTTP
// server today.
//
// Lifecycle: a Node starts Ready. Drain stops admission (new Submits
// fail fast with ErrNodeDraining), flushes and completes everything
// already accepted — every accepted future still resolves — and leaves
// the node Drained. Kill is the fail-stop drill for failover testing:
// the node refuses all new work with ErrNodeDown; work it had already
// accepted still resolves (the simulation cannot abandon a future — the
// exactly-once contract of the pipeline holds even through a kill).
// State transitions are serialised, so a Submit racing a Drain either
// completes its hand-off to the pipeline (and the drain resolves it) or
// observes the draining state and fails fast — a request is never
// silently dropped between router and node.
type Node struct {
	name  string
	sched *Scheduler
	pipe  *Pipeline

	// mu serialises state transitions against in-flight Submits: Submit
	// holds the read side across its pipeline hand-off, Drain/Kill take
	// the write side to flip the state, so after the flip no new request
	// can be midway into a pipeline that is about to close.
	mu    sync.RWMutex
	state NodeState
}

// NodeState is a node's lifecycle position.
type NodeState int32

const (
	// NodeReady accepts and serves work.
	NodeReady NodeState = iota
	// NodeDraining refuses new work while accepted work completes.
	NodeDraining
	// NodeDrained has completed every accepted request and stopped.
	NodeDrained
	// NodeKilled is fail-stopped: it refuses all work and never returns.
	NodeKilled
)

// MarshalText puts the state on the wire by name ("state":"ready").
func (s NodeState) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// String names the state for stats and API responses.
func (s NodeState) String() string {
	switch s {
	case NodeReady:
		return "ready"
	case NodeDraining:
		return "draining"
	case NodeDrained:
		return "drained"
	case NodeKilled:
		return "killed"
	default:
		return fmt.Sprintf("NodeState(%d)", int32(s))
	}
}

// Sentinel errors of the node lifecycle.
var (
	// ErrNodeDraining rejects work submitted to a draining node; the
	// router should pick another node.
	ErrNodeDraining = errors.New("core: node draining")
	// ErrNodeDown rejects work submitted to a drained or killed node.
	ErrNodeDown = errors.New("core: node down")
)

// NodeStats snapshots one node's serving activity.
type NodeStats struct {
	Name     string
	State    NodeState
	Pipeline PipelineStats
	// Decisions and Spills are the node scheduler's lifetime counts.
	Decisions int
	Spills    int
	// Quarantined lists the node's currently fenced-off devices, sorted.
	Quarantined []string
}

// NodeHealth is the cheap health summary the cluster tier aggregates:
// device-level quarantine/degradation (PR 3's failure domain) rolled up
// to node granularity.
type NodeHealth struct {
	State NodeState `json:"state"`
	// Devices is the node's device count; Quarantined and Degraded count
	// how many of them are currently fenced off or flagged as suffering
	// interference.
	Devices     int `json:"devices"`
	Quarantined int `json:"quarantined_devices"`
	Degraded    int `json:"degraded_devices"`
	// ExecFailures counts batches that exhausted every failover attempt.
	ExecFailures int64 `json:"exec_failures"`
	// Ready reports the node is schedulable: lifecycle-Ready with at
	// least one non-quarantined device.
	Ready bool `json:"ready"`
}

// NewNode wraps a scheduler and a freshly started pipeline into a node.
// The scheduler must not be shared with another live pipeline (the queue
// probe is per-pipeline); build per-node schedulers with
// Scheduler.Replica. cfg.Clock should be the fleet's shared virtual
// clock so every replica charges time on the same axis.
func NewNode(name string, sched *Scheduler, cfg PipelineConfig) *Node {
	return &Node{
		name:  name,
		sched: sched,
		pipe:  NewPipeline(sched, cfg),
	}
}

// Name returns the node's fleet-unique name.
func (n *Node) Name() string { return n.name }

// Scheduler exposes the node's scheduler — for model loading, fault
// injection and device introspection; routing goes through Submit.
func (n *Node) Scheduler() *Scheduler { return n.sched }

// Pipeline exposes the node's serving pipeline.
func (n *Node) Pipeline() *Pipeline { return n.pipe }

// State reports the node's lifecycle position.
func (n *Node) State() NodeState {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.state
}

// Submit admits one request into the node's pipeline. A node that is not
// Ready fails fast with ErrNodeDraining or ErrNodeDown so the router can
// fail over; the hand-off to the pipeline happens under the state lock's
// read side, so a concurrent Drain never closes the pipeline midway
// through an accept — an accepted future always resolves.
func (n *Node) Submit(ctx context.Context, req PipelineRequest) (*Future, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	switch n.state {
	case NodeReady:
	case NodeDraining:
		return nil, fmt.Errorf("%w: %s", ErrNodeDraining, n.name)
	default:
		return nil, fmt.Errorf("%w: %s is %s", ErrNodeDown, n.name, n.state)
	}
	return n.pipe.Submit(ctx, req)
}

// Do submits a request and waits for its completion.
func (n *Node) Do(ctx context.Context, req PipelineRequest) (Completion, error) {
	fut, err := n.Submit(ctx, req)
	if err != nil {
		return Completion{}, err
	}
	return fut.Wait(ctx)
}

// FeasibleWithin predicts whether this node can complete a batch within
// the deadline, and the best predicted completion latency — the
// weighted-scoring router's per-node slack estimate, identical to the
// node's own admission-control predictor.
func (n *Node) FeasibleWithin(model string, batch int, deadline, now time.Duration) (bool, time.Duration, error) {
	return n.sched.FeasibleWithin(model, batch, deadline, now)
}

// Load is the node's instantaneous occupancy (admission queue plus
// batches in flight) — the least-loaded router's signal.
func (n *Node) Load() int64 { return n.pipe.Load() }

// QueueDelay is the node pipeline's backlog estimate — the delay new
// work would observe behind already-queued batches on its worst device.
func (n *Node) QueueDelay() time.Duration { return n.pipe.QueueDelay() }

// Capacity is the node pipeline's occupancy budget — the denominator of
// the cluster brownout controller's fleet occupancy ratio.
func (n *Node) Capacity() int64 { return n.pipe.Capacity() }

// AvgLatency is the node pipeline's delivered-batch completion-latency
// EWMA — the cluster tier's per-node straggler signal.
func (n *Node) AvgLatency() time.Duration { return n.pipe.AvgLatency() }

// SetWindowScale rescales the node's live batching window (brownout
// level 3: trade latency for batch efficiency under fleet overload).
func (n *Node) SetWindowScale(scale float64) { n.pipe.SetWindowScale(scale) }

// Stats snapshots the node's serving activity.
func (n *Node) Stats() NodeStats {
	ss := n.sched.Stats()
	return NodeStats{
		Name:        n.name,
		State:       n.State(),
		Pipeline:    n.pipe.Stats(),
		Decisions:   ss.Decisions,
		Spills:      ss.Spills,
		Quarantined: ss.Quarantined,
	}
}

// Health rolls the node's device-level failure domain up to node
// granularity for the cluster's health aggregation.
func (n *Node) Health() NodeHealth {
	h := NodeHealth{
		State:        n.State(),
		Devices:      len(n.sched.devices),
		ExecFailures: n.pipe.execFails.Load(),
	}
	mon := n.sched.monitor()
	for _, d := range n.sched.devices {
		if mon.isQuarantined(d.Name()) {
			h.Quarantined++
		}
		if mon.degraded(d.Name()) {
			h.Degraded++
		}
	}
	h.Ready = h.State == NodeReady && h.Quarantined < h.Devices
	return h
}

// transition flips the node into next and reports whether the caller won
// the transition (and therefore owns the pipeline close that follows).
// Terminal states never transition again.
func (n *Node) transition(next NodeState) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch n.state {
	case NodeDrained, NodeKilled:
		return false
	case NodeDraining:
		// A concurrent Drain owns the close; Kill may still escalate the
		// label but must not close twice.
		if next == NodeKilled {
			n.state = next
		}
		return false
	}
	n.state = next
	return true
}

// settle records the post-close resting state unless a Kill escalated
// the node while it was draining.
func (n *Node) settle(final NodeState) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.state == NodeDraining {
		n.state = final
	}
}

// Drain stops admission and completes everything already accepted:
// after Drain returns, every future the node ever handed out has
// resolved and the node is Drained. Drain is idempotent and safe to call
// concurrently with Submits — the state flips first, so the router sees
// ErrNodeDraining and fails over while the accepted tail completes.
func (n *Node) Drain() {
	if n.transition(NodeDraining) {
		n.pipe.Close()
		n.settle(NodeDrained)
		return
	}
	// Someone else owns the close; wait for it so Drain's "everything
	// resolved" contract holds for every caller, then record the resting
	// state (settle is a no-op unless the node is still Draining, so a
	// concurrent Kill's escalation survives).
	n.pipe.Close()
	n.settle(NodeDrained)
}

// Kill fail-stops the node for failure drills: new work is refused with
// ErrNodeDown immediately, and the already-accepted tail resolves (the
// pipeline's exactly-once future contract survives the kill).
func (n *Node) Kill() {
	if n.transition(NodeKilled) {
		n.pipe.Close()
		return
	}
	n.pipe.Close()
}

// Close drains the node (the io.Closer-shaped alias Drain).
func (n *Node) Close() { n.Drain() }
