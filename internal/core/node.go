package core

import (
	"context"
	"errors"
	"fmt"
)

// A Node is one serving box: a named Pipeline (its scheduler, device
// set and health state with it) behind the narrow surface the cluster
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
// The lifecycle is the pipeline's own (see Pipeline.Submit and Close):
// the node adds only its name, to routing and to refusals, and has no
// lock or state of its own.
type Node struct {
	*Pipeline
	name string
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

// Sentinel errors of the node lifecycle. Both are also
// ErrPipelineClosed, so a bare pipeline's callers keep matching.
var (
	// ErrNodeDraining rejects work submitted to a draining node; the
	// router should pick another node.
	ErrNodeDraining error = refusal("core: node draining")
	// ErrNodeDown rejects work submitted to a drained or killed node.
	ErrNodeDown error = refusal("core: node down")
)

// refusal is a lifecycle sentinel: its own message over a closed
// pipeline.
type refusal string

func (e refusal) Error() string { return string(e) }
func (refusal) Unwrap() error   { return ErrPipelineClosed }

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

// NodeHealth is a node's health summary: device-level
// quarantine/degradation (the scheduler's failure domain) rolled up to
// node granularity.
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
	return &Node{Pipeline: NewPipeline(sched, cfg), name: name}
}

// Name returns the node's fleet-unique name.
func (n *Node) Name() string { return n.name }

// Scheduler exposes the node's scheduler — for model loading, fault
// injection and device introspection; routing goes through Submit.
func (n *Node) Scheduler() *Scheduler { return n.sched }

// Submit admits one request into the node's pipeline. A node that is not
// Ready fails fast with ErrNodeDraining or ErrNodeDown, named after the
// node, so the router can fail over.
func (n *Node) Submit(ctx context.Context, req PipelineRequest) (*Future, error) {
	fut, err := n.Pipeline.Submit(ctx, req)
	if errors.Is(err, ErrPipelineClosed) {
		return nil, fmt.Errorf("%w: %s", err, n.name)
	}
	return fut, err
}

// Ready reports whether the node is schedulable: lifecycle-Ready with
// fewer devices quarantined than it has. The router reads it for every
// member on every request, so it is two atomic loads and takes no lock;
// Health().Ready is the same answer inside a fuller snapshot.
func (n *Node) Ready() bool {
	return n.State() == NodeReady && int(n.sched.health.fenced.Load()) < len(n.sched.devices)
}

// Stats snapshots the node's serving activity.
func (n *Node) Stats() NodeStats {
	ss := n.sched.Stats()
	return NodeStats{
		Name:        n.name,
		State:       n.State(),
		Pipeline:    n.Pipeline.Stats(),
		Decisions:   ss.Decisions,
		Spills:      ss.Spills,
		Quarantined: ss.Quarantined,
	}
}

// Health rolls the node's device-level failure domain up to node
// granularity: the per-node row of the fleet's stats and of /v1/nodes.
func (n *Node) Health() NodeHealth {
	h := NodeHealth{
		State:        n.State(),
		Devices:      len(n.sched.devices),
		ExecFailures: n.execFails.Load(),
	}
	mon := n.sched.health
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

// Drain stops admission and completes everything already accepted:
// after Drain returns, every future the node ever handed out has
// resolved and the node is Drained (or Killed, if a Kill overtook the
// drain). Drain is idempotent and safe to call concurrently with
// Submits — the state flips first, so the router sees ErrNodeDraining
// and fails over while the accepted tail completes.
func (n *Node) Drain() { n.shutdown(NodeDrained) }

// Kill fail-stops the node for failure drills: new work is refused with
// ErrNodeDown immediately, and the already-accepted tail resolves (the
// pipeline's exactly-once future contract survives the kill). A drained
// node stays Drained.
func (n *Node) Kill() { n.shutdown(NodeKilled) }
