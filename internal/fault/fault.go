// Package fault is the fleet's one deterministic fault plan: device
// errors, latency spikes and outages, and node crash windows and
// slowdowns, scripted on the shared virtual clock (core.Clock time) and
// drawn from one seed. The same plan and the same call sequence replay
// the same incident — the property every failure-domain test, soak and
// drill rests on.
//
// A Plan is a value: Parse builds one from a spec, a test writes one as
// a literal, and its JSON form is what /v1/cluster reports. An Injector
// evaluates a plan at the two points that ask: the simulated runtime,
// once per execution ("does this (node, device) execution at t fail, or
// stretch by how much?"), and the cluster's router ("is node n down at
// t, and until when?").
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"
	"unicode/utf8"
)

// Effect is what a fault does while its window is open.
type Effect string

const (
	// Err fails an execution with probability P.
	Err Effect = "err"
	// Spike stretches an execution's completion by Factor with
	// probability P: transient contention the health monitor should
	// notice without any request failing.
	Spike Effect = "spike"
	// Outage fails every execution.
	Outage Effect = "outage"
	// Down fail-stops the node at the routing tier: the router skips it,
	// work it already accepted still resolves, and when the window
	// closes the node is routable again without operator action.
	// Repeated short windows are the flapping-restart pattern.
	Down Effect = "down"
	// Slow stretches every execution's completion by Factor: a scripted
	// straggler, slow end to end, which its devices' observed slowdown
	// ratio and deadline admission see.
	Slow Effect = "slow"
)

// AllNodes as a Fault's Node targets every node of the fleet.
const AllNodes = "*"

// Fault is one scripted fault: a target, a window and an effect.
type Fault struct {
	// Node is a fleet node name, or AllNodes.
	Node string `json:"node"`
	// Device narrows the target to one device of the node; empty means
	// every device. A Down fault acts on the whole node and takes none.
	Device string `json:"device,omitempty"`
	// Start and End bound the window [Start, End) on the virtual clock.
	// A zero End never closes; Outage and Down windows must close.
	Start time.Duration `json:"start"`
	End   time.Duration `json:"end,omitempty"`
	// Effect is what the fault does inside its window.
	Effect Effect `json:"effect"`
	// P is an Err's or Spike's per-execution probability, in [0, 1].
	P float64 `json:"p,omitempty"`
	// Factor is a Spike's or Slow's latency multiplier, above 1.
	Factor float64 `json:"factor,omitempty"`
}

// Plan is a seeded list of faults. Seed drives every draw: executions
// on the device of the fleet's i-th node draw from the stream seeded
// (Seed + i) ^ fnv64a(device), so replicas do not fault in lockstep and
// a plan replays exactly.
type Plan struct {
	Seed   int64   `json:"seed"`
	Faults []Fault `json:"faults"`
}

// Validate reports the first fault whose fields do not fit its effect.
func (p Plan) Validate() error {
	for i, f := range p.Faults {
		if err := f.validate(); err != nil {
			return fmt.Errorf("fault: fault %d (%s on %s/%s): %w", i, f.Effect, f.Node, f.Device, err)
		}
	}
	return nil
}

func (f Fault) validate() error {
	switch {
	case f.Node == "":
		return errors.New("no node")
	case !utf8.ValidString(f.Node) || !utf8.ValidString(f.Device):
		return errors.New("target is not UTF-8")
	case f.Start < 0 || f.End != 0 && f.End <= f.Start:
		return fmt.Errorf("window [%v, %v) is empty or starts before 0", f.Start, f.End)
	}
	switch f.Effect {
	case Err, Spike:
		if !(f.P >= 0 && f.P <= 1) {
			return fmt.Errorf("p %v is outside [0,1]", f.P)
		}
	case Outage, Down:
		if f.End == 0 {
			return errors.New("window never closes")
		}
	case Slow:
	default:
		return fmt.Errorf("unknown effect %q", f.Effect)
	}
	if (f.Effect == Spike || f.Effect == Slow) && !(f.Factor > 1 && !math.IsInf(f.Factor, 1)) {
		return fmt.Errorf("factor %v must be finite and above 1", f.Factor)
	}
	if f.Effect == Down && f.Device != "" {
		return errors.New("down acts on a node, not a device")
	}
	return nil
}

// hits reports whether the fault covers device of node at virtual time
// at. Down faults are asked with an empty device.
func (f *Fault) hits(node, device string, at time.Duration) bool {
	return (f.Node == AllNodes || f.Node == node) && (f.Device == "" || f.Device == device) &&
		at >= f.Start && (f.End == 0 || at < f.End)
}

// Counts is one (node, device) stream's injector activity.
type Counts struct {
	Executions int64 // executions the injector inspected
	Errors     int64 // failures from an Err draw
	Outages    int64 // failures inside an Outage window
	Spikes     int64 // executions a Spike draw or a Slow fault stretched
}

// Injector evaluates one plan. The plan is fixed at construction, so
// Down and NextRecovery read it without locking; the per-(node, device)
// draw streams and counts are guarded by mu.
type Injector struct {
	plan Plan

	mu      sync.Mutex
	streams map[stream]*draws
}

type stream struct {
	node   int
	device string
}

type draws struct {
	seed int64
	rng  *rand.Rand // made on the first draw
	Counts
}

func (d *draws) draw() float64 {
	if d.rng == nil {
		d.rng = rand.New(rand.NewSource(d.seed))
	}
	return d.rng.Float64()
}

// NewInjector builds the injector for a plan. It keeps a copy of the
// faults, so the caller may go on changing its own.
func NewInjector(p Plan) *Injector {
	p.Faults = slices.Clone(p.Faults)
	return &Injector{plan: p, streams: map[stream]*draws{}}
}

// Plan returns the plan the injector evaluates; its Faults are the
// injector's own and must not be changed.
func (in *Injector) Plan() Plan { return in.plan }

// Exec decides one execution on device of node, the fleet's index-th
// node, at virtual time at. fail names why it fails ("outage" or
// "injected"), empty when it runs; stretch is the factor its completion
// stretches by, 1 for none. An Outage wins without a draw; then each
// Err draws, then each Spike, from the (node, device) stream; Slow
// factors multiply in without drawing. Callers serialise executions per
// device, so each stream's draw sequence is well defined.
func (in *Injector) Exec(node string, index int, device string, at time.Duration) (fail string, stretch float64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	key := stream{index, device}
	d := in.streams[key]
	if d == nil {
		h := fnv.New64a()
		h.Write([]byte(device))
		d = &draws{seed: (in.plan.Seed + int64(index)) ^ int64(h.Sum64())}
		in.streams[key] = d
	}
	d.Executions++
	faults := in.plan.Faults
	for i := range faults {
		if faults[i].Effect == Outage && faults[i].hits(node, device, at) {
			d.Outages++
			return "outage", 1
		}
	}
	for i := range faults {
		if f := &faults[i]; f.Effect == Err && f.P > 0 && f.hits(node, device, at) && d.draw() < f.P {
			d.Errors++
			return "injected", 1
		}
	}
	stretch = 1
	for i := range faults {
		f := &faults[i]
		switch {
		case !f.hits(node, device, at):
		case f.Effect == Slow, f.Effect == Spike && f.P > 0 && d.draw() < f.P:
			stretch *= f.Factor
		}
	}
	if stretch > 1 {
		d.Spikes++
	}
	return "", stretch
}

// Counts sums the fleet's index-th node's counts on device, or on every
// device of the node when device is empty.
func (in *Injector) Counts(index int, device string) Counts {
	in.mu.Lock()
	defer in.mu.Unlock()
	var c Counts
	for key, d := range in.streams {
		if key.node == index && (device == "" || key.device == device) {
			c.Executions += d.Executions
			c.Errors += d.Errors
			c.Outages += d.Outages
			c.Spikes += d.Spikes
		}
	}
	return c
}

// Down reports whether node is inside a Down window at virtual time now
// and, when it is, how long until that window closes.
func (in *Injector) Down(node string, now time.Duration) (bool, time.Duration) {
	for i := range in.plan.Faults {
		if f := &in.plan.Faults[i]; f.Effect == Down && f.hits(node, "", now) {
			return true, f.End - now
		}
	}
	return false, 0
}

// NextRecovery is how long until the soonest close of a Down window open
// at now; zero when no node is down. Servers derive the Retry-After of
// fleet-wide 503s from it.
func (in *Injector) NextRecovery(now time.Duration) time.Duration {
	var soonest time.Duration
	for i := range in.plan.Faults {
		f := &in.plan.Faults[i]
		if f.Effect == Down && f.Start <= now && now < f.End && (soonest == 0 || f.End-now < soonest) {
			soonest = f.End - now
		}
	}
	return soonest
}
