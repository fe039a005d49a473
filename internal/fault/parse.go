package fault

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// maxFlaps bounds the down windows one crash clause may give a node: a
// spec is outside input, and each window is a Fault in the plan.
const maxFlaps = 1000

// Parse builds the plan a spec scripts, seeded with seed, for a fleet
// whose nodes are named nodes, in index order:
//
//	spec   = clause *(";" clause)
//	clause = target "=" effect *("," effect)
//	       | gen *("," gen)
//	target = (node | "*") ["/" device]
//	effect = "err:" p | "spike:" p ":" factor | "slow:" factor
//	       | "outage:" window | "down:" window
//	window = duration "-" duration
//	gen    = "crash:" count [":" flaps]
//	       | "slow:" count [":" factor]
//	       | "horizon:" duration
//	       | "crashlen:" duration
//
// A target is everything before the clause's first "=", and its device
// everything after the target's first "/", so device names may contain
// spaces. Windows are [start, end) on the virtual clock — for a server,
// time since it started. The gen clauses script a seeded incident: crash
// picks count nodes and gives each flaps down windows (default 2),
// spread over the horizon (default 10s) with crashlen each (default
// horizon/8); slow picks count other nodes and slows them factor×
// (default 4) for the whole run. Which nodes and when derive from seed
// alone: the same seed replays the same incident.
func Parse(spec string, seed int64, nodes []string) (Plan, error) {
	plan := Plan{Seed: seed}
	var gen incident
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		var err error
		if target, effects, ok := strings.Cut(clause, "="); ok {
			plan.Faults, err = appendClause(plan.Faults, target, effects, nodes)
		} else {
			err = gen.parse(clause)
		}
		if err != nil {
			return Plan{}, fmt.Errorf("fault: %q: %w", clause, err)
		}
	}
	if gen.crash > 0 || gen.slow > 0 {
		faults, err := gen.faults(seed, nodes)
		if err != nil {
			return Plan{}, fmt.Errorf("fault: %q: %w", spec, err)
		}
		plan.Faults = append(plan.Faults, faults...)
	}
	if len(plan.Faults) == 0 {
		return Plan{}, fmt.Errorf("fault: spec %q scripts no faults", spec)
	}
	return plan, nil
}

// appendClause appends the faults of one target=effect,... clause.
func appendClause(faults []Fault, target, effects string, nodes []string) ([]Fault, error) {
	node, device, hasDevice := strings.Cut(target, "/")
	node, device = strings.TrimSpace(node), strings.TrimSpace(device)
	if node != AllNodes && !slices.Contains(nodes, node) {
		return nil, fmt.Errorf("node %q is neither %s nor one of the fleet's %d nodes", node, AllNodes, len(nodes))
	}
	if hasDevice && device == "" {
		return nil, errors.New("empty device after /")
	}
	for _, e := range strings.Split(effects, ",") {
		kind, arg, _ := strings.Cut(strings.TrimSpace(e), ":")
		f := Fault{Node: node, Device: device, Effect: Effect(kind)}
		var err error
		switch f.Effect {
		case Err:
			f.P, err = parseFloat(arg)
		case Spike:
			p, factor, ok := strings.Cut(arg, ":")
			if !ok {
				return nil, fmt.Errorf("%q: spike needs p:factor", e)
			}
			if f.P, err = parseFloat(p); err == nil {
				f.Factor, err = parseFloat(factor)
			}
		case Slow:
			f.Factor, err = parseFloat(arg)
		case Outage, Down:
			start, end, ok := strings.Cut(arg, "-")
			if !ok {
				return nil, fmt.Errorf("%q: %s needs start-end durations", e, kind)
			}
			if f.Start, err = time.ParseDuration(strings.TrimSpace(start)); err == nil {
				f.End, err = time.ParseDuration(strings.TrimSpace(end))
			}
		default:
			return nil, fmt.Errorf("unknown effect %q (want err, spike, slow, outage or down)", kind)
		}
		if err == nil {
			err = f.validate()
		}
		if err != nil {
			return nil, fmt.Errorf("%q: %w", e, err)
		}
		faults = append(faults, f)
	}
	return faults, nil
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(strings.TrimSpace(s), 64) }

// incident is what a spec's gen clauses ask the seeded generator for.
type incident struct {
	crash, flaps, slow int
	factor             float64
	horizon, crashLen  time.Duration
}

// parse reads one clause of comma-separated gen items.
func (c *incident) parse(clause string) error {
	for _, item := range strings.Split(clause, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		kind, rest, _ := strings.Cut(item, ":")
		var err error
		switch kind {
		case "crash":
			count, flaps, hasFlaps := strings.Cut(rest, ":")
			if c.crash, err = strconv.Atoi(count); err != nil || c.crash < 0 {
				return errors.New("crash count must be a non-negative integer")
			}
			if hasFlaps {
				if c.flaps, err = strconv.Atoi(flaps); err != nil || c.flaps <= 0 || c.flaps > maxFlaps {
					return fmt.Errorf("flap count must be an integer in [1,%d]", maxFlaps)
				}
			}
		case "slow":
			count, factor, hasFactor := strings.Cut(rest, ":")
			if c.slow, err = strconv.Atoi(count); err != nil || c.slow < 0 {
				return errors.New("slow count must be a non-negative integer")
			}
			if hasFactor {
				if c.factor, err = parseFloat(factor); err != nil || !(c.factor > 1) || math.IsInf(c.factor, 1) {
					return errors.New("slow factor must be finite and above 1")
				}
			}
		case "horizon", "crashlen":
			d, err := time.ParseDuration(rest)
			if err != nil || d <= 0 {
				return fmt.Errorf("%s must be a positive duration", kind)
			}
			if kind == "horizon" {
				c.horizon = d
			} else {
				c.crashLen = d
			}
		default:
			return fmt.Errorf("unknown clause %q (want node=effect, or crash, slow, horizon or crashlen)", kind)
		}
	}
	return nil
}

// faults draws the incident over nodes: a seeded Fisher–Yates shuffle
// picks the crash nodes, then the slow ones; each crash node's horizon
// is cut into one slot per flap, and each window lands in its slot with
// seeded jitter, so a node's windows are sorted and never overlap.
// Every choice derives from seed alone.
func (c incident) faults(seed int64, nodes []string) ([]Fault, error) {
	if c.horizon <= 0 {
		c.horizon = 10 * time.Second
	}
	if c.crashLen <= 0 {
		c.crashLen = c.horizon / 8
	}
	if c.flaps <= 0 {
		c.flaps = 2
	}
	if c.factor <= 1 {
		c.factor = 4
	}
	if c.crash > len(nodes) || c.slow > len(nodes)-c.crash {
		return nil, fmt.Errorf("%d crash and %d slow nodes asked of a %d-node fleet", c.crash, c.slow, len(nodes))
	}
	slot := c.horizon / time.Duration(c.flaps)
	length := min(c.crashLen, slot/2) // a flap must also recover within its slot
	if c.crash > 0 && length <= 0 {
		return nil, fmt.Errorf("horizon %v is too short for %d flaps", c.horizon, c.flaps)
	}
	picked := slices.Clone(nodes)
	state := uint64(seed) ^ 0xc8a5c5d9ef2bb14d
	for i := len(picked) - 1; i > 0; i-- {
		state = splitmix64(state)
		j := int(state % uint64(i+1))
		picked[i], picked[j] = picked[j], picked[i]
	}
	var out []Fault
	for _, node := range picked[:c.crash] {
		for f := 0; f < c.flaps; f++ {
			state = splitmix64(state)
			start := time.Duration(f)*slot + time.Duration(state%uint64(slot-length))
			out = append(out, Fault{Node: node, Start: start, End: start + length, Effect: Down})
		}
	}
	for _, node := range picked[c.crash : c.crash+c.slow] {
		out = append(out, Fault{Node: node, Effect: Slow, Factor: c.factor})
	}
	return out, nil
}

// splitmix64 is the generator's stateless mixing function — the idiom
// the routing policies hash with — so generation needs no rand.Source
// to replay.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
