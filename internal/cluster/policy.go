package cluster

import (
	"fmt"
	"time"
)

// Policy names the rule that ranks the routable nodes for one request.
// The router tries the first maxAttempts of the ranking in turn, so
// position k+1 is position k's failover target. Every rule is
// deterministic given the fleet's state and the request sequence: the
// cluster's seeded-replay guarantee (same trace ⇒ identical routing
// decisions) rests on it. The zero value is round-robin.
//
// Each rule won a setting of the routing drill that the others lost
// (EXPERIMENTS.md, "Routing-policy drill"); DESIGN.md names which.
type Policy string

// The routing rules.
const (
	// RoundRobin rotates a cursor over the routable nodes: request k
	// starts at position k mod n, and the failover order continues the
	// rotation.
	RoundRobin Policy = "round-robin"
	// LeastLoaded ranks by instantaneous occupancy (Node.Load: admission
	// queue plus in-flight batches), ties by fleet index.
	LeastLoaded Policy = "least-loaded"
	// ModelAffinity ranks by the rendezvous (highest-random-weight) hash
	// of the model and the node's name, highest first, ties by fleet
	// index. A model keeps its home node while that node is routable;
	// when the home leaves, only that model's traffic moves, to its
	// next-highest node.
	ModelAffinity Policy = "model-affinity"
)

// PolicyByName parses a routing rule's CLI/API name: round-robin (also
// ""), least-loaded or model-affinity.
func PolicyByName(name string) (Policy, error) {
	switch p := Policy(name); p {
	case "":
		return RoundRobin, nil
	case RoundRobin, LeastLoaded, ModelAffinity:
		return p, nil
	}
	return "", fmt.Errorf("cluster: unknown routing policy %q (want round-robin, least-loaded or model-affinity)", name)
}

// rank writes the fleet indices of up to maxAttempts routable members
// into order, best first under the policy, and returns how many it
// wrote. Each rule reduces to one key per member, lower first; the walk
// keeps the best keys by insertion, so ranking allocates nothing, and a
// member displaces an earlier one only with a strictly lower key, so
// ties go to the lower fleet index.
func (c *Cluster) rank(model string, order *[maxAttempts]int) int {
	now := c.faultNow()
	// Round-robin's key is a routable member's position in the rotation
	// that starts at the cursor, so it counts the routable set first.
	// Every request advances the cursor, however many nodes are routable.
	var start, n, pos uint64
	if c.cfg.Policy == RoundRobin {
		k := c.cursor.Add(1) - 1
		for _, m := range c.members {
			if c.routable(m, now) {
				n++
			}
		}
		if n == 0 {
			return 0
		}
		start = k % n
	}
	var keys [maxAttempts]uint64
	found := 0
	for _, m := range c.members {
		if !c.routable(m, now) {
			continue
		}
		var key uint64
		switch c.cfg.Policy {
		case RoundRobin:
			key = (pos + n - start) % n
			pos++
		case LeastLoaded:
			key = uint64(m.node.Load())
		case ModelAffinity:
			key = ^rendezvousScore(model, m.node.Name())
		}
		if found == maxAttempts {
			if key >= keys[found-1] {
				continue
			}
			found--
		}
		i := found
		for ; i > 0 && key < keys[i-1]; i-- {
			keys[i], order[i] = keys[i-1], order[i-1]
		}
		keys[i], order[i] = key, m.idx
		found++
	}
	return found
}

// routable reports whether m is in the routing set at now: not inside a
// fault plan's down window, not evicted by the operator, and Ready.
func (c *Cluster) routable(m *member, now time.Duration) bool {
	return !c.down(m, now) && !m.evicted.Load() && m.node.Ready()
}

// down reports whether m is inside a fault plan's down window at now,
// and counts the window's edges: the read that first finds the node
// down counts a trip, the one that first finds it up again a recovery.
// Each edge costs one compare-and-swap; no plan, no read.
func (c *Cluster) down(m *member, now time.Duration) bool {
	if c.cfg.Faults == nil {
		return false
	}
	down, _ := c.cfg.Faults.Down(m.node.Name(), now)
	if m.chaosDown.Load() != down && m.chaosDown.CompareAndSwap(!down, down) {
		if down {
			c.chaosTrips.Add(1)
		} else {
			c.chaosRecoveries.Add(1)
		}
	}
	return down
}

// faultNow reads the fleet clock for the fault plan's down windows, and
// skips the read when no plan is armed.
func (c *Cluster) faultNow() time.Duration {
	if c.cfg.Faults == nil {
		return 0
	}
	return c.cfg.Clock.Now()
}

// FNV-1a, 64-bit (hash/fnv's New64a, computed in place).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// rendezvousScore is the FNV-1a hash of the model, a zero byte and the
// node.
func rendezvousScore(model, node string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(model); i++ {
		h = (h ^ uint64(model[i])) * fnvPrime64
	}
	h *= fnvPrime64 // the zero byte: h ^ 0 == h
	for i := 0; i < len(node); i++ {
		h = (h ^ uint64(node[i])) * fnvPrime64
	}
	return h
}
