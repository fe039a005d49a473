package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"bomw/internal/fault"
)

// TestChaosPlansDeterministic is the replay property every soak rests
// on: the same (seed, fleet, spec) produces byte-identical plans, and a
// different seed picks a different incident.
func TestChaosPlansDeterministic(t *testing.T) {
	names := FleetNames(16)
	first, err := fault.Parse("crash:2,slow:2", 7, names)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := fault.Parse("crash:2,slow:2", 7, names)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("generation %d differs:\n%s\n%s", i, got, want)
		}
	}
	other, err := fault.Parse("crash:2,slow:2", 8, names)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(first.Faults, other.Faults) {
		t.Fatal("seeds 7 and 8 scripted the identical incident")
	}
}

// TestChaosPlansPinned holds the seeded generator to the incident the
// chaos soak rides (seed 9, 16 nodes, 2 nodes crashing twice, 2 slowed
// 16×, 2.5 s horizon): these are the nodes and windows it has always
// drawn, and TestSoakChaos's bars were set against them.
func TestChaosPlansPinned(t *testing.T) {
	plan, err := fault.Parse("crash:2:2,slow:2:16,horizon:2.5s", 9, FleetNames(16))
	if err != nil {
		t.Fatal(err)
	}
	want := []fault.Fault{
		{Node: "node11", Start: 743568571, End: 1056068571, Effect: fault.Down},
		{Node: "node11", Start: 2073201831, End: 2385701831, Effect: fault.Down},
		{Node: "node13", Start: 859190928, End: 1171690928, Effect: fault.Down},
		{Node: "node13", Start: 2078819959, End: 2391319959, Effect: fault.Down},
		{Node: "node10", Effect: fault.Slow, Factor: 16},
		{Node: "node1", Effect: fault.Slow, Factor: 16},
	}
	if plan.Seed != 9 || !reflect.DeepEqual(plan.Faults, want) {
		t.Fatalf("generated %+v, want seed 9 and %+v", plan, want)
	}
}

// TestChaosPlansShape checks the structural invariants: the requested
// node counts, distinct targets, and per-flap down windows that are
// sorted, non-overlapping, and inside the horizon.
func TestChaosPlansShape(t *testing.T) {
	const (
		crash, flaps, slow = 3, 4, 2
		horizon            = 8 * time.Second
	)
	plan, err := fault.Parse("crash:3:4, slow:2, horizon:8s", 42, FleetNames(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(plan.Faults) != crash*flaps+slow {
		t.Fatalf("want %d faults, got %d", crash*flaps+slow, len(plan.Faults))
	}
	windows := map[string][]fault.Fault{}
	slowed := map[string]bool{}
	for _, f := range plan.Faults {
		switch f.Effect {
		case fault.Down:
			windows[f.Node] = append(windows[f.Node], f)
		case fault.Slow:
			if slowed[f.Node] || f.Factor != 4 {
				t.Fatalf("slow fault %+v: node picked twice or factor not the default 4", f)
			}
			slowed[f.Node] = true
		default:
			t.Fatalf("generated a %s fault: %+v", f.Effect, f)
		}
	}
	if len(windows) != crash || len(slowed) != slow {
		t.Fatalf("got %d crashed, %d slowed; want %d, %d", len(windows), len(slowed), crash, slow)
	}
	for node, ws := range windows {
		if slowed[node] {
			t.Fatalf("node %s is both crashed and slowed", node)
		}
		if len(ws) != flaps {
			t.Fatalf("node %s: %d flaps, want %d", node, len(ws), flaps)
		}
		for i, w := range ws {
			if w.Start < 0 || w.End <= w.Start || w.End > horizon {
				t.Fatalf("node %s window %d out of bounds: %+v", node, i, w)
			}
			if i > 0 && w.Start < ws[i-1].End {
				t.Fatalf("node %s windows overlap: %+v then %+v", node, ws[i-1], w)
			}
		}
	}
}

func TestChaosPlansRejectOversizedFaults(t *testing.T) {
	names := FleetNames(4)
	for _, spec := range []string{
		"crash:3,slow:2",      // 5 faulty nodes on a 4-node fleet
		"crash:-1",            // negative count
		"crash:1,horizon:1ns", // no room for a window in its slot
	} {
		if _, err := fault.Parse(spec, 1, names); err == nil {
			t.Errorf("spec %q accepted on a 4-node fleet", spec)
		}
	}
}

func TestChaosInjectorWindows(t *testing.T) {
	in := fault.NewInjector(fault.Plan{Faults: []fault.Fault{
		{Node: "a", Start: time.Second, End: 2 * time.Second, Effect: fault.Down},
		{Node: "a", Start: 4 * time.Second, End: 5 * time.Second, Effect: fault.Down},
		{Node: "b", Start: 1500 * time.Millisecond, End: 3 * time.Second, Effect: fault.Down},
		{Node: "s", Effect: fault.Slow, Factor: 4},
		{Node: fault.AllNodes, Start: 8 * time.Second, End: 9 * time.Second, Effect: fault.Down},
	}})
	cases := []struct {
		node string
		now  time.Duration
		down bool
		left time.Duration
	}{
		{"a", 0, false, 0},
		{"a", time.Second, true, time.Second}, // [Start, End) includes Start
		{"a", 1900 * time.Millisecond, true, 100 * time.Millisecond},
		{"a", 2 * time.Second, false, 0}, // ... and excludes End
		{"a", 4500 * time.Millisecond, true, 500 * time.Millisecond},
		{"b", 2 * time.Second, true, time.Second},
		{"s", time.Second, false, 0}, // slow nodes never fail-stop
		{"unknown", time.Second, false, 0},
		{"unknown", 8500 * time.Millisecond, true, 500 * time.Millisecond}, // "*" downs every node
	}
	for _, tc := range cases {
		down, left := in.Down(tc.node, tc.now)
		if down != tc.down || left != tc.left {
			t.Fatalf("Down(%s, %v) = (%v, %v), want (%v, %v)", tc.node, tc.now, down, left, tc.down, tc.left)
		}
	}
	// NextRecovery: at 1.6s both a (ends 2s, 400ms left) and b (ends 3s,
	// 1.4s left) are down — the soonest recovery wins.
	if d := in.NextRecovery(1600 * time.Millisecond); d != 400*time.Millisecond {
		t.Fatalf("NextRecovery = %v, want 400ms", d)
	}
	if d := in.NextRecovery(10 * time.Second); d != 0 {
		t.Fatalf("NextRecovery with nothing down = %v, want 0", d)
	}
}
