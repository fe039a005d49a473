package fault

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

var testNodes = []string{"node0", "node1", "node2", "node3"}

func TestParse(t *testing.T) {
	plan, err := Parse("node0/GTX 1080 Ti=err:0.05,spike:0.2:4; */i7-8700 CPU=outage:30s-45s,outage:1m-2m; node3=down:1s-2s,slow:8", 7, testNodes)
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{Seed: 7, Faults: []Fault{
		{Node: "node0", Device: "GTX 1080 Ti", Effect: Err, P: 0.05},
		{Node: "node0", Device: "GTX 1080 Ti", Effect: Spike, P: 0.2, Factor: 4},
		{Node: AllNodes, Device: "i7-8700 CPU", Start: 30 * time.Second, End: 45 * time.Second, Effect: Outage},
		{Node: AllNodes, Device: "i7-8700 CPU", Start: time.Minute, End: 2 * time.Minute, Effect: Outage},
		{Node: "node3", Start: time.Second, End: 2 * time.Second, Effect: Down},
		{Node: "node3", Effect: Slow, Factor: 8},
	}}
	if !reflect.DeepEqual(plan, want) {
		t.Fatalf("parsed\n%+v\nwant\n%+v", plan, want)
	}

	// Literal and seeded clauses compose: the incident follows the
	// literal faults, drawn over the whole fleet.
	plan, err = Parse("crash:1:3, horizon:3s, crashlen:100ms; node2/A=err:1", 5, testNodes)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Faults) != 4 || plan.Faults[0].Effect != Err {
		t.Fatalf("composed plan = %+v, want the err fault then 3 down windows", plan.Faults)
	}
	for _, f := range plan.Faults[1:] {
		if f.Effect != Down || f.End-f.Start != 100*time.Millisecond || f.End > 3*time.Second {
			t.Fatalf("generated %+v, want 100ms down windows inside 3s", f)
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, bad := range []string{
		"",                          // scripts nothing
		"horizon:2m",                // nor does this
		"=err:0.5",                  // empty node
		"node9=err:0.5",             // not a fleet node
		"node0/=err:0.5",            // empty device
		"node0",                     // neither node=effect nor a gen clause
		"node0/dev=err:1.5",         // p out of range
		"node0/dev=err:NaN",         // p not a number
		"node0/dev=err:abc",         // non-numeric
		"node0/dev=spike:0.5",       // missing factor
		"node0/dev=spike:0.5:0.5",   // factor must exceed 1
		"node0=slow:+Inf",           // factor must be finite
		"node0/dev=outage:10s",      // missing end
		"node0/dev=outage:45s-30s",  // inverted window
		"node0/dev=down:1s-2s",      // down acts on whole nodes
		"node0/dev=flaky:0.5",       // unknown effect
		"node0/dev=err:0.1,bogus:1", // one bad effect taints the clause
		"crash:-1",                  // negative count
		"crash:abc",                 // non-numeric
		"crash:2:0",                 // flaps must be positive
		"crash:1:1000000000",        // more windows than a spec may script
		"slow:2:1",                  // factor must exceed 1
		"slow:2:abc",                // non-numeric factor
		"horizon:0s,slow:1",         // horizon must be positive
		"crashlen:xyz,slow:1",       // not a duration
		"crash:3,slow:2",            // 5 faulty nodes on a 4-node fleet
		"melt:3",                    // unknown clause
	} {
		if _, err := Parse(bad, 1, testNodes); err == nil {
			t.Errorf("spec %q accepted, want error", bad)
		}
	}
}

// FuzzParseFaults: a -faults spec is outside input. Parse must never
// panic, and every plan it accepts must validate and come back from its
// JSON form unchanged — the form /v1/cluster reports.
func FuzzParseFaults(f *testing.F) {
	for _, seed := range []string{
		"node0/GTX 1080 Ti=err:0.05,spike:0.2:4; */i7-8700 CPU=outage:30s-45s",
		"node3=down:1s-2s,slow:8",
		"crash:2:3,slow:1:4,horizon:2m,crashlen:5s",
		"crash:1,horizon:1ns",
		"node0/x=err:1e-300; */y=spike:1:1.0000001",
	} {
		f.Add(seed, int64(1))
	}
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		plan, err := Parse(spec, seed, testNodes)
		if err != nil {
			return
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted an invalid plan: %v", spec, err)
		}
		b, err := json.Marshal(plan)
		if err != nil {
			t.Fatalf("Parse(%q): plan does not marshal: %v", spec, err)
		}
		var back Plan
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("Parse(%q): %s does not unmarshal: %v", spec, b, err)
		}
		if !reflect.DeepEqual(back, plan) {
			t.Fatalf("Parse(%q): JSON round trip changed the plan:\n%+v\n%+v", spec, plan, back)
		}
	})
}
