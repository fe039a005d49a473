package cluster

import (
	"testing"
	"time"
)

// stragglerCluster builds a fake fleet with straggler detection on,
// every node measured (routed ≥ MinRouted) at the given latency EWMAs.
func stragglerCluster(t *testing.T, lats []time.Duration) (*Cluster, []*fakeNode) {
	t.Helper()
	fakes := make([]*fakeNode, len(lats))
	nodes := make([]Node, len(lats))
	for i := range lats {
		fakes[i] = newFakeNode("node"+string(rune('0'+i)), int64(i))
		fakes[i].setAvgLatency(lats[i])
		nodes[i] = fakes[i]
	}
	pol, err := PolicyByName("least-loaded", 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(nodes, Config{Policy: pol, Straggler: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range c.members {
		m.routed.Store(stragglerMinRouted)
	}
	return c, fakes
}

// TestDetectStragglersSuspectsOutlier: a node whose latency EWMA is both
// the p99 and a multiple of the fleet median goes on probation; the rest
// of the fleet does not.
func TestDetectStragglersSuspectsOutlier(t *testing.T) {
	lats := []time.Duration{10, 11, 9, 10, 12, 100} // ms-scale shape, units irrelevant
	for i := range lats {
		lats[i] *= time.Millisecond
	}
	c, _ := stragglerCluster(t, lats)
	c.Sweep()
	if got := c.Suspects(); len(got) != 1 || got[0] != "node5" {
		t.Fatalf("Suspects = %v, want [node5]", got)
	}
	if n := c.suspicions.Load(); n != 1 {
		t.Fatalf("suspicions = %d, want 1", n)
	}
	for _, v := range c.eligible(&routeScratch{}) {
		if v.Name == "node5" {
			t.Fatal("suspect node5 still in the routing set")
		}
	}
	// A second sweep must not re-suspect it (it is already suspect) nor
	// suspect anyone else (the rest of the fleet is uniform).
	c.Sweep()
	if n := c.suspicions.Load(); n != 1 {
		t.Fatalf("second sweep re-suspected: suspicions = %d", n)
	}
	st := c.Stats()
	if st.Suspects != 1 || st.Ready != 5 {
		t.Fatalf("Stats: Suspects=%d Ready=%d, want 1 and 5", st.Suspects, st.Ready)
	}
}

// TestDetectStragglersGuards: unmeasured (young) nodes and tiny fleets
// are never judged.
func TestDetectStragglersGuards(t *testing.T) {
	lats := []time.Duration{10 * time.Millisecond, 11 * time.Millisecond, 9 * time.Millisecond, 500 * time.Millisecond}
	c, _ := stragglerCluster(t, lats)
	c.members[3].routed.Store(stragglerMinRouted - 1) // outlier, but young
	c.Sweep()
	if got := c.Suspects(); len(got) != 0 {
		t.Fatalf("young outlier suspected: %v", got)
	}

	small, _ := stragglerCluster(t, []time.Duration{10 * time.Millisecond, 500 * time.Millisecond})
	small.Sweep()
	if got := small.Suspects(); len(got) != 0 {
		t.Fatalf("2-node fleet has no distribution to be an outlier of, got %v", got)
	}
}

// TestProbationStateMachine is the table-driven Suspect → Healthy /
// Suspect → Evicted satellite: each case scripts a probe outcome
// sequence against a fresh suspect and asserts where the member lands.
func TestProbationStateMachine(t *testing.T) {
	const bar = 30 * time.Millisecond
	type probe struct {
		ok  bool
		lat time.Duration
	}
	cases := []struct {
		name        string
		probes      []probe
		wantSuspect bool
		wantEvicted bool
		wantClears  int64
		wantFalse   int64
	}{
		{
			name:       "clean probes clear (false suspect)",
			probes:     []probe{{true, 10 * time.Millisecond}, {true, 10 * time.Millisecond}},
			wantClears: 1,
			wantFalse:  1,
		},
		{
			name:       "recovery after one bad probe clears, not a false suspect",
			probes:     []probe{{false, 0}, {true, 10 * time.Millisecond}, {true, 10 * time.Millisecond}},
			wantClears: 1,
			wantFalse:  0,
		},
		{
			name:        "completed-but-slow probes do not clear",
			probes:      []probe{{true, bar + time.Millisecond}, {true, bar + time.Millisecond}},
			wantSuspect: true,
		},
		{
			name:        "bad probes reset the ok streak",
			probes:      []probe{{true, time.Millisecond}, {false, 0}, {true, time.Millisecond}},
			wantSuspect: true,
		},
		{
			name:        "EvictAfterBad failures evict for good",
			probes:      []probe{{false, 0}, {false, 0}, {false, 0}},
			wantEvicted: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := stragglerCluster(t, []time.Duration{10 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond})
			m := c.members[2]
			c.suspectMember(m, bar)
			for _, p := range tc.probes {
				c.recordProbe(m, p.ok, p.lat)
			}
			if got := m.suspect.Load(); got != tc.wantSuspect {
				t.Fatalf("suspect = %v, want %v", got, tc.wantSuspect)
			}
			if got := m.evicted.Load(); got != tc.wantEvicted {
				t.Fatalf("evicted = %v, want %v", got, tc.wantEvicted)
			}
			if got := c.probations.Load(); got != tc.wantClears {
				t.Fatalf("probations = %d, want %d", got, tc.wantClears)
			}
			if got := c.falseSuspects.Load(); got != tc.wantFalse {
				t.Fatalf("falseSuspects = %d, want %d", got, tc.wantFalse)
			}
			if tc.wantEvicted && !m.probEvicted.Load() {
				t.Fatal("probation eviction did not pin the member")
			}
		})
	}
}

// TestProbationEvictionPinsAgainstSweep: a probation-evicted straggler
// still reports lifecycle-Ready health, so without the pin the next
// sweep would readmit it and the fleet would readmit-loop. Only an
// operator Readmit may bring it back.
func TestProbationEvictionPinsAgainstSweep(t *testing.T) {
	c, _ := stragglerCluster(t, []time.Duration{10 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond})
	m := c.members[1]
	c.suspectMember(m, 30*time.Millisecond)
	for i := 0; i < evictAfterBad; i++ {
		c.recordProbe(m, false, 0)
	}
	if !m.evicted.Load() || !m.probEvicted.Load() {
		t.Fatalf("bad probes did not evict+pin: evicted=%v pinned=%v", m.evicted.Load(), m.probEvicted.Load())
	}
	for i := 0; i < 5; i++ {
		c.Sweep()
	}
	if !m.evicted.Load() {
		t.Fatal("sweep readmitted a probation-evicted node (readmit-loop)")
	}
	if n := c.readmissions.Load(); n != 0 {
		t.Fatalf("readmissions = %d, want 0", n)
	}
	if err := c.Readmit("node1"); err != nil {
		t.Fatal(err)
	}
	if m.evicted.Load() || m.probEvicted.Load() {
		t.Fatal("operator Readmit did not clear the pin")
	}
	if n := len(c.eligible(&routeScratch{})); n != 3 {
		t.Fatalf("eligible after Readmit = %d nodes, want 3", n)
	}
}

// TestFlappingNodeDoublesProbation: each relapse doubles the
// consecutive-ok bar (capped), so a flapping node pays progressively
// longer probation instead of bouncing through the routing set.
func TestFlappingNodeDoublesProbation(t *testing.T) {
	c, _ := stragglerCluster(t, []time.Duration{10 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond})
	m := c.members[0]
	base := probeOK
	wantNeed := []int{base, base * 2, base * 4}
	for epoch, want := range wantNeed {
		c.suspectMember(m, 30*time.Millisecond)
		m.probMu.Lock()
		need := m.prob.needOK
		m.probMu.Unlock()
		if need != want {
			t.Fatalf("epoch %d: needOK = %d, want %d", epoch+1, need, want)
		}
		// want-1 ok probes must NOT clear; the want-th does.
		for i := 0; i < want-1; i++ {
			c.recordProbe(m, true, time.Millisecond)
			if !m.suspect.Load() {
				t.Fatalf("epoch %d cleared after %d/%d probes", epoch+1, i+1, want)
			}
		}
		c.recordProbe(m, true, time.Millisecond)
		if m.suspect.Load() {
			t.Fatalf("epoch %d did not clear after %d ok probes", epoch+1, want)
		}
	}
	// The doubling caps at 64 even after many relapses.
	for i := 0; i < 10; i++ {
		c.suspectMember(m, 30*time.Millisecond)
		for m.suspect.Load() {
			c.recordProbe(m, true, time.Millisecond)
		}
	}
	c.suspectMember(m, 30*time.Millisecond)
	m.probMu.Lock()
	need := m.prob.needOK
	m.probMu.Unlock()
	if need != 64 {
		t.Fatalf("needOK after many relapses = %d, want the 64 cap", need)
	}
}

// TestProbeOneSuspectRoundTrip drives the probe path end to end over a
// serving fake: the suspect gets a single-sample probe off the
// submission stream and its outcome advances probation.
func TestProbeOneSuspectRoundTrip(t *testing.T) {
	c, fakes := stragglerCluster(t, []time.Duration{10 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond})
	fakes[2].setServe(0, time.Millisecond, nil)
	m := c.members[2]
	c.suspectMember(m, 30*time.Millisecond)
	need := probeOK
	for i := 0; i < need; i++ {
		c.probeOneSuspect("simple")
		deadline := time.Now().Add(5 * time.Second)
		for c.probes.Load() != int64(i+1) {
			if time.Now().After(deadline) {
				t.Fatalf("probe %d never recorded", i+1)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	if m.suspect.Load() {
		t.Fatal("serving suspect did not clear after ok probes")
	}
	if c.falseSuspects.Load() != 1 {
		t.Fatalf("falseSuspects = %d, want 1", c.falseSuspects.Load())
	}
	// Probes ride the node itself, not the routing set.
	if got := fakes[2].acceptCount(); got != need {
		t.Fatalf("suspect served %d probes, want %d", got, need)
	}
	c.Close()
}
