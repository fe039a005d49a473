package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"bomw/internal/core"
)

// TestBrownoutLadder walks the level ladder directly against scripted
// EWMA values: levels climb at their entry thresholds, fall only after
// the hysteresis gap, and level 3 owns the batch-window scale.
func TestBrownoutLadder(t *testing.T) {
	c, fakes := serveCluster(t, 2, Config{Brownout: true})
	defer c.Close()

	steps := []struct {
		ewma      float64
		wantLevel int
		wantScale float64 // expected fake window scale after the step (0 = untouched yet)
	}{
		{0.50, 0, 0},
		{0.72, 1, 0}, // crosses L1
		{0.68, 1, 0}, // above L1-hyst: holds (no flap)
		{0.64, 0, 0}, // below L1-hyst: falls
		{0.96, 3, 4}, // walks 0→3 in one call, widens windows
		{0.92, 3, 4}, // above L3-hyst: holds
		{0.89, 2, 1}, // leaves level 3: windows restored
		{0.10, 0, 1}, // walks 2→0
	}
	for i, s := range steps {
		c.brownoutSteer(s.ewma)
		if got := c.BrownoutLevel(); got != s.wantLevel {
			t.Fatalf("step %d (ewma %.2f): level = %d, want %d", i, s.ewma, got, s.wantLevel)
		}
		if got := fakes[0].windowScale(); got != s.wantScale {
			t.Fatalf("step %d (ewma %.2f): window scale = %v, want %v", i, s.ewma, got, s.wantScale)
		}
	}
	if n := c.broTransitions.Load(); n == 0 {
		t.Fatal("no transitions counted")
	}
	snap := c.Brownout()
	if !snap.Enabled || snap.Level != 0 || snap.WindowScale != 1 ||
		snap.Thresholds != [3]float64{0.70, 0.85, 0.95} || snap.Hysteresis != 0.05 {
		t.Fatalf("snapshot after recovery: %+v", snap)
	}
}

// TestBrownoutShedsSLOlessOnly: a saturated fleet (level ≥ 2) rejects
// SLO-less traffic with the typed sentinel while deadline traffic keeps
// being served.
func TestBrownoutShedsSLOlessOnly(t *testing.T) {
	c, fakes := serveCluster(t, 2, Config{Brownout: true})
	defer c.Close()
	// Static loads 19/20ths of capacity: the first Submit's occupancy
	// sample lands at 0.95 and steers straight to level 3.
	fakes[0].load, fakes[0].capacity = 9, 10
	fakes[1].load, fakes[1].capacity = 10, 10

	_, err := c.Submit(context.Background(), core.PipelineRequest{Model: "simple", Batch: 1})
	if !errors.Is(err, ErrBrownoutShed) {
		t.Fatalf("SLO-less submit under saturation = %v, want ErrBrownoutShed", err)
	}
	if lvl := c.BrownoutLevel(); lvl < 2 {
		t.Fatalf("level = %d after 0.95 occupancy, want >= 2", lvl)
	}
	if _, err := c.Submit(context.Background(), core.PipelineRequest{
		Model: "simple", Batch: 1, Deadline: 50 * time.Millisecond,
	}); err != nil {
		t.Fatalf("deadline submit shed during brownout: %v", err)
	}
	st := c.Stats()
	if st.BrownoutSheds != 1 {
		t.Fatalf("BrownoutSheds = %d, want 1", st.BrownoutSheds)
	}
	if snap := c.Brownout(); snap.Sheds != 1 || snap.OccupancyEWMA < 0.9 {
		t.Fatalf("snapshot: %+v", snap)
	}
}

// TestBrownoutSuppressesHedges: level ≥ 1 sheds hedges first — the
// deadline request itself is served, but no backup launches.
func TestBrownoutSuppressesHedges(t *testing.T) {
	c, fakes := serveCluster(t, 2, Config{NodeHedge: true, Brownout: true})
	defer c.Close()
	fakes[0].load, fakes[0].capacity = 8, 10
	fakes[1].load, fakes[1].capacity = 8, 10
	fakes[0].predict = 40 * time.Millisecond // would trigger a predictive hedge at L0

	fut, err := c.Submit(context.Background(), core.PipelineRequest{
		Model: "simple", Batch: 1, Deadline: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if comp, err := fut.Wait(context.Background()); err != nil || comp.Err != nil {
		t.Fatalf("request failed: %v / %v", err, comp.Err)
	}
	st := c.Stats()
	if st.BrownoutLevel < 1 {
		t.Fatalf("level = %d after 0.80 occupancy, want >= 1", st.BrownoutLevel)
	}
	if st.NodeHedges != 0 {
		t.Fatalf("NodeHedges = %d under brownout, want 0", st.NodeHedges)
	}
	if st.HedgesSuppressed != 1 {
		t.Fatalf("HedgesSuppressed = %d, want 1", st.HedgesSuppressed)
	}
}

// TestBrownoutOffByDefault: the controller never moves when disabled,
// whatever the occupancy looks like.
func TestBrownoutOffByDefault(t *testing.T) {
	c, fakes := serveCluster(t, 2, Config{})
	defer c.Close()
	fakes[0].load, fakes[0].capacity = 10, 10
	fakes[1].load, fakes[1].capacity = 10, 10
	if _, err := c.Submit(context.Background(), core.PipelineRequest{Model: "simple", Batch: 1}); err != nil {
		t.Fatal(err)
	}
	if lvl := c.BrownoutLevel(); lvl != 0 {
		t.Fatalf("disabled controller at level %d", lvl)
	}
}
