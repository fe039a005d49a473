package cluster

import (
	"errors"
	"fmt"
	"math"

	"bomw/internal/core"
)

// Brownout graceful degradation — the fleet's answer to GDEV-AI's
// saturation knee: instead of serving perfectly until overload and then
// 503-ing everything, the cluster sheds *optional* work progressively
// as occupancy climbs, and restores it hysteretically as load recedes.
//
// The controller tracks an EWMA of fleet occupancy (Σ node Load over
// Σ node Capacity, folded on every Submit — no timers, the same
// submission-driven discipline as the health sweep) and walks a level
// ladder:
//
//	L0  healthy    everything on
//	L1  ≥ 0.70 occ  hedges suppressed (pure overhead under pressure)
//	L2  ≥ 0.85 occ  SLO-less requests shed with ErrBrownoutShed —
//	                deadline traffic keeps the capacity that remains
//	L3  ≥ 0.95 occ  batch windows widened 4× on every node: worse
//	                latency, better device efficiency per batch
//
// Each level implies the ones below it. Levels drop only when the EWMA
// falls 0.05 below the level's entry threshold, so the fleet does not
// flap across a threshold under oscillating load.

// ErrBrownoutShed rejects an SLO-less request during brownout level ≥ 2
// — the fleet is prioritising deadline traffic. HTTP servers translate
// it to 503 with a Retry-After, like ErrAdmissionFull.
var ErrBrownoutShed = errors.New("cluster: brownout shed")

// The overload controller's parameters (Config.Brownout turns it on).
const (
	// brownoutHysteresis is how far the EWMA must fall below a level's
	// entry threshold before the level is left.
	brownoutHysteresis = 0.05
	// brownoutWindowScale is the batch-window multiplier applied at
	// level 3.
	brownoutWindowScale = 4
)

// brownoutThresholds are the occupancy-EWMA entry thresholds of levels
// 1, 2 and 3.
var brownoutThresholds = [3]float64{0.70, 0.85, 0.95}

// windowScaler is the optional node capability level 3 drives; only
// nodes that can rescale their batching window (core.Node can) are
// touched.
type windowScaler interface {
	SetWindowScale(scale float64)
}

// brownoutLevel is the current degradation level (0 when the
// controller is off).
func (c *Cluster) brownoutLevel() int32 {
	return c.broLevel.Load()
}

// BrownoutLevel exposes the current level for stats and operators.
func (c *Cluster) BrownoutLevel() int { return int(c.brownoutLevel()) }

// brownoutOccupancy is the current occupancy EWMA.
func (c *Cluster) brownoutOccupancy() float64 {
	return math.Float64frombits(c.broOcc.Load())
}

// brownoutAdmit folds the fleet's instantaneous occupancy into the
// EWMA, walks the level ladder, and applies the level-2 shed to
// SLO-less requests. Runs on the Submit path, so it is lock-free: the
// EWMA fold tolerates a lost sample under contention (a smoothed signal
// does not care), while level transitions go through a CAS so each one
// applies exactly once.
func (c *Cluster) brownoutAdmit(req core.PipelineRequest, views []NodeView) error {
	var load, capacity int64
	for _, v := range views {
		load += v.Load
		capacity += v.node.Capacity()
	}
	if capacity <= 0 {
		return nil
	}
	occ := float64(load) / float64(capacity)
	prev := math.Float64frombits(c.broOcc.Load())
	next := occ
	if prev > 0 {
		next = prev + (occ-prev)/8
	}
	c.broOcc.Store(math.Float64bits(next))
	c.brownoutSteer(next)
	if c.broLevel.Load() >= 2 && routeSLO(req) == 0 {
		c.brownoutSheds.Add(1)
		return fmt.Errorf("%w: fleet occupancy %.2f", ErrBrownoutShed, next)
	}
	return nil
}

// brownoutSteer walks the level ladder against the EWMA: up when the
// next level's threshold is crossed, down when the EWMA has receded
// brownoutHysteresis below the current level's entry point.
func (c *Cluster) brownoutSteer(ewma float64) {
	for {
		level := c.broLevel.Load()
		target := level
		switch {
		case level < 3 && ewma >= brownoutThresholds[level]:
			target = level + 1
		case level > 0 && ewma < brownoutThresholds[level-1]-brownoutHysteresis:
			target = level - 1
		}
		if target == level {
			return
		}
		if !c.broLevel.CompareAndSwap(level, target) {
			return // a racing Submit moved the level; it applied the change
		}
		c.broTransitions.Add(1)
		// Level 3 owns the window scale: widen on entry, restore on exit.
		if target == 3 {
			c.applyWindowScale(brownoutWindowScale)
		} else if level == 3 {
			c.applyWindowScale(1)
		}
	}
}

// applyWindowScale pushes a batching-window scale to every node that
// supports rescaling.
func (c *Cluster) applyWindowScale(scale float64) {
	for _, m := range c.members {
		if ws, ok := m.node.(windowScaler); ok {
			ws.SetWindowScale(scale)
		}
	}
}

// BrownoutSnapshot is the controller's operator-facing state.
type BrownoutSnapshot struct {
	Enabled       bool       `json:"enabled"`
	Level         int        `json:"level"`
	OccupancyEWMA float64    `json:"occupancy_ewma"`
	Sheds         int64      `json:"sheds"`
	Suppressed    int64      `json:"hedges_suppressed"`
	Transitions   int64      `json:"transitions"`
	WindowScale   float64    `json:"window_scale"`
	Thresholds    [3]float64 `json:"thresholds"`
	Hysteresis    float64    `json:"hysteresis"`
}

// Brownout snapshots the overload controller.
func (c *Cluster) Brownout() BrownoutSnapshot {
	snap := BrownoutSnapshot{
		Enabled:       c.cfg.Brownout,
		Level:         int(c.broLevel.Load()),
		OccupancyEWMA: c.brownoutOccupancy(),
		Sheds:         c.brownoutSheds.Load(),
		Suppressed:    c.hedgesSuppressed.Load(),
		Transitions:   c.broTransitions.Load(),
		Thresholds:    brownoutThresholds,
		Hysteresis:    brownoutHysteresis,
		WindowScale:   1,
	}
	if snap.Level >= 3 {
		snap.WindowScale = brownoutWindowScale
	}
	return snap
}
