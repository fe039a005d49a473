package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bomw/internal/opencl"
)

// healthMonitor implements the scheduler's response to "system changes"
// (§I): it compares the latency each device actually delivers against
// what the characterisation model expects from an uncontended device,
// keeps an exponentially weighted slowdown estimate per device, and
// demotes devices whose estimate exceeds a threshold. When the
// interference clears (observed ratios return to ≈1) the device is
// promoted again — the scheduler "responds quickly to dynamic performance
// fluctuations".
// The monitor also owns the scheduler's failure domain: consecutive
// execution errors quarantine a device (Select stops routing to it), and
// a successful execution — normally a recovery probe — re-admits it.
type healthMonitor struct {
	mu        sync.Mutex
	ratio     map[string]float64 // EWMA of observed/expected latency
	alpha     float64
	threshold float64

	errs        map[string]int  // consecutive execution errors per device
	quar        map[string]bool // devices currently quarantined
	quarAfter   int             // consecutive errors that trigger quarantine
	quarantines int64           // lifetime quarantine transitions
	readmits    int64           // lifetime recovery transitions

	// fenced is len(quar), written under mu whenever quar changes and
	// read without it: Node.Ready reads it on every routing decision.
	fenced atomic.Int32
}

func newHealthMonitor() *healthMonitor {
	h := &healthMonitor{alpha: 0.4, threshold: 1.5, quarAfter: 3}
	h.reset()
	return h
}

// reset forgets every estimate, error count, quarantine and lifetime
// total, in place: the scheduler keeps one monitor for its lifetime.
func (h *healthMonitor) reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ratio = map[string]float64{}
	h.errs = map[string]int{}
	h.quar = map[string]bool{}
	h.quarantines, h.readmits = 0, 0
	h.fenced.Store(0)
}

// observe folds one (expected, observed) latency pair into the estimate.
func (h *healthMonitor) observe(dev string, expected, observed time.Duration) {
	if expected <= 0 || observed <= 0 {
		return
	}
	r := float64(observed) / float64(expected)
	h.mu.Lock()
	defer h.mu.Unlock()
	old, ok := h.ratio[dev]
	if !ok {
		old = 1
	}
	h.ratio[dev] = (1-h.alpha)*old + h.alpha*r
}

// degraded reports whether the device is currently flagged as suffering
// external interference.
func (h *healthMonitor) degraded(dev string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ratio[dev] > h.threshold
}

// slowdownEstimate returns the current EWMA ratio (1 = healthy).
func (h *healthMonitor) slowdownEstimate(dev string) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if r, ok := h.ratio[dev]; ok {
		return r
	}
	return 1
}

// recordError counts one execution error; reaching the consecutive-error
// threshold quarantines the device. Reports whether this call caused the
// quarantine transition.
func (h *healthMonitor) recordError(dev string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.errs[dev]++
	if !h.quar[dev] && h.errs[dev] >= h.quarAfter {
		h.quar[dev] = true
		h.quarantines++
		h.fenced.Store(int32(len(h.quar)))
		return true
	}
	return false
}

// recordSuccess resets the consecutive-error count and re-admits a
// quarantined device — success is the recovery signal, whether it came
// from a dedicated probe or from a batch that had nowhere else to run.
// Reports whether the device was re-admitted by this call.
func (h *healthMonitor) recordSuccess(dev string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.errs[dev] = 0
	if h.quar[dev] {
		delete(h.quar, dev)
		h.readmits++
		h.fenced.Store(int32(len(h.quar)))
		return true
	}
	return false
}

// isQuarantined reports whether the device is currently fenced off.
func (h *healthMonitor) isQuarantined(dev string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quar[dev]
}

// quarantinedList returns the currently quarantined devices.
func (h *healthMonitor) quarantinedList() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.quar))
	for dev := range h.quar {
		out = append(out, dev)
	}
	return out
}

// counters snapshots the lifetime quarantine/readmission totals.
func (h *healthMonitor) counters() (quarantines, readmits int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quarantines, h.readmits
}

// Observe feeds one completed execution back into the scheduler's health
// monitor: the realized latency is compared against the expected latency
// of an uncontended device in the same warm state (measured on a shadow
// copy). Callers should invoke it after every Classify/Estimate whose
// result they act on; Replay does so automatically.
func (s *Scheduler) Observe(dec Decision, res *opencl.Result) error {
	if res == nil {
		return fmt.Errorf("core: Observe needs a result")
	}
	if res.Completed <= res.Start {
		return fmt.Errorf("core: Observe needs a result that executed (device %s, model %s)", res.Device, res.Model)
	}
	// The uncontended expectation reads through the memoised shadow-cost
	// table (deadline.go): Observe runs once per served batch, and
	// rebuilding a shadow runtime per call would dominate the pipeline's
	// completion path.
	shadow, err := s.shadowCost(dec.Device, dec.Model, dec.Batch, 0)
	if err != nil {
		return err
	}
	// Exclude queueing: interference shows in execution, not arrival.
	observed := res.Completed - res.Start
	s.health.observe(dec.Device, shadow.latency, observed)
	return nil
}

// ReportExecution feeds one execution outcome into the failure domain:
// errors count toward the consecutive-error quarantine threshold, and a
// success resets the count (re-admitting a quarantined device). The
// serving pipeline calls it after every batch attempt.
func (s *Scheduler) ReportExecution(dev string, err error) {
	if err != nil {
		if s.health.recordError(dev) {
			s.invalidateDecisions() // quarantine transition changes fencing
		}
		return
	}
	if s.health.recordSuccess(dev) {
		s.invalidateDecisions() // readmission transition changes fencing
	}
}

// Quarantined lists the devices currently fenced off by the failure
// domain (sorted for stable output).
func (s *Scheduler) Quarantined() []string {
	out := s.health.quarantinedList()
	sort.Strings(out)
	return out
}

// ProbeQuarantined sends a one-sample probe execution to every
// quarantined device at virtual time now; a successful probe re-admits
// the device ("the system changes" both ways, §I — degradation and
// recovery). Returns the devices re-admitted by this probe. The serving
// pipeline calls it periodically; tests and operators may call it
// directly. A no-op when no model is loaded yet.
func (s *Scheduler) ProbeQuarantined(now time.Duration) []string {
	h := s.health
	quarantined := h.quarantinedList()
	if len(quarantined) == 0 {
		return nil
	}
	models := s.rt.Models()
	if len(models) == 0 {
		return nil
	}
	var readmitted []string
	for _, dev := range quarantined {
		if _, err := s.rt.Estimate(dev, models[0], 1, now); err != nil {
			continue // still failing: stay quarantined
		}
		if h.recordSuccess(dev) {
			s.invalidateDecisions() // readmission transition changes fencing
			readmitted = append(readmitted, dev)
		}
	}
	sort.Strings(readmitted)
	return readmitted
}

// DeviceHealth reports the monitor's current slowdown estimate and
// degraded flag for a device.
func (s *Scheduler) DeviceHealth(dev string) (slowdown float64, degraded bool) {
	h := s.health
	return h.slowdownEstimate(dev), h.degraded(dev)
}
