package core

import (
	"fmt"
	"time"
)

// Deadline-aware selection extends the paper's three policies with a
// service-level objective: among the devices predicted to finish a batch
// within the deadline, pick the most energy-efficient one; if no device
// can meet it, pick the fastest. Predictions come from the same shadow
// cost models the oracle replay uses, plus the live queue and warm state
// of each device — a model-based counterpart to the learned policies.
// The serving pipeline routes deadline-carrying batches through here and
// uses FeasibleWithin as its admission-control predictor.

// DeadlineDecision reports the outcome of a deadline-constrained choice.
type DeadlineDecision struct {
	Decision
	Deadline   time.Duration
	Predicted  time.Duration // predicted completion latency on the pick
	Met        bool          // the pick is predicted to meet the deadline
	Candidates int           // devices predicted to meet the deadline
}

// maxDeadlineCands sizes the stack buffer a deadline prediction fills:
// a node with more devices than this still predicts, on the heap.
const maxDeadlineCands = 8

// deadlineCand is one device's predicted cost for a deadline decision.
type deadlineCand struct {
	class   int
	name    string
	latency time.Duration // queue wait + predicted execution
	energy  float64
}

// shadowKey identifies one cacheable shadow measurement: the uncontended
// latency/energy of (model, batch) on a device depends only on the device
// profile, the architecture and the warm state — all immutable once the
// model is loaded — so shadow runs are memoised instead of rebuilding a
// runtime per prediction (the admission path calls this per request).
type shadowKey struct {
	device string
	model  string
	batch  int
	warm   bool
}

type shadowCost struct {
	latency time.Duration
	energy  float64
}

// shadowCost returns the memoised uncontended cost of a batch on a
// device, mirroring the live device's warm state at virtual time at.
func (s *Scheduler) shadowCost(devName, model string, batch int, at time.Duration) (shadowCost, error) {
	var warm bool
	for _, d := range s.devices {
		if d.Name() == devName {
			warm = d.StateAt(at).Warm
			break
		}
	}
	key := shadowKey{device: devName, model: model, batch: batch, warm: warm}
	s.shadowMu.Lock()
	if s.shadowCache == nil {
		s.shadowCache = map[shadowKey]shadowCost{}
	}
	if c, ok := s.shadowCache[key]; ok {
		s.shadowMu.Unlock()
		return c, nil
	}
	s.shadowMu.Unlock()
	res, err := s.shadowEstimate(devName, model, batch, at)
	if err != nil {
		return shadowCost{}, err
	}
	c := shadowCost{latency: res.Latency(), energy: res.EnergyJ}
	s.shadowMu.Lock()
	s.shadowCache[key] = c
	s.shadowMu.Unlock()
	return c, nil
}

// deadlineCandidates predicts, for every schedulable device, the
// completion latency of a batch submitted at virtual time now: committed
// busy horizon, live worker-queue occupancy (the pipeline's queue probe,
// when attached), the shadow execution model, and the health monitor's
// observed-slowdown estimate. Quarantined devices are fenced off unless
// every device is quarantined — refusing to predict would fail the
// request outright. The candidates are appended to dst[:0], so a caller
// that passes a buffer of its own (a stack array) allocates nothing
// while no device is quarantined.
func (s *Scheduler) deadlineCandidates(dst []deadlineCand, model string, batch int, now time.Duration) ([]deadlineCand, error) {
	s.mu.Lock()
	probe := s.queueProbe
	s.mu.Unlock()
	health := s.health

	cands := dst[:0]
	var fenced []deadlineCand // stays nil while no device is quarantined
	for class, d := range s.devices {
		name := d.Name()
		shadow, err := s.shadowCost(name, model, batch, now)
		if err != nil {
			return nil, err
		}
		wait := d.StateAt(now).BusyUntil - now
		if wait < 0 {
			wait = 0
		}
		if probe != nil {
			wait += probe(name)
		}
		// Fold in the observed interference estimate so a contended
		// device's prediction reflects reality.
		slow := health.slowdownEstimate(name)
		if slow < 1 {
			slow = 1
		}
		c := deadlineCand{
			class:   class,
			name:    name,
			latency: wait + time.Duration(float64(shadow.latency)*slow),
			energy:  shadow.energy,
		}
		if health.isQuarantined(name) {
			fenced = append(fenced, c)
			continue
		}
		cands = append(cands, c)
	}
	if len(cands) == 0 {
		cands = fenced
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("core: no devices to predict %s batch %d on", model, batch)
	}
	return cands, nil
}

// SelectWithDeadline picks a device for one request under a latency SLO
// at virtual time now.
func (s *Scheduler) SelectWithDeadline(model string, batch int, deadline time.Duration, now time.Duration) (DeadlineDecision, error) {
	if batch <= 0 {
		return DeadlineDecision{}, fmt.Errorf("core: batch size must be positive, got %d", batch)
	}
	if deadline <= 0 {
		return DeadlineDecision{}, fmt.Errorf("core: deadline must be positive, got %v", deadline)
	}
	if _, err := s.disp.Spec(model); err != nil {
		return DeadlineDecision{}, err
	}
	var buf [maxDeadlineCands]deadlineCand
	cands, err := s.deadlineCandidates(buf[:0], model, batch, now)
	if err != nil {
		return DeadlineDecision{}, err
	}

	best := -1
	meeting := 0
	for i, c := range cands {
		if c.latency <= deadline {
			meeting++
			if best == -1 || c.energy < cands[best].energy {
				best = i
			}
		}
	}
	met := best != -1
	if !met {
		// Nothing meets the SLO: minimise the damage.
		for i, c := range cands {
			if best == -1 || c.latency < cands[best].latency {
				best = i
			}
		}
	}

	chosen := cands[best]
	dec := DeadlineDecision{
		Decision: Decision{
			Model:   model,
			Batch:   batch,
			Class:   chosen.class,
			Device:  chosen.name,
			GPUWarm: s.probeGPU(now),
		},
		Deadline:   deadline,
		Predicted:  chosen.latency,
		Met:        met,
		Candidates: meeting,
	}
	s.record(&dec.Decision, now, deadline)
	return dec, nil
}

// FeasibleWithin reports whether any device is predicted to complete a
// batch within the deadline at virtual time now, and the best predicted
// completion latency. The serving pipeline's admission control uses it
// to reject requests that are doomed before they queue: the prediction
// reads the same latency model and live queue state SelectWithDeadline
// does, so an admit implies at least one device was expected to make it.
func (s *Scheduler) FeasibleWithin(model string, batch int, deadline, now time.Duration) (bool, time.Duration, error) {
	if batch <= 0 {
		return false, 0, fmt.Errorf("core: batch size must be positive, got %d", batch)
	}
	if deadline <= 0 {
		return false, 0, fmt.Errorf("core: deadline must be positive, got %v", deadline)
	}
	var buf [maxDeadlineCands]deadlineCand
	cands, err := s.deadlineCandidates(buf[:0], model, batch, now)
	if err != nil {
		return false, 0, err
	}
	best := cands[0].latency
	for _, c := range cands[1:] {
		if c.latency < best {
			best = c.latency
		}
	}
	return best <= deadline, best, nil
}
