package core

import (
	"fmt"

	"bomw/internal/trace"
)

// Mixed-policy replay: concurrent applications with different objectives
// share the devices — the setting of the authors' Pythia line of work
// (ref [22]: scheduling concurrent applications on heterogeneous
// devices). Each request carries its own policy; the scheduler arbitrates
// the shared hardware.

// MixedRequest is a request tagged with the policy of its application.
type MixedRequest struct {
	trace.Request
	Policy Policy
}

// MixTrace tags each request of a trace with a policy drawn from apps by
// model name; models absent from the map default to BestThroughput.
func MixTrace(tr trace.Trace, apps map[string]Policy) []MixedRequest {
	out := make([]MixedRequest, len(tr))
	for i, req := range tr {
		pol, ok := apps[req.Model]
		if !ok {
			pol = BestThroughput
		}
		out[i] = MixedRequest{Request: req, Policy: pol}
	}
	return out
}

// MixedReplayResult aggregates a mixed replay per policy.
type MixedReplayResult struct {
	Total     ReplayResult
	PerPolicy map[Policy]*ReplayResult
}

// ReplayMixed replays a policy-tagged request stream. Devices are shared:
// a latency application's requests queue behind an energy application's
// batches when the scheduler routes them to the same device.
func (s *Scheduler) ReplayMixed(reqs []MixedRequest) (MixedReplayResult, error) {
	s.ResetDevices()
	out := MixedReplayResult{
		Total:     ReplayResult{PerDevice: map[string]int{}},
		PerPolicy: map[Policy]*ReplayResult{},
	}
	for _, req := range reqs {
		res, dec, err := s.Estimate(req.Model, req.Batch, req.Policy, req.At)
		if err != nil {
			return MixedReplayResult{}, fmt.Errorf("core: mixed replay at %v: %w", req.At, err)
		}
		if err := s.Observe(dec, res); err != nil {
			return MixedReplayResult{}, err
		}
		pr := out.PerPolicy[req.Policy]
		if pr == nil {
			pr = &ReplayResult{PerDevice: map[string]int{}}
			out.PerPolicy[req.Policy] = pr
		}
		for _, r := range []*ReplayResult{&out.Total, pr} {
			r.Add(1, req.Batch, res.Latency(), res.Completed, res.EnergyJ, dec.Device)
		}
	}
	return out, nil
}
