package core

import (
	"fmt"
	"maps"

	"bomw/internal/device"
)

// Replica builds a fresh scheduler that shares this scheduler's trained
// per-policy classifiers but owns its own
// devices, simulated OpenCL runtime, dispatcher, health monitor and
// statistics — the unit of fleet scale-out. The paper's offline phase
// (characterisation + training, the expensive part of New) runs once on
// the template; replicas restart instantly, the way LoadState restarts a
// process from saved forests. Every model loaded on the template is
// loaded on the replica with the given weight seed: where that is the
// seed the template built the model from — a fleet, whose nodes must
// answer alike — the replica registers the template's network, which is
// immutable, and the process keeps holding those weights once; any other
// seed builds the replica its own.
//
// Devices are rebuilt from the template's profiles in the same order, so
// the shared classifiers' class labels keep naming the same device slots
// on every replica. The classifiers are shared by reference: they are
// read-only after fitting (concurrent Predict/Rank is already the
// serving pipeline's access pattern).
func (s *Scheduler) Replica(seed int64) (*Scheduler, error) {
	var devs []*device.Device
	for _, d := range s.devices {
		devs = append(devs, device.New(d.Profile()))
	}
	cfg := s.cfg
	cfg.Devices = devs
	r, err := newScheduler(cfg)
	if err != nil {
		return nil, err
	}
	maps.Copy(r.classifiers, s.classifiers)
	// The replica gets its own (empty) decision cache: cached rankings
	// embed fencing context read live anyway, but cache epochs are
	// per-scheduler and must not be shared.
	r.buildPolicySet()
	for _, m := range s.disp.loaded() {
		var err error
		if m.seed == seed {
			err = r.disp.Register(m.spec, seed, m.net)
		} else {
			err = r.LoadModel(m.spec, seed)
		}
		if err != nil {
			return nil, fmt.Errorf("core: replicating model %q: %w", m.spec.Name, err)
		}
	}
	return r, nil
}
