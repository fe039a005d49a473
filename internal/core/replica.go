package core

import (
	"fmt"

	"bomw/internal/device"
	"bomw/internal/mlsched"
)

// Replica builds a fresh scheduler that shares this scheduler's trained
// per-policy classifiers and characterisation dataset but owns its own
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
// serving pipeline's access pattern), and a Retrain on any scheduler
// swaps that scheduler's map entries without mutating the shared
// forests.
func (s *Scheduler) Replica(seed int64) (*Scheduler, error) {
	var devs []*device.Device
	for _, d := range s.devices {
		devs = append(devs, device.New(d.Profile()))
	}
	// Snapshot the template's retrainable state under its lock: Retrain
	// swaps cfg.TrainModels, the classifier map and the dataset on
	// another goroutine, and the replica must see one consistent
	// generation of all three.
	s.mu.Lock()
	cfg := s.cfg
	classifiers := make(map[Policy]mlsched.Classifier, len(s.classifiers))
	for pol, c := range s.classifiers {
		classifiers[pol] = c
	}
	dataset := s.dataset
	s.mu.Unlock()
	cfg.Devices = devs
	r, err := newScheduler(cfg)
	if err != nil {
		return nil, err
	}
	r.classifiers = classifiers
	// The replica gets its own (empty) decision cache: cached rankings
	// embed fencing context read live anyway, but cache epochs are
	// per-scheduler and must not be shared.
	r.buildPolicySet()
	r.dataset = dataset
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
