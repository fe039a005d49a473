package nn

import "bomw/internal/tensor"

// What the external tests (package nn_test, which may import
// internal/models) need of the plan.

// Arena is one reusable arena, for tests that must drive a sequence of
// batches over the same one — sync.Pool makes no such promise.
type Arena = arena

// ForwardOn is Forward over the caller's arena.
func (n *Network) ForwardOn(a *Arena, pool *tensor.Pool, in *tensor.Tensor) *tensor.Tensor {
	return n.plan.run(pool, a, in, false).Clone()
}

// StepNames lists the plan's kernel steps in order.
func (n *Network) StepNames() []string {
	var names []string
	for _, s := range n.plan.steps {
		names = append(names, s.name)
	}
	return names
}

// ArenaBytes is the size of an arena that holds a batch of the given
// size: the buffers, borders included.
func (n *Network) ArenaBytes(batch int) int64 {
	var floats int64
	for _, vol := range n.plan.bufs {
		floats += int64(vol)
	}
	return 4 * floats * int64(batch)
}

// RaceDetector reports that the tests were built with -race.
const RaceDetector = raceDetector
