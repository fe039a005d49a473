//go:build !race

package opencl

// raceEnabled reports whether the race detector is compiled in; the
// allocation budgets that rest on sync.Pool skip under it.
const raceEnabled = false
