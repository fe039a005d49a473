//go:build !race

package server

// raceEnabled reports whether the race detector is compiled in: it
// makes sync.Pool drop Puts at random, so allocation budgets skip.
const raceEnabled = false
