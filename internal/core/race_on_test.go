//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; the
// allocation checks skip under it (sync.Pool drops Puts at random).
const raceEnabled = true
