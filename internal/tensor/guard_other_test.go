//go:build !linux

package tensor

import "testing"

// guardedFloats has no guard page to offer here; the sentinels before
// the operands still catch a stray store.
func guardedFloats(t testing.TB, n int) []float32 { return make([]float32, n) }
