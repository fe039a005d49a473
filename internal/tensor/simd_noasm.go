//go:build !amd64

package tensor

// No assembly on this port: the Go kernels are the only path, and the
// tile kernels below are never reached.

func probeAVX2() bool { return false }

func linearTile(out []float32, i, j, cols, n int, panel, w []float32, k int, bias []float32, relu bool, panels int) {
	panic("tensor: no vector kernels on this port")
}

func neuronTile(dst, x, w []float32, j, k int) {
	panic("tensor: no vector kernels on this port")
}

func packTile(panel, in []float32, i, p, cols, k, panels int) {
	panic("tensor: no vector kernels on this port")
}

func convPoolRow(out []float32, dst, outPlane int, in []float32, src, inW, inPlane, inC int, f []float32, oc, kH, kW int, bias []float32, cols, window int, relu bool) {
	panic("tensor: no vector kernels on this port")
}
