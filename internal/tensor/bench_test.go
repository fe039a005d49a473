package tensor

import (
	"math/rand"
	"testing"
)

func benchTensors(m, k, n int) (*Tensor, *Tensor) {
	rng := rand.New(rand.NewSource(1))
	return randTensor(rng, m, k), randTensor(rng, k, n)
}

func BenchmarkMatMulSerial256(b *testing.B) {
	a, bb := benchTensors(256, 256, 256)
	c := New(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(Serial, c, a, bb)
	}
}

// benchSink keeps the compiler from discarding the measured call.
var benchSink *Tensor

// The mnist-small 784→800 layer at the benchmark's two batch sizes, on
// the pools the scheduler's CPU (GroupSize 4096) and iGPU (256) devices
// hand to the kernel. randTensor has no exact zeros, so the numbers are
// comparable with MatMul's, whose av == 0 skip never fires either.
func benchLinear(b *testing.B, pool *Pool, m int) {
	rng := rand.New(rand.NewSource(1))
	in, w, bias := randTensor(rng, m, 784), randTensor(rng, 800, 784), randTensor(rng, 800)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = Linear(pool, in, w, bias, ReLU)
	}
}

func BenchmarkLinearSerial1x784x800(b *testing.B)      { benchLinear(b, Serial, 1) }
func BenchmarkLinearSerial64x784x800(b *testing.B)     { benchLinear(b, Serial, 64) }
func BenchmarkLinearGroup256x1x784x800(b *testing.B)   { benchLinear(b, NewPool(0, 256), 1) }
func BenchmarkLinearGroup4096x64x784x800(b *testing.B) { benchLinear(b, NewPool(0, 4096), 64) }

func BenchmarkMatMulParallel256(b *testing.B) {
	a, bb := benchTensors(256, 256, 256)
	c := New(256, 256)
	pool := NewPool(0, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(pool, c, a, bb)
	}
}

func BenchmarkMatMulParallel1024(b *testing.B) {
	a, bb := benchTensors(1024, 1024, 1024)
	c := New(1024, 1024)
	pool := NewPool(0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(pool, c, a, bb)
	}
}

func BenchmarkConv2DDirect(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	in := randTensor(rng, 8, 3, 32, 32)
	f := randTensor(rng, 32, 3, 3, 3)
	bias := randTensor(rng, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2D(Default, in, f, bias)
	}
}

func BenchmarkConv2DIm2Col(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	in := randTensor(rng, 8, 3, 32, 32)
	f := randTensor(rng, 32, 3, 3, 3)
	bias := randTensor(rng, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2DIm2Col(Default, in, f, bias)
	}
}

func BenchmarkMaxPool2D(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	in := randTensor(rng, 8, 32, 32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxPool2D(Default, in, 2)
	}
}

func BenchmarkSoftmaxRows(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	in := randTensor(rng, 4096, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := in.Clone()
		Softmax.Apply(Default, t)
	}
}

func BenchmarkPoolForOverhead(b *testing.B) {
	p := NewPool(0, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.For(1<<16, func(lo, hi int) {})
	}
}
