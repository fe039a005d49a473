package tensor

import (
	"math/rand"
	"testing"
	"time"
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

// reportGFLOPS adds the rate at which the timed loop retired flops
// floating-point operations per iteration.
func reportGFLOPS(b *testing.B, flops int64) {
	b.ReportMetric(float64(flops)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// The mnist-small 784→800 layer at the benchmark's two batch sizes, on
// the pools the scheduler's CPU (GroupSize 4096) and iGPU (256) devices
// hand to the kernel, as nn's plan calls it: into a buffer it owns, with
// the arena's panel. "dispatch" is the kernel the rule picks on this
// host (KernelISA), "portable" the Go kernel whatever the host.
// randTensor has no exact zeros, so the numbers are comparable with
// MatMul's, whose av == 0 skip never fires either.
func benchLinear(b *testing.B, pool *Pool, m int) {
	rng := rand.New(rand.NewSource(1))
	in, w, bias := randTensor(rng, m, 784), randTensor(rng, 800, 784), randTensor(rng, 800)
	out, panel := New(m, 800), make([]float32, LinearPanelLen(m, 784, 800))
	flops := int64(m) * 800 * (2*784 + 1 + ReLU.FlopsPerElement())
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			LinearPanelInto(pool, out, in, w, bias, ReLU, panel)
		}
		reportGFLOPS(b, flops)
	}
	b.Run("dispatch", run)
	b.Run("portable", func(b *testing.B) {
		defer UsePortableKernels()()
		run(b)
	})
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

// cifar-10's first layer through the direct convolution.
func BenchmarkConv2DDirect(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	in := randTensor(rng, 8, 3, 32, 32)
	f := randTensor(rng, 32, 3, 3, 3)
	bias := randTensor(rng, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = Conv2D(Default, in, f, bias)
	}
}

// The shapes http_cnn_b8 runs: mnist-cnn's two padded convs (ReLU
// fused) and two max-pools at batch 8, on the pools the scheduler's CPU
// (GroupSize 4096) and iGPU (256) devices hand to the kernels.
var cnnPools = []struct {
	name string
	pool *Pool
}{{"Serial", Serial}, {"Group256", NewPool(0, 256)}, {"Group4096", NewPool(0, 4096)}}

func benchMnistConv(b *testing.B, inC, size int) {
	rng := rand.New(rand.NewSource(2))
	in, f, bias := randTensor(rng, 8, inC, size, size), randTensor(rng, 32, inC, 3, 3), randTensor(rng, 32)
	for _, p := range cnnPools {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = Conv2DAct(p.pool, in, f, bias, ReLU)
			}
		})
	}
}

func BenchmarkConv2DMnistCNN1(b *testing.B) { benchMnistConv(b, 1, 30) }
func BenchmarkConv2DMnistCNN2(b *testing.B) { benchMnistConv(b, 32, 16) }

// The same two layers as the blocks nn's plan runs: conv → ReLU → 2×2
// max-pool in one pass, into the interior of a buffer that already
// carries the next convolution's border. The "portable" row is the Go
// kernel on the caller, whatever the host; the pools dispatch.
func benchMnistConvPool(b *testing.B, inC, size, border int) {
	rng := rand.New(rand.NewSource(2))
	in, f, bias := randTensor(rng, 8, inC, size, size), randTensor(rng, 32, inC, 3, 3), randTensor(rng, 32)
	out := New(8, 32, (size-2)/2+2*border, (size-2)/2+2*border)
	conv := int64(8 * 32 * (size - 2) * (size - 2))
	flops := conv * int64(2*inC*9+1+int(ReLU.FlopsPerElement())+1) // taps, bias, ReLU, the pool's compare
	for _, p := range cnnPools {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ConvPoolInto(p.pool, out, in, f, bias, ReLU, 2)
			}
			reportGFLOPS(b, flops)
		})
	}
	b.Run("portable", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for s := 0; s < 8; s++ {
				convFilters(out, in, f, bias, ReLU, 2, s, 0, 32)
			}
		}
		reportGFLOPS(b, flops)
	})
}

func BenchmarkConvPoolMnistCNN1(b *testing.B) { benchMnistConvPool(b, 1, 30, 1) }
func BenchmarkConvPoolMnistCNN2(b *testing.B) { benchMnistConvPool(b, 32, 16, 0) }

func benchMnistMaxPool(b *testing.B, size int) {
	in := randTensor(rand.New(rand.NewSource(3)), 8, 32, size, size)
	for _, p := range cnnPools {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = MaxPool2D(p.pool, in, 2)
			}
		})
	}
}

func BenchmarkMaxPool2DMnistCNN1(b *testing.B) { benchMnistMaxPool(b, 28) }
func BenchmarkMaxPool2DMnistCNN2(b *testing.B) { benchMnistMaxPool(b, 14) }

func BenchmarkMaxPool2D(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	in := randTensor(rng, 8, 32, 32, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = MaxPool2D(Default, in, 2)
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

// BenchmarkPoolForIdleHelper times a parallel For that starts while the
// helper CPU is idle — the state a device pool's second worker is in
// between requests — against the same work on the caller alone. Before
// every call the timer stops and the benchmark sleeps 300 µs, so the
// helper goroutine's CPU has gone idle; "parallel" then pays for waking
// it, "serial" does not. The work is 256 dot products of 256 inputs,
// one add chain each (≈ 60 µs on one 2.1 GHz Xeon core), in groups of
// 16. Run it at -cpu 2: at one CPU both forms run on the caller.
func BenchmarkPoolForIdleHelper(b *testing.B) {
	const rows, width = 256, 256
	x := make([]float32, rows*width)
	for i := range x {
		x[i] = float32(i%7) / 7
	}
	out := make([]float32, rows)
	work := func(lo, hi int) {
		for r := lo; r < hi; r++ {
			var s float32
			for _, v := range x[r*width : (r+1)*width] {
				s += v * v
			}
			out[r] = s
		}
	}
	for _, c := range []struct {
		name string
		pool *Pool
	}{{"serial", Serial}, {"parallel", NewPool(0, 16)}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				time.Sleep(300 * time.Microsecond)
				b.StartTimer()
				c.pool.For(rows, work)
			}
		})
	}
}
