package nn

import (
	"math/rand"
	"runtime"
	"testing"

	"bomw/internal/tensor"
)

// bytesPerRun is testing.AllocsPerRun for bytes.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up, as AllocsPerRun does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// The allocation gate of ROADMAP 1d: counts are deterministic, so they
// gate hard. A dense forward pass allocates its output tensor and
// nothing else — in particular no weight-sized scratch, which is what a
// per-call transpose of W cost (2.5 MB for this layer).
func TestDenseForwardAllocatesOnlyItsOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(rng, 784, 800, tensor.ReLU)
	for _, batch := range []int{1, 64} {
		in := tensor.New(batch, 784)
		for i := range in.Data() {
			in.Data()[i] = rng.Float32()
		}
		output := testing.AllocsPerRun(20, func() { benchSink = tensor.New(batch, 800) })
		forward := testing.AllocsPerRun(20, func() { benchSink = d.Forward(tensor.Serial, in) })
		if forward != output {
			t.Errorf("batch %d: Dense.Forward makes %v allocations, its output tensor alone %v", batch, forward, output)
		}
		bytes := bytesPerRun(5, func() { benchSink = d.Forward(tensor.Serial, in) })
		if outBytes := uint64(4 * batch * 800); bytes > 2*outBytes {
			t.Errorf("batch %d: Dense.Forward allocates %d B, want at most twice the %d B output", batch, bytes, outBytes)
		}
	}
}

func TestMnistSmallForwardAllocationBudget(t *testing.T) {
	net := mnistSmallSpec.MustBuild(1)
	in := tensor.New(1, 784)
	in.Fill(0.5)
	if bytes := bytesPerRun(20, func() { benchSink = net.Forward(tensor.Serial, in) }); bytes >= 16<<10 {
		t.Errorf("mnist-small batch-1 Forward allocates %d B, want under 16 KB (three output tensors are 6.4 KB)", bytes)
	}
}
