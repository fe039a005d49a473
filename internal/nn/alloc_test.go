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

// The floor the plan sets: once an arena of the batch size exists, a
// Forward allocates its [batch, classes] output tensor — a header and
// the data — and nothing else, on every paper model, and a Classify
// only its labels. Before the plan,
// mnist-cnn at batch 8 made 54 allocations for 1571 KB here.
func TestForwardAllocatesOnlyItsOutput(t *testing.T) {
	if raceDetector {
		t.Skip("under -race sync.Pool drops a quarter of what is Put, so arenas are remade")
	}
	for _, spec := range paperSpecs {
		net := spec.MustBuild(1)
		batches := []int{1, 8}
		if spec == mnistSmallSpec {
			batches = append(batches, 64) // http_mnist_b64: the packed panel is the arena's, not the pass's
		}
		for _, batch := range batches {
			in := tensor.New(append([]int{batch}, spec.InputShape...)...)
			in.Fill(0.5)
			forward := func() { benchSink = net.Forward(tensor.Serial, in) }
			if allocs := testing.AllocsPerRun(3, forward); allocs > 2 {
				t.Errorf("%s batch %d: Forward makes %v allocations, want at most 2", spec.Name, batch, allocs)
			}
			if bytes, budget := bytesPerRun(3, forward), uint64(4*batch*spec.Classes+256); bytes > budget {
				t.Errorf("%s batch %d: Forward allocates %d B, want at most %d (the output and 256 B)", spec.Name, batch, bytes, budget)
			}
			// Classify reads its labels from the arena: they are all it allocates.
			if allocs := testing.AllocsPerRun(3, func() { _ = net.Classify(tensor.Serial, in) }); allocs > 1 {
				t.Errorf("%s batch %d: Classify makes %v allocations, want at most 1 (the labels)", spec.Name, batch, allocs)
			}
		}
	}
}

// The conv block of http_cnn_b8: the 32→32 3×3 Pad 1 layer at batch 8
// allocates its padded input and its output and nothing else — no
// closure on one worker, no scratch in the four-filter kernel.
func TestConvForwardAllocatesOnlyPaddedInputAndOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewConvPad(rng, 32, 32, 3, 1, tensor.ReLU)
	in := tensor.New(8, 32, 14, 14)
	for i := range in.Data() {
		in.Data()[i] = rng.Float32()
	}
	tensors := testing.AllocsPerRun(20, func() {
		benchSink = tensor.New(8, 32, 16, 16)
		benchSink = tensor.New(8, 32, 14, 14)
	})
	if forward := testing.AllocsPerRun(20, func() { benchSink = c.Forward(tensor.Serial, in) }); forward != tensors {
		t.Errorf("Conv.Forward makes %v allocations, its padded input and output tensors alone %v", forward, tensors)
	}
}

// Conv2DAct and MaxPool2D follow Linear's inline rule: a call of at
// most 4·GroupSize work-items stays on the caller, which shows as the
// Serial call's allocation count; one row over the limit, the split —
// goroutines and their closure — must still happen.
func TestConvAndMaxPoolSmallCallsRunInline(t *testing.T) {
	pool := tensor.NewPool(2, 256) // inline up to 1024 work-items
	filters := tensor.New(8, 1, 1, 1)
	conv := func(pool *tensor.Pool, in *tensor.Tensor) float64 {
		return testing.AllocsPerRun(20, func() { tensor.Conv2DAct(pool, in, filters, nil, tensor.ReLU) })
	}
	maxPool := func(pool *tensor.Pool, in *tensor.Tensor) float64 {
		return testing.AllocsPerRun(20, func() { tensor.MaxPool2D(pool, in, 1) })
	}
	for _, tc := range []struct {
		name     string
		allocs   func(pool *tensor.Pool, in *tensor.Tensor) float64
		at, over *tensor.Tensor // 1024 and 1088 work-items
	}{
		{"Conv2DAct", conv, tensor.New(1, 1, 8, 16), tensor.New(1, 1, 8, 17)}, // × 8 filters
		{"MaxPool2D", maxPool, tensor.New(1, 8, 8, 16), tensor.New(1, 8, 8, 17)},
	} {
		if got, want := tc.allocs(pool, tc.at), tc.allocs(tensor.Serial, tc.at); got != want {
			t.Errorf("%s of 1024 work-items on pool(2,256): %v allocs per call, want the inline call's %v", tc.name, got, want)
		}
		if got, inline := tc.allocs(pool, tc.over), tc.allocs(tensor.Serial, tc.over); got <= inline {
			t.Errorf("%s of 1088 work-items on pool(2,256): %v allocs per call, no more than inline (%v): it was not split", tc.name, got, inline)
		}
	}
}
