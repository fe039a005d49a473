package nn

import (
	"math/rand"
	"testing"

	"bomw/internal/tensor"
)

// benchSink and labelSink keep the compiler from discarding the
// measured call.
var (
	benchSink *tensor.Tensor
	labelSink []int
)

// benchForward feeds the serving benchmark's input pattern (k/1000,
// k in 1..999, never zero): an all-zero input took MatMul's av == 0 skip
// and, after ReLU, kept taking it, which read several times too fast.
// The rows run the kernels the dispatch rule picks on this host; the
// same passes pinned to the Go kernels are internal/tensor's
// BenchmarkForward*/portable.
func benchForward(b *testing.B, spec *Spec, batch int) {
	net, in := benchOperands(spec, batch)
	b.SetBytes(int64(batch) * net.SampleBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = net.Forward(tensor.Default, in)
	}
	b.ReportMetric(float64(batch)*float64(net.FlopsPerSample())*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func benchOperands(spec *Spec, batch int) (*Network, *tensor.Tensor) {
	in := tensor.New(append([]int{batch}, spec.InputShape...)...)
	rng := rand.New(rand.NewSource(1))
	for i := range in.Data() {
		in.Data()[i] = float32(1+rng.Intn(999)) / 1000
	}
	return spec.MustBuild(1), in
}

// BenchmarkClassifySimple64 is the forward pass of lib_simple_burst in
// bench/: a merged burst of 64 simple samples classified on a
// one-worker pool, as the simulated CPU device's.
func BenchmarkClassifySimple64(b *testing.B) {
	net, in := benchOperands(simpleSpec, 64)
	pool := tensor.NewPool(1, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		labelSink = net.Classify(pool, in)
	}
	b.ReportMetric(64*float64(net.FlopsPerSample())*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// The five paper models (internal/models imports this package, so the
// specs are spelled out), at batch 1 and 8 — http_cnn_b8's batch — and
// mnist-small at http_mnist_b64's as well.
var (
	simpleSpec = &Spec{Name: "simple", Kind: FFNN, InputShape: []int{4},
		Hidden: []int{6, 6}, Classes: 3, Act: tensor.ReLU}
	mnistSmallSpec = &Spec{Name: "mnist-small", Kind: FFNN, InputShape: []int{784},
		Hidden: []int{784, 800}, Classes: 10, Act: tensor.ReLU}
	mnistDeepSpec = &Spec{Name: "mnist-deep", Kind: FFNN, InputShape: []int{784},
		Hidden: []int{784, 2500, 2000, 1500, 1000, 500}, Classes: 10, Act: tensor.ReLU}
	mnistCNNSpec = &Spec{Name: "mnist-cnn", Kind: CNN, InputShape: []int{1, 28, 28},
		Hidden: []int{128}, Classes: 10, Act: tensor.ReLU,
		VGGBlocks: 2, ConvsPerBlock: 1, Filters: 32, FilterSize: 3, PoolSize: 2, SamePad: true}
	cifar10Spec = &Spec{Name: "cifar-10", Kind: CNN, InputShape: []int{3, 32, 32},
		Hidden: []int{128}, Classes: 10, Act: tensor.ReLU,
		VGGBlocks: 3, ConvsPerBlock: 2, Filters: 32, FilterSize: 3, PoolSize: 2, SamePad: true}

	paperSpecs = []*Spec{simpleSpec, mnistSmallSpec, mnistDeepSpec, mnistCNNSpec, cifar10Spec}
)

func BenchmarkForwardSimple1(b *testing.B)      { benchForward(b, simpleSpec, 1) }
func BenchmarkForwardSimple8(b *testing.B)      { benchForward(b, simpleSpec, 8) }
func BenchmarkForwardMnistSmall1(b *testing.B)  { benchForward(b, mnistSmallSpec, 1) }
func BenchmarkForwardMnistSmall8(b *testing.B)  { benchForward(b, mnistSmallSpec, 8) }
func BenchmarkForwardMnistSmall64(b *testing.B) { benchForward(b, mnistSmallSpec, 64) }
func BenchmarkForwardMnistDeep1(b *testing.B)   { benchForward(b, mnistDeepSpec, 1) }
func BenchmarkForwardMnistDeep8(b *testing.B)   { benchForward(b, mnistDeepSpec, 8) }
func BenchmarkForwardMnistCNN1(b *testing.B)    { benchForward(b, mnistCNNSpec, 1) }
func BenchmarkForwardMnistCNN8(b *testing.B)    { benchForward(b, mnistCNNSpec, 8) }
func BenchmarkForwardCifar10x1(b *testing.B)    { benchForward(b, cifar10Spec, 1) }
func BenchmarkForwardCifar10x8(b *testing.B)    { benchForward(b, cifar10Spec, 8) }

func BenchmarkBuildMnistDeep(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mnistDeepSpec.MustBuild(int64(i))
	}
}
