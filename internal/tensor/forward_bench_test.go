package tensor_test

import (
	"math/rand"
	"testing"

	"bomw/internal/models"
	"bomw/internal/nn"
	"bomw/internal/tensor"
)

// The two networks the serving benchmark spends its time in, at its
// batch sizes, through nn's plan: "dispatch" on the kernels the rule
// picks on this host (tensor.KernelISA), "portable" on the Go kernels
// whatever the host — the pair `make bench` prints side by side. They
// live here rather than beside nn's BenchmarkForward* because only this
// package's tests can reach the switch.
func benchForward(b *testing.B, spec *nn.Spec, batch int) {
	net := spec.MustBuild(1)
	in := tensor.New(append([]int{batch}, spec.InputShape...)...)
	rng := rand.New(rand.NewSource(1))
	for i := range in.Data() {
		in.Data()[i] = float32(1+rng.Intn(999)) / 1000 // the serving benchmark's pattern: never zero
	}
	flops := float64(batch) * float64(net.FlopsPerSample())
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			net.Forward(tensor.Default, in)
		}
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	}
	b.Run("dispatch", run)
	b.Run("portable", func(b *testing.B) {
		defer tensor.UsePortableKernels()()
		run(b)
	})
}

func BenchmarkForwardMnistSmall1(b *testing.B)  { benchForward(b, models.MnistSmall(), 1) }
func BenchmarkForwardMnistSmall64(b *testing.B) { benchForward(b, models.MnistSmall(), 64) }
func BenchmarkForwardMnistCNN8(b *testing.B)    { benchForward(b, models.MnistCNN(), 8) }
