package tensor_test

import (
	"testing"

	"bomw/internal/models"
	"bomw/internal/nn"
	"bomw/internal/tensor"
)

// Every dense layer the five paper models serve runs a vector kernel
// where the CPU has AVX2: the sample lanes from eight samples up —
// simple's 4→6→6→3 included, at http_cnn_b8's and lib_simple_burst's
// batches — and the neuron lanes at batch 1 wherever a layer has a tile
// of eight neurons. A rule change that sends one back to the Go kernel
// fails here rather than first on the serving benchmark.
func TestPaperDenseLayersTakeTheVectorKernels(t *testing.T) {
	if tensor.KernelISA() != "avx2" {
		t.Skipf("KernelISA() = %q: no vector kernels in this process", tensor.KernelISA())
	}
	for _, spec := range models.PaperModels() {
		dense := 0
		for _, l := range spec.MustBuild(1).Layers() {
			d, ok := l.(*nn.Dense)
			if !ok {
				continue
			}
			dense++
			n, k := d.W.Dim(0), d.W.Dim(1)
			for _, m := range []int{8, 64} {
				if got := tensor.LinearKernel(m, k, n); got != "sample lanes" || tensor.LinearPanelLen(m, k, n) == 0 {
					t.Errorf("%s: dense %d→%d at batch %d runs %q with a %d-float panel, want the sample lanes", spec.Name, k, n, m, got, tensor.LinearPanelLen(m, k, n))
				}
			}
			want := "go"
			if n >= 8 {
				want = "neuron lanes"
			}
			if got := tensor.LinearKernel(1, k, n); got != want {
				t.Errorf("%s: dense %d→%d at batch 1 runs %q, want %q", spec.Name, k, n, got, want)
			}
		}
		if dense == 0 {
			t.Errorf("%s: no dense layer found", spec.Name)
		}
	}
}
