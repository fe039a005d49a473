package nn

import (
	"strings"
	"testing"

	"bomw/internal/tensor"
)

func TestPruneStatsAndFlops(t *testing.T) {
	net := irisSpec().MustBuild(60)
	stats, err := Prune(net, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LayersPruned != 3 {
		t.Fatalf("pruned %d layers, want 3", stats.LayersPruned)
	}
	if s := float64(stats.WeightsZero) / float64(stats.WeightsTotal); s < 0.45 || s > 0.55 {
		t.Fatalf("sparsity %.2f, want ≈0.5", s)
	}
	if stats.FlopsAfter >= stats.FlopsBefore {
		t.Fatal("pruning must reduce sparse-execution flops")
	}
	if _, err := Prune(net, 1.5); err == nil {
		t.Fatal("fraction >1 accepted")
	}
	if _, err := Prune(net, -0.1); err == nil {
		t.Fatal("negative fraction accepted")
	}
}

func TestPruneLeavesConvsAlone(t *testing.T) {
	net := tinyCNNSpec().MustBuild(61)
	before := net.Layers()[0].(*Conv).Filters.Clone()
	if _, err := Prune(net, 0.9); err != nil {
		t.Fatal(err)
	}
	if !net.Layers()[0].(*Conv).Filters.Equal(before) {
		t.Fatal("convolution filters were pruned")
	}
}

func TestSparsifyPreservesPredictions(t *testing.T) {
	// Moderate pruning barely moves predictions; sparse execution must
	// exactly match the pruned dense network.
	net := irisSpec().MustBuild(62)
	x, y := clusteredData(200, 4, 3, 63)
	if err := (&Trainer{Epochs: 120, Seed: 5}).Train(net, x, y); err != nil {
		t.Fatal(err)
	}
	accBefore := Accuracy(net, tensor.Default, x, y)
	if _, err := Prune(net, 0.3); err != nil {
		t.Fatal(err)
	}
	sparse := SparsifyNetwork(net)
	densePred := net.Classify(tensor.Default, x)
	sparsePred := sparse.Classify(tensor.Default, x)
	for i := range densePred {
		if densePred[i] != sparsePred[i] {
			t.Fatal("sparse execution diverges from pruned dense network")
		}
	}
	accAfter := Accuracy(sparse, tensor.Default, x, y)
	if accAfter < accBefore-0.15 {
		t.Fatalf("30%% pruning destroyed accuracy: %.2f → %.2f", accBefore, accAfter)
	}
	if !strings.Contains(sparse.Name(), "-sparse") {
		t.Fatalf("sparse network name %q", sparse.Name())
	}
}

func TestSparseDenseAccounting(t *testing.T) {
	net := irisSpec().MustBuild(64)
	if _, err := Prune(net, 0.6); err != nil {
		t.Fatal(err)
	}
	sparse := SparsifyNetwork(net)
	if sparse.FlopsPerSample() >= net.FlopsPerSample() {
		t.Fatalf("sparse flops %d not below dense %d", sparse.FlopsPerSample(), net.FlopsPerSample())
	}
	sd := sparse.Layers()[0].(*SparseDense)
	if sd.ParamBytes() <= 0 {
		t.Fatal("sparse params must have positive footprint")
	}
	if got := sd.OutputShape([]int{4}); got[0] != 6 {
		t.Fatalf("sparse OutputShape = %v", got)
	}
	if !strings.Contains(sd.Name(), "sparse-dense") {
		t.Fatalf("Name = %q", sd.Name())
	}
}

func TestHalveNetworkPredictionsClose(t *testing.T) {
	net := irisSpec().MustBuild(65)
	x, y := clusteredData(200, 4, 3, 66)
	if err := (&Trainer{Epochs: 120, Seed: 6}).Train(net, x, y); err != nil {
		t.Fatal(err)
	}
	half := HalveNetwork(net)
	densePred := net.Classify(tensor.Default, x)
	halfPred := half.Classify(tensor.Default, x)
	agree := 0
	for i := range densePred {
		if densePred[i] == halfPred[i] {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(densePred)); frac < 0.98 {
		t.Fatalf("fp16 weights changed %.1f%% of predictions", 100*(1-frac))
	}
	if Accuracy(half, tensor.Default, x, y) < Accuracy(net, tensor.Default, x, y)-0.05 {
		t.Fatal("fp16 storage should not measurably hurt accuracy")
	}
}

func TestHalveNetworkHalvesWeightBytes(t *testing.T) {
	net := irisSpec().MustBuild(67)
	half := HalveNetwork(net)
	// Weight matrices halve; fp32 biases stay.
	if half.ParamBytes() >= net.ParamBytes() {
		t.Fatalf("fp16 params %d not below fp32 %d", half.ParamBytes(), net.ParamBytes())
	}
	hd := half.Layers()[0].(*HalfDense)
	if got := hd.OutputShape([]int{4}); got[0] != 6 {
		t.Fatalf("half OutputShape = %v", got)
	}
	if hd.FlopsPerSample([]int{4}) != net.Layers()[0].(*Dense).FlopsPerSample([]int{4}) {
		t.Fatal("fp16 storage should not change compute flops")
	}
	if !strings.Contains(hd.Name(), "half-dense") {
		t.Fatalf("Name = %q", hd.Name())
	}
	if !strings.Contains(half.Name(), "-fp16") {
		t.Fatalf("network name %q", half.Name())
	}
}

func TestOptimizedNetworksRunOnDeviceModels(t *testing.T) {
	// The optimised variants must flow through the whole stack: smaller
	// workloads should be charged less by the device models.
	net := MustBuildSpec(t)
	if _, err := Prune(net, 0.7); err != nil {
		t.Fatal(err)
	}
	sparse := SparsifyNetwork(net)
	if sparse.ParamBytes() >= net.ParamBytes() {
		t.Fatal("CSR weights should be smaller at 70% sparsity")
	}
}

// MustBuildSpec builds a mid-size FFNN for optimisation tests.
func MustBuildSpec(t *testing.T) *Network {
	t.Helper()
	spec := &Spec{Name: "opt", Kind: FFNN, InputShape: []int{64},
		Hidden: []int{256, 128}, Classes: 10, Act: tensor.ReLU}
	return spec.MustBuild(68)
}
