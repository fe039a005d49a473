package models

import (
	"strings"
	"testing"

	"bomw/internal/nn"
)

func TestPaperModelCount(t *testing.T) {
	if got := len(PaperModels()); got != 5 {
		t.Fatalf("paper models = %d, want 5", got)
	}
	if got := len(AugmentationModels()); got != 16 {
		t.Fatalf("augmentation models = %d, want 16 (§V-B)", got)
	}
	if got := len(AllModels()); got != 21 {
		t.Fatalf("all models = %d, want 21", got)
	}
}

func TestAllSpecsValidateAndBuild(t *testing.T) {
	for _, s := range append(AllModels(), UnseenModels()...) {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		net, err := s.Build(1)
		if err != nil {
			t.Fatalf("%s: build: %v", s.Name, err)
		}
		if net.Classes() != s.Classes {
			t.Fatalf("%s: classes %d, want %d", s.Name, net.Classes(), s.Classes)
		}
	}
}

func TestModelNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range append(AllModels(), UnseenModels()...) {
		if seen[s.Name] {
			t.Fatalf("duplicate model name %q", s.Name)
		}
		seen[s.Name] = true
	}
}

func TestSimpleArchitecture(t *testing.T) {
	s := Simple()
	if s.InputShape[0] != 4 || s.Classes != 3 || len(s.Hidden) != 2 || s.Hidden[0] != 6 || s.Hidden[1] != 6 {
		t.Fatalf("Simple spec deviates from §III-B1: %+v", s)
	}
}

func TestMnistSmallArchitecture(t *testing.T) {
	s := MnistSmall()
	if s.InputShape[0] != 784 || s.Hidden[0] != 784 || s.Hidden[1] != 800 || s.Classes != 10 {
		t.Fatalf("MnistSmall spec deviates from §III-B2: %+v", s)
	}
}

func TestMnistDeepArchitecture(t *testing.T) {
	s := MnistDeep()
	want := []int{784, 2500, 2000, 1500, 1000, 500}
	if len(s.Hidden) != 6 {
		t.Fatalf("MnistDeep needs six hidden layers, got %d", len(s.Hidden))
	}
	for i, w := range want {
		if s.Hidden[i] != w {
			t.Fatalf("MnistDeep hidden = %v, want %v", s.Hidden, want)
		}
	}
}

func TestMnistCNNArchitecture(t *testing.T) {
	s := MnistCNN()
	if s.VGGBlocks != 2 || s.ConvsPerBlock != 1 || s.Filters != 32 || s.FilterSize != 3 || s.PoolSize != 2 {
		t.Fatalf("MnistCNN spec deviates from §III-B4: %+v", s)
	}
	if s.Hidden[0] != 128 || s.Classes != 10 {
		t.Fatalf("MnistCNN dense head deviates: %+v", s)
	}
}

func TestCifar10Architecture(t *testing.T) {
	s := Cifar10()
	if s.VGGBlocks != 3 || s.ConvsPerBlock != 2 || s.Filters != 32 || s.FilterSize != 3 || s.PoolSize != 2 {
		t.Fatalf("Cifar10 spec deviates from §III-B5: %+v", s)
	}
}

func TestComputeIntensityOrdering(t *testing.T) {
	// The paper's characterisation relies on Simple ≪ Mnist-Small <
	// Mnist-Deep and Cifar-10 being the most compute-intensive per sample.
	flops := map[string]int64{}
	for _, s := range PaperModels() {
		flops[s.Name] = s.MustBuild(1).FlopsPerSample()
	}
	if !(flops["simple"] < flops["mnist-small"] && flops["mnist-small"] < flops["mnist-deep"]) {
		t.Fatalf("FFNN intensity ordering broken: %v", flops)
	}
	if flops["cifar-10"] <= flops["mnist-cnn"] {
		t.Fatalf("Cifar-10 should outweigh Mnist-CNN: %v", flops)
	}
	if flops["simple"] > 1000 {
		t.Fatalf("Simple should be tiny, got %d flops/sample", flops["simple"])
	}
}

func TestAugmentationCoversParameterAxes(t *testing.T) {
	depths := map[int]bool{}
	widths := map[int]bool{}
	blocks := map[int]bool{}
	convs := map[int]bool{}
	fsizes := map[int]bool{}
	pools := map[int]bool{}
	for _, s := range AugmentationModels() {
		if s.Kind == nn.FFNN {
			depths[len(s.Hidden)] = true
			widths[s.Hidden[0]] = true
		} else {
			blocks[s.VGGBlocks] = true
			convs[s.ConvsPerBlock] = true
			fsizes[s.FilterSize] = true
			pools[s.PoolSize] = true
		}
	}
	if len(depths) < 3 || len(widths) < 2 {
		t.Fatalf("FFNN augmentation too narrow: depths %v widths %v", depths, widths)
	}
	if len(blocks) < 3 || len(convs) < 2 || len(fsizes) < 2 || len(pools) < 2 {
		t.Fatalf("CNN augmentation too narrow: blocks %v convs %v filters %v pools %v", blocks, convs, fsizes, pools)
	}
}

func TestUnseenModelsDisjointFromTraining(t *testing.T) {
	training := map[string]bool{}
	for _, s := range AllModels() {
		training[s.Name] = true
	}
	for _, s := range UnseenModels() {
		if training[s.Name] {
			t.Fatalf("unseen model %q is in the training set", s.Name)
		}
		if !strings.HasPrefix(s.Name, "unseen-") {
			t.Fatalf("unseen model %q should be prefixed for clarity", s.Name)
		}
	}
	// Descriptors must differ too, not just names.
	trainDesc := map[nn.Descriptor]string{}
	for _, s := range AllModels() {
		trainDesc[s.Descriptor()] = s.Name
	}
	for _, s := range UnseenModels() {
		if name, dup := trainDesc[s.Descriptor()]; dup {
			t.Fatalf("unseen model %q duplicates descriptor of training model %q", s.Name, name)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("cifar-10")
	if err != nil || s.Name != "cifar-10" {
		t.Fatalf("ByName(cifar-10) = %v, %v", s, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName accepted unknown model")
	}
}

func TestSynthesizeShapesAndLabels(t *testing.T) {
	d := Synthesize(MnistCNN(), 30, 1)
	if d.Len() != 30 {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.X.Dim(0) != 30 || d.X.Dim(1) != 1 || d.X.Dim(2) != 28 || d.X.Dim(3) != 28 {
		t.Fatalf("X shape = %v", d.X.Shape())
	}
	counts := make([]int, d.Classes)
	for _, y := range d.Y {
		if y < 0 || y >= d.Classes {
			t.Fatalf("label %d out of range", y)
		}
		counts[y]++
	}
	for c, n := range counts {
		if n == 0 {
			t.Fatalf("class %d unpopulated", c)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a := Synthesize(Simple(), 10, 7)
	b := Synthesize(Simple(), 10, 7)
	c := Synthesize(Simple(), 10, 8)
	if !a.X.Equal(b.X) {
		t.Fatal("same seed, different data")
	}
	if a.X.Equal(c.X) {
		t.Fatal("different seed, same data")
	}
}

func TestDatasetBatch(t *testing.T) {
	d := Synthesize(Simple(), 10, 1)
	b := d.Batch(2, 5)
	if b.Dim(0) != 3 || b.Dim(1) != 4 {
		t.Fatalf("Batch shape = %v", b.Shape())
	}
	// Copy semantics: mutating the batch must not touch the dataset.
	b.Data()[0] = 999
	if d.X.At(2, 0) == 999 {
		t.Fatal("Batch should copy")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad batch range did not panic")
		}
	}()
	d.Batch(5, 3)
}

func TestSyntheticSeparability(t *testing.T) {
	// A dataset with per-class centroids should let even an untrained
	// nearest-centroid rule beat random guessing comfortably — sanity
	// check that the generator produces class structure.
	d := Synthesize(Simple(), 150, 3)
	per := 4
	centroids := make([][]float32, d.Classes)
	counts := make([]int, d.Classes)
	for i := 0; i < d.Len(); i++ {
		c := d.Y[i]
		if centroids[c] == nil {
			centroids[c] = make([]float32, per)
		}
		for j := 0; j < per; j++ {
			centroids[c][j] += d.X.At(i, j)
		}
		counts[c]++
	}
	for c := range centroids {
		for j := range centroids[c] {
			centroids[c][j] /= float32(counts[c])
		}
	}
	correct := 0
	for i := 0; i < d.Len(); i++ {
		best, bestDist := -1, float32(0)
		for c := range centroids {
			var dist float32
			for j := 0; j < per; j++ {
				diff := d.X.At(i, j) - centroids[c][j]
				dist += diff * diff
			}
			if best == -1 || dist < bestDist {
				best, bestDist = c, dist
			}
		}
		if best == d.Y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(d.Len()); acc < 0.8 {
		t.Fatalf("nearest-centroid accuracy %.2f, want ≥0.8 (class structure missing)", acc)
	}
}

func TestDatasetHelpers(t *testing.T) {
	if d := Synthesize(MnistSmall(), 5, 1); d.X.Dim(1) != 784 {
		t.Fatalf("mnist-small shape %v", d.X.Shape())
	}
	if d := Synthesize(MnistCNN(), 5, 1); d.X.Rank() != 4 {
		t.Fatalf("mnist-cnn rank %d", d.X.Rank())
	}
	if d := Synthesize(Cifar10(), 5, 1); d.X.Dim(1) != 3 || d.X.Dim(2) != 32 {
		t.Fatalf("cifar10 shape %v", d.X.Shape())
	}
}
