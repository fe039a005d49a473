package bomw

import (
	"bytes"
	"testing"
	"time"
)

// TestPublicAPIQuickstart exercises the README's quick-start path through
// the public surface only.
func TestPublicAPIQuickstart(t *testing.T) {
	sched, err := NewScheduler(Config{
		TrainModels: PaperModels(),
		Batches:     []int{8, 512, 8192},
		Reps:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.LoadModel(MnistSmall(), 1); err != nil {
		t.Fatal(err)
	}
	ds := Synthesize(MnistSmall(), 16, 1)
	res, dec, err := sched.Classify("mnist-small", ds.Batch(0, 16), BestThroughput, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Classes) != 16 || dec.Device == "" {
		t.Fatalf("quickstart result degenerate: %+v / %+v", res, dec)
	}
}

func TestPublicModelZoo(t *testing.T) {
	if len(PaperModels()) != 5 || len(AllModels()) != 21 || len(UnseenModels()) == 0 {
		t.Fatal("model zoo sizes wrong")
	}
	s, err := ModelByName("cifar-10")
	if err != nil || s.Name != "cifar-10" {
		t.Fatal("ModelByName failed")
	}
	for _, f := range []func() *Spec{Simple, MnistSmall, MnistDeep, MnistCNN, Cifar10} {
		if err := f().Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPublicDeviceAndRuntime(t *testing.T) {
	devs := []*Device{NewDevice(IntelCoreI7_8700()), NewDevice(NvidiaGTX1080Ti())}
	rt, err := NewRuntime(devs...)
	if err != nil {
		t.Fatal(err)
	}
	net := Simple().MustBuild(1)
	if err := rt.LoadModel(net); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Estimate("i7-8700 CPU", "simple", 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency() <= 0 {
		t.Fatal("estimate latency must be positive")
	}
	if len(DefaultProfiles()) != 3 {
		t.Fatal("default profiles should be the paper's trio")
	}
}

func TestPublicClassifierConstructors(t *testing.T) {
	X := [][]float64{{0, 0}, {0, 1}, {5, 5}, {5, 6}, {0, 0.5}, {5, 5.5}}
	y := []int{0, 0, 1, 1, 0, 1}
	for _, c := range []Classifier{
		NewRandomForest(1), NewDecisionTree(), NewKNN(3),
		NewLinearRegression(), NewSVM(1), NewMLP(1),
	} {
		if err := c.Fit(X, y); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if c.Predict([]float64{0, 0.2}) != 0 || c.Predict([]float64{5, 5.2}) != 1 {
			t.Fatalf("%s failed a trivial separation", c.Name())
		}
	}
}

func TestPublicTraceGenerators(t *testing.T) {
	names := []string{"simple"}
	if _, err := PoissonTrace(10, 100, names, []int{8}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := BurstTrace(10, 10, 100, time.Second, 100*time.Millisecond, names, []int{2}, []int{512}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := DiurnalTrace(10, 1, 10, time.Second, names, []int{8}, 1); err != nil {
		t.Fatal(err)
	}
	if tr := SweepTrace(names, []int{2, 4}, time.Second); len(tr) != 2 {
		t.Fatal("sweep trace wrong")
	}
}

func TestPublicTensorHelpers(t *testing.T) {
	tt := NewTensor(2, 2)
	if tt.Len() != 4 {
		t.Fatal("NewTensor broken")
	}
	ts := TensorFromSlice([]float32{1, 2}, 2)
	if ts.At(1) != 2 {
		t.Fatal("TensorFromSlice broken")
	}
}

func TestVersionSet(t *testing.T) {
	if Version == "" {
		t.Fatal("version must be set")
	}
}

func TestPublicStatePersistence(t *testing.T) {
	sched, err := NewScheduler(Config{
		TrainModels: PaperModels(),
		Batches:     []int{8, 512, 8192},
		Reps:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sched.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadScheduler(Config{}, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadModel(Simple(), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Select("simple", 64, LowestLatency, 0); err != nil {
		t.Fatal(err)
	}
}

func TestPublicTraceAnalysis(t *testing.T) {
	tr, err := PoissonTrace(200, 100, []string{"simple"}, []int{8, 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := SummarizeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 200 || stats.MeanRate <= 0 {
		t.Fatalf("stats = %+v", stats)
	}
	rates, err := TraceRateOver(tr, 100*time.Millisecond)
	if err != nil || len(rates) == 0 {
		t.Fatalf("RateOver: %v", err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadTraceJSON(&buf)
	if err != nil || len(restored) != len(tr) {
		t.Fatalf("JSON round trip: %v", err)
	}
}

func TestPublicSpecJSON(t *testing.T) {
	spec, err := ParseSpecJSON([]byte(`{"name":"api-model","input_shape":[8],"hidden":[16],"classes":3}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "api-model" || spec.Classes != 3 {
		t.Fatalf("spec = %+v", spec)
	}
	if _, err := spec.Build(1); err != nil {
		t.Fatal(err)
	}
}

func TestPublicDeadlineAndAudit(t *testing.T) {
	sched, err := NewScheduler(Config{
		TrainModels: PaperModels(),
		Batches:     []int{8, 512, 8192},
		Reps:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"simple", "mnist-small"} {
		spec, err := ModelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.LoadModel(spec, 1); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := sched.SelectWithDeadline("mnist-small", 512, time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Met || dec.Device == "" {
		t.Fatalf("deadline decision = %+v", dec)
	}
	// Audit trail through the public surface.
	sched.EnableAudit(16)
	if _, err := sched.Select("simple", 8, LowestLatency, 0); err != nil {
		t.Fatal(err)
	}
	if got := sched.RecentDecisions(5); len(got) != 1 {
		t.Fatalf("audit entries = %d", len(got))
	}
}

func TestPublicOptimizations(t *testing.T) {
	net := Simple().MustBuild(1)
	if _, err := PruneNetwork(net, 0.4); err != nil {
		t.Fatal(err)
	}
	sparse := SparsifyNetwork(net)
	half := HalveNetwork(net)
	ds := Synthesize(Simple(), 12, 1)
	in := ds.Batch(0, 12)
	a := net.Classify(DefaultPool, in.Clone())
	b := sparse.Classify(DefaultPool, in.Clone())
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sparse classification diverged")
		}
	}
	if half.ParamBytes() >= net.ParamBytes() {
		t.Fatal("fp16 did not shrink weights")
	}
}
