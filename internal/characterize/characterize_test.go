package characterize

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"bomw/internal/device"
	"bomw/internal/mlsched"
	"bomw/internal/models"
	"bomw/internal/nn"
	"bomw/internal/opencl"
)

func TestPaperBatches(t *testing.T) {
	b := PaperBatches()
	if len(b) != 18 || b[0] != 2 || b[len(b)-1] != 256*1024 {
		t.Fatalf("batches = %v, want 2..256K powers of two", b)
	}
}

func TestObjectiveNames(t *testing.T) {
	names := map[Objective]string{
		BestThroughput:   "best-throughput",
		LowestLatency:    "lowest-latency",
		EnergyEfficiency: "energy-efficiency",
	}
	for o, want := range names {
		if o.String() != want {
			t.Fatalf("%d.String() = %q", int(o), o.String())
		}
	}
	if len(Objectives()) != 3 {
		t.Fatal("three policies expected")
	}
}

func TestFeaturesLayout(t *testing.T) {
	desc := models.Cifar10().Descriptor()
	f := Features(desc, 1024, true)
	names := DatasetFeatureNames()
	if len(f) != len(names) {
		t.Fatalf("features %d, names %d", len(f), len(names))
	}
	if names[len(names)-2] != "log2_batch" || names[len(names)-1] != "gpu_warm" {
		t.Fatalf("feature names = %v", names)
	}
	if f[len(f)-2] != 10 { // log2(1024)
		t.Fatalf("log2_batch = %g, want 10", f[len(f)-2])
	}
	if f[len(f)-1] != 1 {
		t.Fatal("gpu_warm should be 1")
	}
	if Features(desc, 1024, false)[len(f)-1] != 0 {
		t.Fatal("gpu_warm should be 0")
	}
}

func TestMeasureDeterministicWithoutNoise(t *testing.T) {
	sw := NewSweeper()
	a, err := sw.Measure(models.Simple(), device.IntelCoreI7_8700(), 64, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sw.Measure(models.Simple(), device.IntelCoreI7_8700(), 64, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("noise-free measurements differ:\n%+v\n%+v", a, b)
	}
	if a.Latency <= 0 || a.EnergyJ <= 0 || a.ThroughputGbps <= 0 || a.AvgPowerW <= 0 {
		t.Fatalf("degenerate point: %+v", a)
	}
}

func TestMeasureNoiseIsDeterministicPerRep(t *testing.T) {
	sw := NewSweeper()
	sw.Noise = 0.12
	a, _ := sw.Measure(models.Simple(), device.IntelCoreI7_8700(), 64, false, 0)
	b, _ := sw.Measure(models.Simple(), device.IntelCoreI7_8700(), 64, false, 0)
	c, _ := sw.Measure(models.Simple(), device.IntelCoreI7_8700(), 64, false, 1)
	if a != b {
		t.Fatal("same rep should reproduce the same noisy measurement")
	}
	if a == c {
		t.Fatal("different reps should draw different noise")
	}
}

func TestMeasureWarmFasterThanIdleOnGPU(t *testing.T) {
	sw := NewSweeper()
	gpu := device.NvidiaGTX1080Ti()
	idle, _ := sw.Measure(models.MnistSmall(), gpu, 512, false, 0)
	warm, _ := sw.Measure(models.MnistSmall(), gpu, 512, true, 0)
	if warm.Latency >= idle.Latency {
		t.Fatalf("warm %v should beat idle %v", warm.Latency, idle.Latency)
	}
	if warm.EnergyJ >= idle.EnergyJ {
		t.Fatal("warm start should cost less energy")
	}
	if !warm.GPUWarmStart || idle.GPUWarmStart {
		t.Fatal("GPUWarmStart flags wrong")
	}
}

func TestSteadyThroughputAtLeastFirstBatch(t *testing.T) {
	sw := NewSweeper()
	p, _ := sw.Measure(models.MnistSmall(), device.NvidiaGTX1080Ti(), 4096, false, 0)
	if p.SteadyLatency > p.Latency {
		t.Fatalf("steady latency %v should not exceed cold first batch %v", p.SteadyLatency, p.Latency)
	}
}

func TestSweepGridSize(t *testing.T) {
	sw := NewSweeper()
	specs := []*nn.Spec{models.Simple(), models.MnistCNN()}
	batches := []int{8, 512}
	pts, err := sw.Sweep(specs, batches)
	if err != nil {
		t.Fatal(err)
	}
	// 2 models × (CPU + iGPU + dGPU-idle + dGPU-warm) × 2 batches = 16.
	if len(pts) != 16 {
		t.Fatalf("sweep points = %d, want 16", len(pts))
	}
	warmPoints := 0
	for _, p := range pts {
		if p.GPUWarmStart {
			warmPoints++
			if p.Kind != device.DiscreteGPU {
				t.Fatal("warm-start state only applies to the discrete GPU")
			}
		}
	}
	if warmPoints != 4 {
		t.Fatalf("warm points = %d, want 4", warmPoints)
	}
}

func TestBuildDatasetSizeMatchesPaper(t *testing.T) {
	sw := NewSweeper()
	sw.Noise = 0.12
	set, err := sw.BuildDataset(models.AllModels(), PaperBatches(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// 21 architectures × 18 batches × 2 GPU states × 2 reps = 1512,
	// matching the paper's ≈1480-sample augmented dataset (§V-B).
	if set.Len() != 1512 {
		t.Fatalf("dataset size = %d, want 1512", set.Len())
	}
	if len(set.X[0]) != len(set.FeatureNames) {
		t.Fatal("feature width mismatch")
	}
	if len(set.Devices) != 3 || len(set.Kinds) != 3 {
		t.Fatalf("device classes = %v", set.Devices)
	}
	for _, o := range Objectives() {
		if len(set.Y[o]) != set.Len() {
			t.Fatalf("%s labels = %d", o, len(set.Y[o]))
		}
		shares := set.ClassShares(o)
		// Imbalanced but no empty class and no total monopoly on the
		// throughput/latency policies (the paper reports 30/40/30).
		var sum float64
		for _, s := range shares {
			sum += s
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("%s shares sum %g", o, sum)
		}
		if o != EnergyEfficiency {
			for c, s := range shares {
				if s < 0.05 || s > 0.75 {
					t.Fatalf("%s class %d share %.2f outside (0.05, 0.75)", o, c, s)
				}
			}
		}
	}
}

func TestDatasetTrainsAccurateForest(t *testing.T) {
	// The headline reproduction: a tuned random forest cross-validates
	// near the paper's 93.22% / F1 93.51% on the throughput policy.
	sw := NewSweeper()
	sw.Noise = 0.12
	set, err := sw.BuildDataset(models.AllModels(), PaperBatches(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mlsched.CrossValidate(func() mlsched.Classifier { return mlsched.NewTunedForest(1) },
		set.X, set.Y[BestThroughput], 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Accuracy < 0.85 || m.Accuracy > 0.99 {
		t.Fatalf("forest CV accuracy %.1f%%, want near the paper's 93%%", 100*m.Accuracy)
	}
	if m.F1 < 0.75 {
		t.Fatalf("forest CV F1 %.1f%% too low", 100*m.F1)
	}
}

func TestMeasureConfigAndLoss(t *testing.T) {
	sw := NewSweeper()
	cm, err := sw.MeasureConfig(models.MnistSmall(), 4096, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cm.Points) != 3 {
		t.Fatalf("config points = %d", len(cm.Points))
	}
	for _, o := range Objectives() {
		best := cm.Best(o)
		if cm.LossVersusIdeal(o, best) != 0 {
			t.Fatalf("%s: ideal device has non-zero loss", o)
		}
		for c := range cm.Points {
			loss := cm.LossVersusIdeal(o, c)
			if loss < 0 || loss > 1 {
				t.Fatalf("%s class %d: loss %.2f outside [0,1]", o, c, loss)
			}
		}
	}
	// At batch 4096 with a warm GPU, mnist-small throughput is a dGPU win.
	if best := cm.Best(BestThroughput); cm.Points[best].Kind != device.DiscreteGPU {
		t.Fatalf("throughput winner at 4K warm should be the dGPU, got %s", cm.Points[best].Device)
	}
}

func TestPaperFeatureImportanceClaim(t *testing.T) {
	// §V-B: "the most important parameters is the samples size and the
	// state of the GPU". Train the tuned forest on the real dataset and
	// check log2_batch + gpu_warm dominate the importance ranking.
	sw := NewSweeper()
	sw.Noise = 0.12
	set, err := sw.BuildDataset(models.AllModels(), PaperBatches(), 2)
	if err != nil {
		t.Fatal(err)
	}
	f := mlsched.NewTunedForest(1)
	if err := f.Fit(set.X, set.Y[LowestLatency]); err != nil {
		t.Fatal(err)
	}
	imp := f.FeatureImportance()
	names := set.FeatureNames
	byName := map[string]float64{}
	for i, n := range names {
		byName[n] = imp[i]
	}
	if byName["log2_batch"] < 0.2 {
		t.Fatalf("batch size importance %.2f too low: %v", byName["log2_batch"], byName)
	}
	// gpu_warm must beat the median architecture feature.
	archMax := 0.0
	for _, n := range []string{"vgg_blocks", "convs_per_block", "filter_size", "pool_size"} {
		if byName[n] > archMax {
			archMax = byName[n]
		}
	}
	if byName["gpu_warm"] <= archMax/2 {
		t.Fatalf("gpu_warm importance %.3f should be material vs arch features (max %.3f): %v",
			byName["gpu_warm"], archMax, byName)
	}
}

// The sweeper compiles each spec's outline, not a built network: the
// kernels it charges must be the ones the built network compiles to.
func TestSweeperChargesTheKernelsOfTheBuiltNetwork(t *testing.T) {
	s := NewSweeper()
	for _, spec := range models.AllModels() {
		got, err := s.programFor(spec)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := s.programFor(spec); again != got {
			t.Errorf("%s: compiled twice", spec.Name)
		}
		want, err := opencl.BuildProgram(spec.MustBuild(1))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Kernels, want.Kernels) {
			t.Errorf("%s: the outline compiles to %d kernels that differ from the built network's %d", spec.Name, len(got.Kernels), len(want.Kernels))
		}
		if got.Net.SampleBytes() != want.Net.SampleBytes() || got.Net.Classes() != want.Net.Classes() {
			t.Errorf("%s: outline moves %d B in and %d classes out, built network %d and %d", spec.Name,
				got.Net.SampleBytes(), got.Net.Classes(), want.Net.SampleBytes(), want.Net.Classes())
		}
	}
}

// The scheduler's training set — every feature row and every policy's
// labels — hashed at the commit before the sweeper stopped building
// weights (each spec built with the sweeper's seed, a Program compiled
// per measurement): characterising from shapes must not move one of
// its 1512 × (9 + 3) numbers.
func TestDatasetIsTheOneBuiltNetworksGave(t *testing.T) {
	for _, tc := range []struct {
		procs int
		seed  int64
		want  string
	}{
		{1, 1, "1460c34892ed90d3262109751b0a4c786e427184ef5ec7ba31448bfda37540ea"},
		{1, 2, "8ed7ddbe1360c6f7b786d899baf2b648e0b7ad80876d517cdc5ea4e75a0802be"},
		{1, 3, "84036a7078d96a5753866be9ac738b8b11961e18b4881bb71049760559b4c0dc"},
		{4, 1, "1460c34892ed90d3262109751b0a4c786e427184ef5ec7ba31448bfda37540ea"},
		{4, 2, "8ed7ddbe1360c6f7b786d899baf2b648e0b7ad80876d517cdc5ea4e75a0802be"},
		{4, 3, "84036a7078d96a5753866be9ac738b8b11961e18b4881bb71049760559b4c0dc"},
	} {
		seed, want := tc.seed, tc.want
		s := &Sweeper{Profiles: device.DefaultProfiles(), Noise: 0.12, Seed: seed}
		prev := runtime.GOMAXPROCS(tc.procs)
		set, err := s.BuildDataset(models.AllModels(), PaperBatches(), 2)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var word [8]byte
		for _, row := range set.X {
			for _, v := range row {
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
				h.Write(word[:])
			}
		}
		for _, o := range Objectives() {
			for _, c := range set.Y[o] {
				binary.LittleEndian.PutUint64(word[:], uint64(c))
				h.Write(word[:])
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); set.Len() != 1512 || got != want {
			t.Errorf("GOMAXPROCS %d, seed %d: %d rows hashing to %s, want 1512 rows and %s", tc.procs, seed, set.Len(), got, want)
		}
	}
}

// A spec that fails to compile is BuildDataset's error — the first one
// in configuration order, whichever worker met which first — and no
// half-measured row is labelled or returned.
func TestBuildDatasetReturnsTheFirstErrorInConfigurationOrder(t *testing.T) {
	good := models.AllModels()
	specs := []*nn.Spec{good[0], {Name: "broken-first", Kind: nn.FFNN, InputShape: []int{4}}, good[1], {Name: "broken-second", Kind: nn.FFNN, InputShape: []int{4}}}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for i := 0; i < 10; i++ {
			set, err := NewSweeper().BuildDataset(specs, []int{2, 64}, 2)
			if set != nil || err == nil || !strings.Contains(err.Error(), "broken-first") {
				t.Errorf("GOMAXPROCS %d: BuildDataset = %v, %v; want no set and broken-first's error", procs, set, err)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// BenchmarkBuildDataset is the characterisation half of the offline
// phase: 21 architectures × 18 batch sizes × 2 GPU states × 2 replicas on
// three devices, ≈ 4500 measurements.
func BenchmarkBuildDataset(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := &Sweeper{Profiles: device.DefaultProfiles(), Noise: 0.12, Seed: 1}
		if _, err := s.BuildDataset(models.AllModels(), PaperBatches(), 2); err != nil {
			b.Fatal(err)
		}
	}
}
