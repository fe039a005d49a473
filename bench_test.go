package bomw

// The benchmark harness regenerates every table and figure of the paper's
// evaluation. Each benchmark performs the real measurement work of its
// experiment and reports the experiment's headline quantities through
// b.ReportMetric, so `go test -bench . -benchmem` doubles as the
// reproduction run:
//
//	BenchmarkFig3_*      — throughput/latency per model and device state
//	BenchmarkFig4_*      — Joules per batch per model and device state
//	BenchmarkTableI_*    — the random-forest hyperparameter grid search
//	BenchmarkTableII_*   — accuracy + train/classify time per selector
//	BenchmarkTableIII_*  — forest F1/precision/recall
//	BenchmarkFig6_*      — unseen-model prediction accuracy and loss
//	BenchmarkAblation_*  — design-choice ablations from DESIGN.md §4
import (
	"sync"
	"testing"
	"time"

	"bomw/internal/characterize"
	"bomw/internal/core"
	"bomw/internal/device"
	"bomw/internal/mlsched"
	"bomw/internal/models"
	"bomw/internal/nn"
	"bomw/internal/opencl"
	tracepkg "bomw/internal/trace"
)

// ---- shared fixtures -------------------------------------------------

var (
	benchSetOnce sync.Once
	benchSet     *characterize.LabeledSet
	benchSetErr  error
)

func benchDataset(b *testing.B) *characterize.LabeledSet {
	b.Helper()
	benchSetOnce.Do(func() {
		sw := characterize.NewSweeper()
		sw.Noise = 0.12
		benchSet, benchSetErr = sw.BuildDataset(models.AllModels(), characterize.PaperBatches(), 2)
	})
	if benchSetErr != nil {
		b.Fatal(benchSetErr)
	}
	return benchSet
}

var (
	benchSchedOnce sync.Once
	benchSched     *core.Scheduler
	benchSchedErr  error
)

func benchScheduler(b *testing.B) *core.Scheduler {
	b.Helper()
	benchSchedOnce.Do(func() {
		benchSched, benchSchedErr = core.New(core.Config{TrainModels: models.AllModels()})
		if benchSchedErr != nil {
			return
		}
		for _, spec := range append(models.PaperModels(), models.UnseenModels()...) {
			if benchSchedErr = benchSched.LoadModel(spec, 1); benchSchedErr != nil {
				return
			}
		}
	})
	if benchSchedErr != nil {
		b.Fatal(benchSchedErr)
	}
	return benchSched
}

// ---- Figure 3: throughput / latency characterisation ------------------

// benchFig3 measures one model on one device state at a representative
// large batch and reports the figure's metrics.
func benchFig3(b *testing.B, spec *nn.Spec, prof device.Profile, warm bool) {
	sw := characterize.NewSweeper()
	const batch = 8192
	var p characterize.Point
	var err error
	for i := 0; i < b.N; i++ {
		p, err = sw.Measure(spec, prof, batch, warm, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(p.ThroughputGbps, "Gbit/s")
	b.ReportMetric(p.Latency.Seconds()*1e3, "lat-ms")
	b.ReportMetric(p.AvgPowerW, "watts")
}

func BenchmarkFig3a_Simple_CPU(b *testing.B) {
	benchFig3(b, models.Simple(), device.IntelCoreI7_8700(), false)
}
func BenchmarkFig3a_Simple_IGPU(b *testing.B) {
	benchFig3(b, models.Simple(), device.IntelUHD630(), false)
}
func BenchmarkFig3a_Simple_DGPUIdle(b *testing.B) {
	benchFig3(b, models.Simple(), device.NvidiaGTX1080Ti(), false)
}
func BenchmarkFig3a_Simple_DGPUWarm(b *testing.B) {
	benchFig3(b, models.Simple(), device.NvidiaGTX1080Ti(), true)
}
func BenchmarkFig3b_MnistSmall_CPU(b *testing.B) {
	benchFig3(b, models.MnistSmall(), device.IntelCoreI7_8700(), false)
}
func BenchmarkFig3b_MnistSmall_IGPU(b *testing.B) {
	benchFig3(b, models.MnistSmall(), device.IntelUHD630(), false)
}
func BenchmarkFig3b_MnistSmall_DGPUIdle(b *testing.B) {
	benchFig3(b, models.MnistSmall(), device.NvidiaGTX1080Ti(), false)
}
func BenchmarkFig3b_MnistSmall_DGPUWarm(b *testing.B) {
	benchFig3(b, models.MnistSmall(), device.NvidiaGTX1080Ti(), true)
}
func BenchmarkFig3c_MnistDeep_CPU(b *testing.B) {
	benchFig3(b, models.MnistDeep(), device.IntelCoreI7_8700(), false)
}
func BenchmarkFig3c_MnistDeep_DGPUWarm(b *testing.B) {
	benchFig3(b, models.MnistDeep(), device.NvidiaGTX1080Ti(), true)
}
func BenchmarkFig3d_MnistCNN_CPU(b *testing.B) {
	benchFig3(b, models.MnistCNN(), device.IntelCoreI7_8700(), false)
}
func BenchmarkFig3d_MnistCNN_DGPUWarm(b *testing.B) {
	benchFig3(b, models.MnistCNN(), device.NvidiaGTX1080Ti(), true)
}
func BenchmarkFig3e_Cifar10_CPU(b *testing.B) {
	benchFig3(b, models.Cifar10(), device.IntelCoreI7_8700(), false)
}
func BenchmarkFig3e_Cifar10_IGPU(b *testing.B) {
	benchFig3(b, models.Cifar10(), device.IntelUHD630(), false)
}
func BenchmarkFig3e_Cifar10_DGPUIdle(b *testing.B) {
	benchFig3(b, models.Cifar10(), device.NvidiaGTX1080Ti(), false)
}
func BenchmarkFig3e_Cifar10_DGPUWarm(b *testing.B) {
	benchFig3(b, models.Cifar10(), device.NvidiaGTX1080Ti(), true)
}

// ---- Figure 4: energy characterisation ---------------------------------

func benchFig4(b *testing.B, spec *nn.Spec, prof device.Profile, warm bool) {
	sw := characterize.NewSweeper()
	const batch = 8192
	var p characterize.Point
	var err error
	for i := 0; i < b.N; i++ {
		p, err = sw.Measure(spec, prof, batch, warm, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(p.EnergyJ, "joules")
	b.ReportMetric(p.EnergyJ/float64(batch)*1e3, "mJ/sample")
}

func BenchmarkFig4a_Simple_CPU(b *testing.B) {
	benchFig4(b, models.Simple(), device.IntelCoreI7_8700(), false)
}
func BenchmarkFig4a_Simple_IGPU(b *testing.B) {
	benchFig4(b, models.Simple(), device.IntelUHD630(), false)
}
func BenchmarkFig4b_MnistSmall_IGPU(b *testing.B) {
	benchFig4(b, models.MnistSmall(), device.IntelUHD630(), false)
}
func BenchmarkFig4b_MnistSmall_DGPUIdle(b *testing.B) {
	benchFig4(b, models.MnistSmall(), device.NvidiaGTX1080Ti(), false)
}
func BenchmarkFig4b_MnistSmall_DGPUWarm(b *testing.B) {
	benchFig4(b, models.MnistSmall(), device.NvidiaGTX1080Ti(), true)
}
func BenchmarkFig4c_MnistDeep_IGPU(b *testing.B) {
	benchFig4(b, models.MnistDeep(), device.IntelUHD630(), false)
}
func BenchmarkFig4c_MnistDeep_DGPUWarm(b *testing.B) {
	benchFig4(b, models.MnistDeep(), device.NvidiaGTX1080Ti(), true)
}
func BenchmarkFig4d_MnistCNN_IGPU(b *testing.B) {
	benchFig4(b, models.MnistCNN(), device.IntelUHD630(), false)
}
func BenchmarkFig4e_Cifar10_IGPU(b *testing.B) {
	benchFig4(b, models.Cifar10(), device.IntelUHD630(), false)
}
func BenchmarkFig4e_Cifar10_DGPUWarm(b *testing.B) {
	benchFig4(b, models.Cifar10(), device.NvidiaGTX1080Ti(), true)
}

// ---- Table I: hyperparameter grid search -------------------------------

func BenchmarkTableI_GridSearch(b *testing.B) {
	set := benchDataset(b)
	grid := mlsched.ForestGrid{
		NEstimators:    []int{5, 50},
		MaxDepth:       []int{3, 10},
		Criteria:       []mlsched.Criterion{mlsched.Gini, mlsched.Entropy},
		MinSamplesLeaf: []int{1, 15},
	}
	var res mlsched.NestedCVResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = mlsched.NestedCrossValidate(set.X, set.Y[characterize.BestThroughput], 3, 2, grid, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Outer.Accuracy, "acc%")
	b.ReportMetric(float64(res.BestConfig.NEstimators), "n_estimators")
}

// ---- Table II: selector accuracy and timing ----------------------------

func benchTableII(b *testing.B, build mlsched.Builder) {
	set := benchDataset(b)
	X, y := set.X, set.Y[characterize.BestThroughput]
	var m mlsched.Metrics
	var err error
	for i := 0; i < b.N; i++ {
		m, err = mlsched.CrossValidate(build, X, y, 5, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Classification-time metric: single prediction on a trained model.
	c := build()
	if err := c.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	t0 := time.Now()
	const probes = 1000
	for i := 0; i < probes; i++ {
		c.Predict(X[i%len(X)])
	}
	b.ReportMetric(100*m.Accuracy, "acc%")
	b.ReportMetric(float64(time.Since(t0).Microseconds())/probes, "classify-µs")
}

func BenchmarkTableII_Baseline(b *testing.B) {
	benchTableII(b, func() mlsched.Classifier { return mlsched.NewRandom(1) })
}
func BenchmarkTableII_LinearRegression(b *testing.B) {
	benchTableII(b, func() mlsched.Classifier { return mlsched.NewLinearRegression() })
}
func BenchmarkTableII_SVM(b *testing.B) {
	benchTableII(b, func() mlsched.Classifier { return mlsched.NewSVM(1) })
}
func BenchmarkTableII_KNN(b *testing.B) {
	benchTableII(b, func() mlsched.Classifier { return mlsched.NewKNN(5) })
}
func BenchmarkTableII_FFNN(b *testing.B) {
	benchTableII(b, func() mlsched.Classifier { return mlsched.NewMLP(1) })
}
func BenchmarkTableII_RandomForest(b *testing.B) {
	benchTableII(b, func() mlsched.Classifier { return mlsched.NewTunedForest(1) })
}
func BenchmarkTableII_DecisionTree(b *testing.B) {
	benchTableII(b, func() mlsched.Classifier { return mlsched.NewTree(mlsched.DefaultTreeConfig()) })
}

// ---- Table III: forest precision/recall/F1 ------------------------------

func BenchmarkTableIII_RandomForest(b *testing.B) {
	set := benchDataset(b)
	var m mlsched.Metrics
	var err error
	for i := 0; i < b.N; i++ {
		m, err = mlsched.CrossValidate(func() mlsched.Classifier { return mlsched.NewTunedForest(1) },
			set.X, set.Y[characterize.BestThroughput], 5, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*m.F1, "F1%")
	b.ReportMetric(100*m.Precision, "precision%")
	b.ReportMetric(100*m.Recall, "recall%")
}

// ---- Figure 6: unseen-model predictions ---------------------------------

func benchFig6(b *testing.B, pol core.Policy) {
	s := benchScheduler(b)
	sw := characterize.NewSweeper()
	batches := []int{8, 128, 2048, 32768}
	var acc, loss float64
	for i := 0; i < b.N; i++ {
		var err error
		if acc, loss, err = sw.Score(models.UnseenModels(), batches, pol, s.Classifier(pol).Predict); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*acc, "acc%")
	b.ReportMetric(100*loss, "loss%")
}

func BenchmarkFig6a_UnseenThroughput(b *testing.B) { benchFig6(b, core.BestThroughput) }
func BenchmarkFig6b_UnseenEnergy(b *testing.B)     { benchFig6(b, core.EnergyEfficiency) }

// ---- Ablations (DESIGN.md §4) -------------------------------------------

// BenchmarkAblation_NoBoostRamp disables the Boost clock state machine
// and reports how far cold-start behaviour drifts: without the ramp, the
// idle/warm split of Figs. 3-4 disappears.
func BenchmarkAblation_NoBoostRamp(b *testing.B) {
	spec := models.MnistSmall()
	withRamp := device.NvidiaGTX1080Ti()
	noRamp := device.NvidiaGTX1080Ti()
	noRamp.HasBoost = false
	var ratioWith, ratioWithout float64
	for i := 0; i < b.N; i++ {
		sw := characterize.NewSweeper()
		sw.Profiles = []device.Profile{withRamp}
		idle, err := sw.Measure(spec, withRamp, 512, false, 0)
		if err != nil {
			b.Fatal(err)
		}
		warm, err := sw.Measure(spec, withRamp, 512, true, 0)
		if err != nil {
			b.Fatal(err)
		}
		ratioWith = float64(idle.Latency) / float64(warm.Latency)

		sw2 := characterize.NewSweeper()
		sw2.Profiles = []device.Profile{noRamp}
		idle2, err := sw2.Measure(spec, noRamp, 512, false, 0)
		if err != nil {
			b.Fatal(err)
		}
		warm2, err := sw2.Measure(spec, noRamp, 512, true, 0)
		if err != nil {
			b.Fatal(err)
		}
		ratioWithout = float64(idle2.Latency) / float64(warm2.Latency)
	}
	b.ReportMetric(ratioWith, "idle/warm-with-ramp")
	b.ReportMetric(ratioWithout, "idle/warm-no-ramp")
}

// BenchmarkAblation_NoGPUStateFeature drops the gpu_warm feature from the
// training set and reports the accuracy cost of ignoring device state.
func BenchmarkAblation_NoGPUStateFeature(b *testing.B) {
	set := benchDataset(b)
	strip := func(X [][]float64) [][]float64 {
		out := make([][]float64, len(X))
		for i, row := range X {
			out[i] = row[:len(row)-1] // gpu_warm is the last feature
		}
		return out
	}
	var full, stripped mlsched.Metrics
	var err error
	for i := 0; i < b.N; i++ {
		full, err = mlsched.CrossValidate(func() mlsched.Classifier { return mlsched.NewTunedForest(1) },
			set.X, set.Y[characterize.LowestLatency], 5, 1)
		if err != nil {
			b.Fatal(err)
		}
		stripped, err = mlsched.CrossValidate(func() mlsched.Classifier { return mlsched.NewTunedForest(1) },
			strip(set.X), set.Y[characterize.LowestLatency], 5, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*full.Accuracy, "acc-with-state%")
	b.ReportMetric(100*stripped.Accuracy, "acc-no-state%")
}

// BenchmarkAblation_RealCompute measures the actual host cost of running
// the real tensor math versus the timing-only estimate path.
func BenchmarkAblation_RealCompute(b *testing.B) {
	s := benchScheduler(b)
	ds := models.Synthesize(models.MnistCNN(), 64, 1)
	in := ds.Batch(0, 64)
	b.Run("Classify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.ResetDevices()
			if _, _, err := s.Classify("mnist-cnn", in, core.LowestLatency, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Estimate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.ResetDevices()
			if _, _, err := s.Estimate("mnist-cnn", 64, core.LowestLatency, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_SpillDisabled compares replay latency with and
// without the scheduler's overload spill-over on a bursty trace.
func BenchmarkAblation_SpillDisabled(b *testing.B) {
	s := benchScheduler(b)
	tr, err := traceBurst()
	if err != nil {
		b.Fatal(err)
	}
	noSpill, err := core.New(core.Config{
		TrainModels:   models.AllModels(),
		MaxQueueDelay: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, spec := range models.PaperModels() {
		if err := noSpill.LoadModel(spec, 1); err != nil {
			b.Fatal(err)
		}
	}
	var with, without core.ReplayResult
	for i := 0; i < b.N; i++ {
		with, err = s.Replay(tr, core.LowestLatency)
		if err != nil {
			b.Fatal(err)
		}
		without, err = noSpill.Replay(tr, core.LowestLatency)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(with.AvgLatency().Seconds()*1e3, "avg-ms-with-spill")
	b.ReportMetric(without.AvgLatency().Seconds()*1e3, "avg-ms-no-spill")
	b.ReportMetric(float64(with.Spills), "spills")
}

func traceBurst() (tracepkg.Trace, error) {
	return tracepkg.Burst(120, 20, 300, time.Second, 250*time.Millisecond,
		[]string{"mnist-small", "mnist-cnn"}, []int{2, 32}, []int{4096, 32768}, 5)
}

// BenchmarkAblation_BatchingWindow sweeps the dynamic batcher's window on
// a single-sample arrival stream: wider windows amortise fixed device
// costs (higher throughput, less energy) at the price of aggregation
// latency — the serving-side face of the paper's batch-size findings.
func BenchmarkAblation_BatchingWindow(b *testing.B) {
	s := benchScheduler(b)
	var tr tracepkg.Trace
	for i := 0; i < 300; i++ {
		tr = append(tr, tracepkg.Request{
			At:    time.Duration(i) * 100 * time.Microsecond,
			Model: "mnist-small",
			Batch: 1,
		})
	}
	for _, window := range []time.Duration{time.Millisecond, 10 * time.Millisecond} {
		window := window
		b.Run(window.String(), func(b *testing.B) {
			var res core.ReplayResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = s.ReplayBatched(tr, &core.Batcher{Window: window, MaxBatch: 512}, core.BestThroughput)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.SamplesPerSecond(), "samples/s")
			b.ReportMetric(res.AvgLatency().Seconds()*1e3, "avg-ms")
			b.ReportMetric(res.TotalEnergyJ, "joules")
		})
	}
}

// BenchmarkAblation_Pruning charges a dense network and its 90%-pruned
// sparse variant on the simulated CPU — the §VII orthogonal-optimisation
// hook quantified through the runtime's command sequence. Each network
// compiles once; each charge loads it into a fresh runtime.
func BenchmarkAblation_Pruning(b *testing.B) {
	dense := models.MnistSmall().MustBuild(1)
	pruned := models.MnistSmall().MustBuild(1)
	if _, err := nn.Prune(pruned, 0.9); err != nil {
		b.Fatal(err)
	}
	var progs [2]*opencl.Program
	for i, net := range []*nn.Network{dense, nn.SparsifyNetwork(pruned)} {
		prog, err := opencl.BuildProgram(net)
		if err != nil {
			b.Fatal(err)
		}
		progs[i] = prog
	}
	cpu := device.IntelCoreI7_8700()
	var lat [2]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, prog := range progs {
			rt, err := opencl.NewRuntime(device.New(cpu))
			if err != nil {
				b.Fatal(err)
			}
			if err := rt.LoadProgram(prog); err != nil {
				b.Fatal(err)
			}
			res, err := rt.Estimate(cpu.Name, prog.Net.Name(), 4096, 0)
			if err != nil {
				b.Fatal(err)
			}
			lat[j] = res.Latency().Seconds() * 1e3
		}
	}
	b.ReportMetric(lat[0], "dense-ms")
	b.ReportMetric(lat[1], "sparse-ms")
	b.ReportMetric(lat[0]/lat[1], "speedup")
}
