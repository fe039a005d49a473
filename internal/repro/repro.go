// Package repro is the one-shot reproduction harness: it runs every
// experiment of the paper's evaluation — the Fig. 3/4 characterisation,
// the Table II/III selector comparison, and the Fig. 6 unseen-model
// study — checks the measured shapes against the paper's claims, and
// writes a self-contained markdown report. cmd/repro is its CLI.
package repro

import (
	"fmt"
	"io"
	"time"

	"bomw/internal/characterize"
	"bomw/internal/core"
	"bomw/internal/device"
	"bomw/internal/mlsched"
	"bomw/internal/models"
	"bomw/internal/nn"
	"bomw/internal/trace"
)

// Options configures a reproduction run.
type Options struct {
	Seed int64
	// Quick shrinks the sweeps (fewer batch sizes, fewer CV folds) for a
	// fast smoke reproduction; the full run takes a few minutes.
	Quick bool
}

// Check is one paper-claim verification.
type Check struct {
	Name     string
	Claim    string // what the paper states
	Measured string // what this run produced
	Pass     bool
}

// Report is the outcome of a full reproduction run.
type Report struct {
	Checks   []Check
	Started  time.Time
	Duration time.Duration
}

// Passed counts successful checks.
func (r *Report) Passed() (pass, total int) {
	for _, c := range r.Checks {
		if c.Pass {
			pass++
		}
	}
	return pass, len(r.Checks)
}

func (r *Report) add(name, claim string, pass bool, measuredFormat string, args ...interface{}) {
	r.Checks = append(r.Checks, Check{
		Name:     name,
		Claim:    claim,
		Measured: fmt.Sprintf(measuredFormat, args...),
		Pass:     pass,
	})
}

// Run executes the full reproduction and streams the markdown report.
func Run(w io.Writer, opts Options) (*Report, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	rep := &Report{Started: time.Now()}

	batches := characterize.PaperBatches()
	folds := 5
	if opts.Quick {
		batches = []int{2, 8, 64, 512, 4096, 32768, 262144}
		folds = 3
	}

	if err := runCharacterisation(rep, batches, opts.Seed); err != nil {
		return nil, err
	}
	if err := runSelectorStudy(rep, batches, folds, opts.Seed); err != nil {
		return nil, err
	}
	if err := runSchedulerStudy(rep, opts.Seed); err != nil {
		return nil, err
	}

	rep.Duration = time.Since(rep.Started)
	return rep, writeMarkdown(w, rep)
}

// runCharacterisation verifies the Fig. 3/4 shapes.
func runCharacterisation(rep *Report, batches []int, seed int64) error {
	sw := characterize.NewSweeper()
	sw.Seed = seed

	crossover := func(spec *nn.Spec, warm bool) (int, error) {
		for _, n := range batches {
			cm, err := sw.MeasureConfig(spec, n, warm, 0)
			if err != nil {
				return 0, err
			}
			cpuIdx, gpuIdx := -1, -1
			for i, p := range cm.Points {
				switch p.Kind.String() {
				case "cpu":
					cpuIdx = i
				case "dgpu":
					gpuIdx = i
				}
			}
			if cpuIdx < 0 || gpuIdx < 0 {
				return 0, fmt.Errorf("repro: missing CPU or dGPU in the profile set")
			}
			if cm.Points[gpuIdx].Latency < cm.Points[cpuIdx].Latency {
				return n, nil
			}
		}
		return -1, nil
	}

	warmSimple, err := crossover(models.Simple(), true)
	if err != nil {
		return err
	}
	idleSimple, err := crossover(models.Simple(), false)
	if err != nil {
		return err
	}
	rep.add("Fig3a-simple-warm", "CPU beats warm dGPU up to ≈2048",
		warmSimple == -1 || warmSimple >= 512, "crossover at %d", warmSimple)
	rep.add("Fig3a-simple-idle", "CPU beats idle dGPU at every batch",
		idleSimple == -1, "crossover at %d (-1 = never)", idleSimple)

	warmCifar, err := crossover(models.Cifar10(), true)
	if err != nil {
		return err
	}
	idleCifar, err := crossover(models.Cifar10(), false)
	if err != nil {
		return err
	}
	rep.add("Fig3e-cifar-warm", "CPU wins only up to ≈8 against a warm dGPU",
		warmCifar > 0 && warmCifar <= 64, "crossover at %d", warmCifar)
	rep.add("Fig3e-cifar-idle", "idle start shifts the crossover to ≈128",
		idleCifar > warmCifar && idleCifar <= 1024, "crossover at %d", idleCifar)

	// Fig. 4: cold starts always cost more energy.
	coldDearer := true
	for _, spec := range models.PaperModels() {
		for _, n := range []int{8, 4096} {
			cmIdle, err := sw.MeasureConfig(spec, n, false, 0)
			if err != nil {
				return err
			}
			cmWarm, err := sw.MeasureConfig(spec, n, true, 0)
			if err != nil {
				return err
			}
			for i, p := range cmIdle.Points {
				if p.Kind.String() == "dgpu" && p.EnergyJ <= cmWarm.Points[i].EnergyJ {
					coldDearer = false
				}
			}
		}
	}
	rep.add("Fig4-cold-energy", "idle-start dGPU always consumes more energy",
		coldDearer, "verified over 5 models × 2 batch sizes")

	// Fig. 3b: idle dGPU converges to warm at large batches.
	msmall := models.MnistSmall()
	idleSmallPt, err := sw.Measure(msmall, dgpuProfile(sw), 512, false, 0)
	if err != nil {
		return err
	}
	warmSmallPt, err := sw.Measure(msmall, dgpuProfile(sw), 512, true, 0)
	if err != nil {
		return err
	}
	idleBigPt, err := sw.Measure(msmall, dgpuProfile(sw), 131072, false, 0)
	if err != nil {
		return err
	}
	warmBigPt, err := sw.Measure(msmall, dgpuProfile(sw), 131072, true, 0)
	if err != nil {
		return err
	}
	smallRatio := float64(idleSmallPt.Latency) / float64(warmSmallPt.Latency)
	bigRatio := float64(idleBigPt.Latency) / float64(warmBigPt.Latency)
	rep.add("Fig3b-convergence", "idle dGPU converges to warm past 64K (super-linear growth)",
		smallRatio > 2 && bigRatio < 1.3 && bigRatio < smallRatio,
		"idle/warm %.1fx at 512 → %.2fx at 128K", smallRatio, bigRatio)

	// Fig. 3 throughput spans: the best device and batch per model.
	var gHi, cHi float64
	for _, spec := range models.PaperModels() {
		for _, n := range []int{4096, 65536, 262144} {
			pg, err := sw.Measure(spec, dgpuProfile(sw), n, true, 0)
			if err != nil {
				return err
			}
			if pg.ThroughputGbps > gHi {
				gHi = pg.ThroughputGbps
			}
			pc, err := sw.Measure(spec, cpuProfile(sw), n, false, 0)
			if err != nil {
				return err
			}
			if pc.ThroughputGbps > cHi {
				cHi = pc.ThroughputGbps
			}
		}
	}
	rep.add("Fig3-spans", "dGPU peaks near 20 Gbit/s and above the CPU peak (≈15)",
		gHi > 7 && gHi > cHi && cHi > 2, "dGPU %.1f Gbit/s, CPU %.1f Gbit/s", gHi, cHi)

	// iGPU draws the least power (§IV-C).
	var cpuW, igpuW, dgpuW float64
	for _, prof := range sw.Profiles {
		pt, err := sw.Measure(models.MnistSmall(), prof, 65536, prof.HasBoost, 0)
		if err != nil {
			return err
		}
		switch prof.Kind.String() {
		case "cpu":
			cpuW = pt.AvgPowerW
		case "igpu":
			igpuW = pt.AvgPowerW
		case "dgpu":
			dgpuW = pt.AvgPowerW
		}
	}
	rep.add("Fig3-igpu-power", "the iGPU is the most power-efficient device in watts",
		igpuW < cpuW && igpuW < dgpuW, "iGPU %.0fW, CPU %.0fW, dGPU %.0fW", igpuW, cpuW, dgpuW)
	return nil
}

func dgpuProfile(sw *characterize.Sweeper) device.Profile {
	for _, p := range sw.Profiles {
		if p.HasBoost {
			return p
		}
	}
	return sw.Profiles[len(sw.Profiles)-1]
}

func cpuProfile(sw *characterize.Sweeper) device.Profile {
	for _, p := range sw.Profiles {
		if p.Kind == device.CPU {
			return p
		}
	}
	return sw.Profiles[0]
}

// runSelectorStudy verifies the Table II/III shapes.
func runSelectorStudy(rep *Report, batches []int, folds int, seed int64) error {
	sw := characterize.NewSweeper()
	sw.Noise = 0.12
	sw.Seed = seed
	set, err := sw.BuildDataset(models.AllModels(), batches, 2)
	if err != nil {
		return err
	}
	rep.add("TableII-dataset", "≈1480 augmented samples over 21 architectures (§V-B)",
		set.Len() > 500, "%d samples", set.Len())

	y := set.Y[characterize.BestThroughput]
	acc := map[string]float64{}
	for name, build := range map[string]mlsched.Builder{
		"forest": func() mlsched.Classifier { return mlsched.NewTunedForest(seed) },
		"tree":   func() mlsched.Classifier { return mlsched.NewTree(mlsched.DefaultTreeConfig()) },
		"linreg": func() mlsched.Classifier { return mlsched.NewLinearRegression() },
		"random": func() mlsched.Classifier { return mlsched.NewRandom(seed) },
	} {
		m, err := mlsched.CrossValidate(build, set.X, y, folds, seed)
		if err != nil {
			return err
		}
		acc[name] = m.Accuracy
	}
	rep.add("TableII-forest-best", "the random forest is the most accurate selector (93.22%)",
		acc["forest"] >= acc["tree"]-0.01 && acc["forest"] > acc["linreg"] && acc["forest"] > 0.85,
		"forest %.1f%%, tree %.1f%%, linreg %.1f%%", 100*acc["forest"], 100*acc["tree"], 100*acc["linreg"])
	rep.add("TableII-baseline", "random selection scores ≈41%",
		acc["random"] > 0.2 && acc["random"] < 0.5, "%.1f%%", 100*acc["random"])

	fm, err := mlsched.CrossValidate(func() mlsched.Classifier { return mlsched.NewTunedForest(seed) },
		set.X, y, folds, seed)
	if err != nil {
		return err
	}
	rep.add("TableIII-f1", "forest F1/precision/recall are mutually consistent (≈93%)",
		fm.F1 > 0.7 && fm.Precision > 0.7 && fm.Recall > 0.7,
		"F1 %.1f%% P %.1f%% R %.1f%%", 100*fm.F1, 100*fm.Precision, 100*fm.Recall)

	// §V-B importance claim.
	forest := mlsched.NewTunedForest(seed)
	if err := forest.Fit(set.X, set.Y[characterize.LowestLatency]); err != nil {
		return err
	}
	imp := forest.FeatureImportance()
	byName := map[string]float64{}
	for i, n := range set.FeatureNames {
		byName[n] = imp[i]
	}
	rep.add("SVB-importance", "batch size and GPU state are the most important parameters",
		byName["log2_batch"] > 0.2 && byName["gpu_warm"] > 0.01,
		"log2_batch %.0f%%, gpu_warm %.1f%%", 100*byName["log2_batch"], 100*byName["gpu_warm"])
	return nil
}

// runSchedulerStudy verifies the Fig. 6 / §VI headlines.
func runSchedulerStudy(rep *Report, seed int64) error {
	sched, err := core.New(core.Config{TrainModels: models.AllModels(), Seed: seed})
	if err != nil {
		return err
	}
	for _, spec := range append(models.PaperModels(), models.UnseenModels()...) {
		if err := sched.LoadModel(spec, seed); err != nil {
			return err
		}
	}
	sw := characterize.NewSweeper()
	score := func(specs []*nn.Spec) (float64, float64, error) {
		return sw.Score(specs, []int{8, 128, 2048, 32768}, core.BestThroughput, sched.Classifier(core.BestThroughput).Predict)
	}
	accTrained, lossTrained, err := score(models.PaperModels())
	if err != nil {
		return err
	}
	accUnseen, lossUnseen, err := score(models.UnseenModels())
	if err != nil {
		return err
	}
	rep.add("VI-trained-accuracy", "92.5% correct device predictions on trained models",
		accTrained > 0.8, "%.1f%% (loss %.1f%%)", 100*accTrained, 100*lossTrained)
	rep.add("Fig6-unseen-accuracy", "91% correct device predictions on unseen models",
		accUnseen > 0.75, "%.1f%% (loss %.1f%%)", 100*accUnseen, 100*lossUnseen)
	rep.add("VI-loss", "performance loss from wrong predictions below 5%",
		lossTrained < 0.05 && lossUnseen < 0.08, "trained %.1f%%, unseen %.1f%%", 100*lossTrained, 100*lossUnseen)

	tr, err := trace.Diurnal(120, 20, 400, 2*time.Second,
		[]string{"simple", "mnist-small", "mnist-cnn"}, []int{2, 32, 512, 8192}, seed)
	if err != nil {
		return err
	}
	adaptive, err := sched.Replay(tr, core.EnergyEfficiency)
	if err != nil {
		return err
	}
	dgpuName := ""
	for _, d := range sched.Devices() {
		dgpuName = d // last device is the dGPU in the default set
	}
	static, err := sched.ReplayStatic(tr, dgpuName)
	if err != nil {
		return err
	}
	saving := 1 - adaptive.TotalEnergyJ/static.TotalEnergyJ
	rep.add("VI-energy-saving", "the energy policy saves energy (paper: up to 10%)",
		saving > 0, "%.1f%% vs always-%s", 100*saving, dgpuName)
	return nil
}

// writeMarkdown renders the report.
func writeMarkdown(w io.Writer, rep *Report) error {
	pass, total := rep.Passed()
	if _, err := fmt.Fprintf(w, "# bomw reproduction report\n\n%d/%d paper-shape checks passed · %s\n\n",
		pass, total, rep.Duration.Round(time.Second)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "| Check | Paper claim | Measured | Verdict |\n|---|---|---|---|\n"); err != nil {
		return err
	}
	for _, c := range rep.Checks {
		verdict := "✓ PASS"
		if !c.Pass {
			verdict = "✗ FAIL"
		}
		if _, err := fmt.Fprintf(w, "| %s | %s | %s | %s |\n", c.Name, c.Claim, c.Measured, verdict); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "\nSeeded and deterministic: rerunning reproduces this table exactly.\n")
	return err
}
