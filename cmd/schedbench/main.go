// Command schedbench regenerates Fig. 6 and the §VI headline numbers:
// the trained scheduler's predictions on models *never seen during
// training*, under the maximum-performance and best-energy policies,
// showing per-batch-size achieved-versus-ideal metrics, which predictions
// were wrong, and the resulting performance loss; plus a summary of
// trained-model accuracy, unseen-model accuracy and the energy saved
// against an always-dGPU baseline.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"bomw/internal/characterize"
	"bomw/internal/core"
	"bomw/internal/models"
	"bomw/internal/nn"
	"bomw/internal/trace"
)

func main() {
	summary := flag.Bool("summary", false, "print only the §VI headline summary")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	fmt.Println("training the scheduler on the 21 measured architectures…")
	sched, err := core.New(core.Config{TrainModels: models.AllModels(), Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, spec := range append(models.PaperModels(), models.UnseenModels()...) {
		if err := sched.LoadModel(spec, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	sweeper := characterize.NewSweeper()

	batches := characterize.PaperBatches()
	if !*summary {
		for _, pol := range []core.Policy{core.BestThroughput, core.EnergyEfficiency} {
			fmt.Printf("\n== Figure 6: %s policy on unseen models ==\n", pol)
			for _, spec := range models.UnseenModels() {
				fmt.Printf("\n--- %s ---\n", spec.Name)
				fmt.Printf("%10s %8s | %-18s %-18s %12s %12s %8s\n",
					"batch", "gpu", "predicted", "ideal", "achieved", "ideal", "loss")
				for _, b := range batches {
					for _, warm := range []bool{false, true} {
						evalOne(sched, sweeper, spec, b, warm, pol)
					}
				}
			}
		}
	}

	printSummary(sched, sweeper, *seed)
}

func gpuState(warm bool) string {
	if warm {
		return "warm"
	}
	return "idle"
}

func evalOne(sched *core.Scheduler, sw *characterize.Sweeper, spec *nn.Spec, batch int, warm bool, pol core.Policy) {
	cm, err := sw.MeasureConfig(spec, batch, warm, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	feats := characterize.Features(spec.Descriptor(), batch, warm)
	pred := sched.Classifier(pol).Predict(feats)
	ideal := cm.Best(pol)
	loss := cm.LossVersusIdeal(pol, pred)
	mark := "✓"
	if pred != ideal {
		mark = "✗"
	}
	fmt.Printf("%10d %8s | %-18s %-18s %12.4g %12.4g %7.1f%% %s\n",
		batch, gpuState(warm),
		cm.Points[pred].Device, cm.Points[ideal].Device,
		cm.MetricOf(pol, pred), cm.MetricOf(pol, ideal), 100*loss, mark)
}

func printSummary(sched *core.Scheduler, sw *characterize.Sweeper, seed int64) {
	batches := characterize.PaperBatches()
	score := func(specs []*nn.Spec, pol core.Policy) (acc, avgLoss float64) {
		acc, avgLoss, err := sw.Score(specs, batches, pol, sched.Classifier(pol).Predict)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return acc, avgLoss
	}

	fmt.Println("\n== §VI summary ==")
	var sumAcc float64
	for _, pol := range []core.Policy{core.BestThroughput, core.EnergyEfficiency} {
		accT, lossT := score(models.PaperModels(), pol)
		accU, lossU := score(models.UnseenModels(), pol)
		sumAcc += accU
		fmt.Printf("%-18s trained-models accuracy %.1f%% (loss %.1f%%) | unseen-models accuracy %.1f%% (loss %.1f%%)\n",
			pol, 100*accT, 100*lossT, 100*accU, 100*lossU)
	}
	fmt.Printf("combined unseen-model score across the two policies: %.1f%% (paper: 91%%)\n", 100*sumAcc/2)

	// Energy saving versus always using the most powerful device.
	tr, err := trace.Diurnal(200, 20, 400, 2*time.Second,
		[]string{"simple", "mnist-small", "mnist-cnn"}, []int{2, 32, 512, 8192}, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	adaptive, err := sched.Replay(tr, core.EnergyEfficiency)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	dgpu, err := sched.ReplayStatic(tr, "GTX 1080 Ti")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	saving := 1 - adaptive.TotalEnergyJ/dgpu.TotalEnergyJ
	fmt.Printf("energy policy on a diurnal trace: %.1f J adaptive vs %.1f J always-dGPU → %.1f%% saved (paper: up to 10%%)\n",
		adaptive.TotalEnergyJ, dgpu.TotalEnergyJ, 100*saving)
}
