// Command explain audits one scheduling configuration: for a model,
// batch size and GPU state it prints what the runtime charges the batch
// on each device, broken down into its command sequence's terms
// (transfer / launch / dispatch / roofline, which side of each kernel's
// roofline binds, the clocks it starts at), and the device a trained
// scheduler would pick under every policy — "why did it choose that?" in
// one screen.
//
// Usage:
//
//	explain -model cifar-10 -batch 8
//	explain -model mnist-small -batch 65536 -warm
package main

import (
	"flag"
	"fmt"
	"os"

	"bomw/internal/characterize"
	"bomw/internal/core"
	"bomw/internal/device"
	"bomw/internal/models"
	"bomw/internal/opencl"
)

func main() {
	modelName := flag.String("model", "mnist-small", "model to audit")
	batch := flag.Int("batch", 4096, "batch size")
	warm := flag.Bool("warm", false, "assume a warmed-up discrete GPU")
	flag.Parse()

	spec, err := models.ByName(*modelName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// A charge reads shapes only: the weightless outline compiles to the
	// same kernels as the built network.
	net, err := spec.Outline()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	prog, err := opencl.BuildProgram(net)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("workload %s: %d flops/sample, %d B/sample, %d weights B, %d kernels\n\n",
		spec.Name, net.FlopsPerSample(), net.SampleBytes(), net.ParamBytes(), len(prog.Kernels))

	best, bestLat := "", 0.0
	for _, p := range device.DefaultProfiles() {
		b, err := opencl.Explain(p, prog, *batch, *warm && p.HasBoost)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(b)
		if best == "" || b.Latency.Seconds() < bestLat {
			best, bestLat = p.Name, b.Latency.Seconds()
		}
	}
	fmt.Printf("fastest as charged: %s\n\n", best)

	fmt.Println("training the scheduler for the learned view…")
	sched, err := core.New(core.Config{TrainModels: models.AllModels()})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := sched.LoadModel(spec, 1); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	feats := characterize.Features(spec.Descriptor(), *batch, *warm)
	for _, pol := range []core.Policy{core.BestThroughput, core.LowestLatency, core.EnergyEfficiency} {
		class := sched.Classifier(pol).Predict(feats)
		fmt.Printf("scheduler pick under %-18s → %s\n", pol, sched.Devices()[class])
	}
}
