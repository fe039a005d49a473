// Command loadgen turns a workload spec into load — and load into
// numbers. It compiles a deterministic seeded arrival stream from a
// spec file (or builds a default single-client Poisson spec from
// flags), runs the MLPerf-style scenarios against a single node or an
// n-node fleet, and emits one JSON report document.
//
// Usage:
//
//	loadgen                                    # all four scenarios, virtual, 1 node
//	loadgen -scenario server -nodes 4          # one scenario on a virtual fleet
//	loadgen -spec spec.json -scenario server   # arrivals from a workload spec file
//	loadgen -emit-trace -spec spec.json        # just compile the spec to a trace
//	loadgen -find-max-rate -slo-ms 20          # binary-search max rate under SLO
//	loadgen -live -nodes 4 -speedup 10         # drive a real pipeline/cluster
//
// Virtual runs (the default) are deterministic in (spec, seed): the
// same invocation always prints the same bytes, so reports diff cleanly
// across commits. Live runs exercise the real serving stack and are
// statistical.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"bomw/internal/cluster"
	"bomw/internal/core"
	"bomw/internal/models"
	"bomw/internal/nn"
	"bomw/internal/workload"
	"bomw/internal/workload/scenario"
)

// Output is the report document loadgen writes.
type Output struct {
	Target    string                 `json:"target"`
	Seed      int64                  `json:"seed"`
	Scenarios []scenario.Report      `json:"scenarios,omitempty"`
	Search    *scenario.SearchResult `json:"search,omitempty"`
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}

func main() {
	var (
		specPath  = flag.String("spec", "", "workload spec file (JSON); replaces the built-in single-client spec")
		scenFlag  = flag.String("scenario", "all", "scenario to run: all, single-stream, multi-stream, server, offline")
		model     = flag.String("model", "mnist-small", "model for flag-built workloads")
		queries   = flag.Int("queries", 256, "queries per scenario")
		batch     = flag.Int("batch", 0, "samples per query (0 = per-scenario default)")
		rate      = flag.Float64("rate", 500, "server scenario offered rate (queries/s)")
		sloMS     = flag.Float64("slo-ms", 20, "server scenario latency SLO (ms)")
		seed      = flag.Int64("seed", 1, "seed for arrivals and model weights")
		nodes     = flag.Int("nodes", 1, "fleet size (1 = single node)")
		live      = flag.Bool("live", false, "drive a real pipeline/cluster instead of the virtual backend")
		speedup   = flag.Float64("speedup", 1, "live server pacing speedup (x real time)")
		emitTrace = flag.Bool("emit-trace", false, "compile the spec to a trace JSON and exit")
		findMax   = flag.Bool("find-max-rate", false, "binary-search the max server rate meeting -attain")
		attain    = flag.Float64("attain", 0.99, "target SLO attainment for -find-max-rate")
		outPath   = flag.String("o", "-", "output path (- = stdout)")
	)
	flag.Parse()

	var spec *workload.Spec
	if *specPath != "" {
		s, err := workload.LoadSpecFile(*specPath)
		if err != nil {
			fail(err)
		}
		spec = &s
	}

	outW := io.Writer(os.Stdout)
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		outW = f
	}

	if *emitTrace {
		if spec == nil {
			fail(fmt.Errorf("-emit-trace needs -spec"))
		}
		tr, err := workload.Compile(*spec)
		if err != nil {
			fail(err)
		}
		if err := tr.WriteJSON(outW); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "loadgen: compiled %d events\n", len(tr))
		return
	}

	kinds := scenario.Kinds()
	if *scenFlag != "all" {
		k, err := scenario.ParseKind(*scenFlag)
		if err != nil {
			fail(err)
		}
		kinds = []scenario.Kind{k}
	}

	fmt.Fprintln(os.Stderr, "loadgen: characterising devices and training the scheduler…")
	sched, err := core.New(core.Config{
		TrainModels: models.PaperModels(),
		Batches:     []int{8, 512, 8192, 65536},
		Reps:        1,
		Seed:        *seed,
	})
	if err != nil {
		fail(err)
	}
	for _, m := range []func() *nn.Spec{models.MnistSmall, models.Simple} {
		if err := sched.LoadModel(m(), *seed); err != nil {
			fail(err)
		}
	}

	base := scenario.Params{
		Model:      *model,
		Policy:     core.BestThroughput,
		Queries:    *queries,
		Batch:      *batch,
		TargetRate: *rate,
		SLO:        time.Duration(*sloMS * float64(time.Millisecond)),
		Seed:       *seed,
		Workload:   spec,
	}

	out := Output{Seed: *seed}
	var run func(p scenario.Params) (scenario.Report, error)
	if *live {
		var target scenario.LiveTarget
		pcfg := core.PipelineConfig{Window: 500 * time.Microsecond, MaxBatch: 256, ProbeInterval: -1}
		if *nodes <= 1 {
			p := core.NewPipeline(sched, pcfg)
			defer p.Close()
			target = scenario.LiveTarget{Name: "pipeline", Target: p}
		} else {
			fleet, _, err := cluster.Build(sched, *nodes, *seed, pcfg, cluster.Config{Policy: cluster.LeastLoaded})
			if err != nil {
				fail(err)
			}
			defer fleet.Close()
			target = scenario.LiveTarget{Name: fmt.Sprintf("cluster:%d", *nodes), Target: fleet}
		}
		out.Target = target.Name
		ctx := context.Background()
		run = func(p scenario.Params) (scenario.Report, error) {
			return scenario.RunLive(ctx, target, p, *speedup)
		}
	} else {
		var b scenario.Backend
		if *nodes <= 1 {
			b = scenario.NewSchedulerBackend(sched)
		} else {
			fb, err := scenario.NewFleetBackend(sched, *nodes, *seed)
			if err != nil {
				fail(err)
			}
			b = fb
		}
		out.Target = b.Name()
		run = func(p scenario.Params) (scenario.Report, error) { return scenario.Run(b, p) }
	}

	for _, k := range kinds {
		p := base
		p.Kind = k
		if k != scenario.Server {
			p.Workload = nil // spec-driven arrivals only shape the Server scenario
		}
		r, err := run(p)
		if err != nil {
			fail(fmt.Errorf("scenario %s: %w", k, err))
		}
		out.Scenarios = append(out.Scenarios, r)
		fmt.Fprintf(os.Stderr, "loadgen: %-14s p99 %8dus  %10.1f samples/s\n",
			r.Scenario, r.Latency.P99US, r.SamplesPerS)
	}

	if *findMax {
		p := base
		p.Kind = scenario.Server
		// The search varies the offered rate, which a fixed spec would
		// pin — so it always probes the flag-built Poisson workload.
		if p.Workload != nil {
			fmt.Fprintln(os.Stderr, "loadgen: -find-max-rate ignores -spec (the search must control the offered rate)")
			p.Workload = nil
		}
		res, err := scenario.FindMaxRate(func(rate float64) (scenario.Report, error) {
			pp := p
			pp.TargetRate = rate
			return run(pp)
		}, 10, 1e6, *attain, 8)
		if err != nil {
			fail(err)
		}
		out.Search = &res
		fmt.Fprintf(os.Stderr, "loadgen: max rate %.1f qps at %.0f%% attainment under %.1fms SLO\n",
			res.MaxRate, *attain*100, *sloMS)
	}

	enc := json.NewEncoder(outW)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fail(err)
	}
}
