// Command bench is the repository's serving benchmark: it stands up
// what cmd/bomwsrv serves inside its own process, drives one of four
// closed-loop workloads at it, checks every answer against a reference,
// and prints every metric by name and unit as one JSON object on the
// last line of standard output. See README.md in this directory.
//
//	bash bench/run.sh --workload http_mnist_b1 --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload http_mnist_b1 --seed 1 --seconds 20 --trace 1
//	bash bench/run.sh --selfcheck --runs 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"bomw/internal/cluster"
	"bomw/internal/core"
)

const (
	// setupBuilds cold set-ups are timed per run; the fastest counts.
	setupBuilds = 3
	// primingOps operations (each distinct input once) run before the
	// live heap is read, so lazily built state and pools are in place.
	primingOps = distinctInputs
	// warmupLength is driven and discarded before the first window.
	warmupLength = 2 * time.Second
)

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
}

// record is the full result written to the output directory: the
// result line plus what explains it.
type record struct {
	Workload    string               `json:"workload"`
	Traced      bool                 `json:"traced"`
	Environment environment          `json:"environment"`
	Result      resultLine           `json:"result"`
	Priming     phaseCounts          `json:"priming"`
	Warmup      phaseCounts          `json:"warmup"`
	Measured    phaseCounts          `json:"measured"`
	Problems    []string             `json:"problems,omitempty"`
	SetupS      []float64            `json:"setup_seconds"`
	CalibMS     []float64            `json:"calibration_ms"`
	Windows     map[string][]float64 `json:"windows,omitempty"`
	TailPct     float64              `json:"latency_tail_percentile"`
	TailMS      float64              `json:"latency_tail_ms"`
	Samples     int                  `json:"latency_samples"`
}

func main() {
	name := flag.String("workload", "", "workload to run: http_mnist_b1, http_mnist_b64, http_cnn_b8 or lib_simple_burst")
	seed := flag.Int64("seed", 1, "seed the run's inputs are generated from")
	seconds := flag.Int("seconds", 20, "seconds to measure")
	trace := flag.Int("trace", 0, "1 runs the traced (per-layer) run, 0 the end-to-end run")
	outDir := flag.String("out", "out", "directory for result and span files")
	selfcheck := flag.Bool("selfcheck", false, "run every workload in two alternating sets and compare them against the bounds in BENCHMARK.json")
	runs := flag.Int("runs", 10, "runs per set and workload in -selfcheck")
	flag.Parse()

	if *selfcheck {
		ok, err := selfCheck(*runs, *outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	w, err := workloadByName(*name)
	if err == nil && (*seconds < 1 || *trace < 0 || *trace > 1) {
		err = fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	rec, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	printSummary(rec)
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printSummary writes the human-readable form to standard error.
func printSummary(rec *record) {
	fmt.Fprintf(os.Stderr, "%s seed %d: %d attempted, %d failed, correct=%v\n",
		rec.Workload, rec.Environment.Seed, rec.Result.Attempted, rec.Result.Failed, rec.Result.Correct)
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Result.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, p := range rec.Problems {
		fmt.Fprintln(os.Stderr, "  PROBLEM:", p)
	}
}

// liveHeap forces a collection and returns what survives it.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers and pools released
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// runWorkload is one run: set-up, everything that needs the live
// stack, tear-down, and the result.
func runWorkload(w workload, seed int64, measure time.Duration, traced bool, outDir string) (*record, error) {
	// Before set-up, so that the stack sizes itself (admission shards)
	// by the CPUs it is given.
	runtime.GOMAXPROCS(w.procs)
	loop, builds := measure, setupBuilds
	if traced {
		loop, builds = measure/3, 1 // the rest of a traced run is the onion
	}
	nWin, winLen := windowPlan(loop)
	rec := &record{Workload: w.name, Traced: traced, Environment: readEnvironment(seed, nWin, winLen)}

	rec.calibrate()
	s, setups, err := measureSetup(builds)
	if err != nil {
		return nil, err
	}
	for _, d := range setups {
		rec.SetupS = append(rec.SetupS, d.Seconds())
	}
	values, tr, err := rec.drive(w, s, seed, nWin, winLen, measure-loop)
	if cerr := s.close(); cerr != nil && err == nil {
		err = fmt.Errorf("closing the stack: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	rec.calibrate()

	rec.Result.Attempted = rec.Priming.Sent + rec.Warmup.Sent + rec.Measured.Sent
	rec.Result.Failed = rec.Priming.Failed + rec.Warmup.Failed + rec.Measured.Failed
	if rec.Result.Failed > 0 {
		rec.Problems = append(rec.Problems, fmt.Sprintf("%d requests failed or returned wrong classes", rec.Result.Failed))
	}
	rec.Result.Correct = len(rec.Problems) == 0
	if !rec.Result.Correct {
		printSummary(rec)
		return nil, fmt.Errorf("run is not correct, no result")
	}
	defs := endToEnd
	if traced {
		values["host.calib_ms_min"], values["host.calib_ms_max"] = bestWindow(rec.CalibMS, false), bestWindow(rec.CalibMS, true)
		defs = perLayer
	} else {
		values["setup_s"] = bestWindow(rec.SetupS, false)
	}
	rec.Result.Metrics = report(defs, values)
	return rec, writeOutputs(outDir, rec, tr)
}

func (rec *record) calibrate() { rec.CalibMS = append(rec.CalibMS, float64(calibrate())/1e6) }

// drive does everything that needs the live stack: inputs and their
// reference labels, priming, the live-heap reading, the closed loop,
// and on a traced run the onion. It returns the measured values by
// metric name; what went wrong with the run itself lands in
// rec.Problems.
func (rec *record) drive(w workload, s *stack, seed int64, nWin int, winLen, traceBudget time.Duration) (map[string]float64, *tracer, error) {
	spec, err := s.sched.Dispatcher().Spec(w.model)
	if err != nil {
		return nil, nil, err
	}
	inputs := generateInputs(seed, w, spec.InputShape)
	if err := labelInputs(s.sched, w, inputs); err != nil {
		return nil, nil, err
	}
	op := newOperation(w, s, inputs)
	perOp := int64(w.requestsPerOp())
	for i := 0; i < primingOps; i++ {
		rec.Priming.Sent += perOp
		rec.Priming.OK += int64(op(i).ok)
	}
	rec.Priming.Failed = rec.Priming.Sent - rec.Priming.OK
	heap := liveHeap()
	rec.calibrate()

	warmup := warmupLength
	if rec.Traced {
		warmup = time.Second
	}
	before := readCounters(s)
	load := runLoad(w, func() operation { return newOperation(w, s, inputs) }, warmup, nWin, winLen)
	after := readCounters(s)
	rec.Warmup, rec.Measured = load.warmup, load.measured

	var merged []float64
	for _, l := range load.latencies {
		merged = append(merged, l...)
	}
	sort.Float64s(merged)
	rec.Samples = len(merged)
	rec.TailPct, rec.TailMS = tailPercentile(merged)

	values := map[string]float64{}
	var tr *tracer
	switch {
	case len(load.throughput) == 0 || load.okInEdges == 0:
		rec.Problems = append(rec.Problems, "no window completed a correct request")
	case !rec.Traced:
		values["throughput_rps"] = bestWindow(load.throughput, true)
		values["latency_p50_ms"] = bestWindow(load.latencyP50, false)
		values["cpu_ms_per_req"] = bestWindow(load.cpuPerReq, false)
		values["alloc_kb_per_req"] = float64(load.allocBytes) / 1e3 / float64(load.okInEdges)
		values["live_heap_mb"] = float64(heap) / 1e6
		rec.Windows = map[string][]float64{
			"throughput_rps": load.throughput,
			"latency_p50_ms": load.latencyP50,
			"cpu_ms_per_req": load.cpuPerReq,
		}
	default:
		counterValues(values, w, load, before, after, float64(liveHeap())-float64(heap))
		values["latency_tail_ms"], values["latency_tail_pct"] = rec.TailMS, rec.TailPct
		values["latency_samples"] = float64(rec.Samples)
		if tr, err = traceOnions(w, s, inputs, traceBudget); err != nil {
			return nil, nil, err
		}
		if tr.failed > 0 {
			rec.Problems = append(rec.Problems, fmt.Sprintf("%d traced calls failed or returned wrong classes", tr.failed))
		}
		outermostUS := tr.layerValues(values)
		untracedMS := merged[0] // fastest against fastest
		values["trace.overhead_share"] = (outermostUS/1e3 - untracedMS) / untracedMS
		if err := shapeValues(values, s.sched, w, inputs); err != nil {
			return nil, nil, err
		}
	}

	// The program's own books must balance: everything admitted was
	// completed, and nothing was shed, failed or expired.
	end := s.api.Pipeline().Stats()
	if end.Submitted != end.Completed {
		rec.Problems = append(rec.Problems, fmt.Sprintf("pipeline submitted %d but completed %d", end.Submitted, end.Completed))
	}
	if end.Shed != 0 || end.Failed != 0 || end.Expired != 0 {
		rec.Problems = append(rec.Problems, fmt.Sprintf("pipeline shed %d, failed %d, expired %d", end.Shed, end.Failed, end.Expired))
	}
	return values, tr, nil
}

// counters are the public Stats() snapshots the traced run reads
// before and after its closed loop.
type counters struct {
	pipe  core.PipelineStats
	sched core.Stats
	fleet cluster.FleetStats
}

func readCounters(s *stack) counters {
	return counters{pipe: s.api.Pipeline().Stats(), sched: s.sched.Stats(), fleet: s.api.Cluster().Stats()}
}

// counterValues turns the Stats() growth over the closed loop into the
// batching, caching and routing figures.
func counterValues(values map[string]float64, w workload, load loadResult, a, b counters, heapGrowth float64) {
	batches := float64(b.pipe.Batches - a.pipe.Batches)
	values["core.batch_size_mean"] = float64(b.pipe.Completed-a.pipe.Completed) * float64(w.samples) / batches
	values["core.queue_wait_us_mean"] = float64(load.waitUSSum) / float64(load.measured.OK)
	values["core.idle_flush_share"] = float64(b.pipe.IdleFlushes-a.pipe.IdleFlushes) / batches
	values["core.size_flush_share"] = float64(b.pipe.SizeFlushes-a.pipe.SizeFlushes) / batches
	values["core.window_flush_share"] = float64(b.pipe.WindowFlushes-a.pipe.WindowFlushes) / batches
	hits := float64(b.sched.DecisionCacheHits - a.sched.DecisionCacheHits)
	values["core.decision_cache_hit_share"] = hits / (hits + float64(b.sched.DecisionCacheMisses-a.sched.DecisionCacheMisses))
	values["core.retries"] = float64(b.pipe.Retries - a.pipe.Retries)
	values["core.heap_growth_b_per_req"] = heapGrowth / float64(load.warmup.Sent+load.measured.Sent)
	var reroutes int64
	for i, n := range b.fleet.PerNode {
		reroutes += n.Rerouted - a.fleet.PerNode[i].Rerouted
	}
	values["cluster.reroutes"] = float64(reroutes)
	values["cluster.shed"] = float64(b.fleet.Shed + b.fleet.RouteFailures - a.fleet.Shed - a.fleet.RouteFailures)
}

// shapeValues adds the figures that are computed, not timed: the body
// size, the arithmetic and the least memory traffic the model needs
// (weights once, each activation once) from the layer shapes, and what
// the device models charge for the workload's batch — on a replica's
// untouched devices at a fixed virtual time, so that the charge repeats
// exactly from run to run.
func shapeValues(values map[string]float64, sched *core.Scheduler, w workload, inputs []input) error {
	values["server.body_bytes"] = 0
	if w.burst == 0 {
		values["server.body_bytes"] = float64(len(inputs[0].body))
	}
	net, err := sched.Dispatcher().Network(w.model)
	if err != nil {
		return err
	}
	batch := w.samples * w.requestsPerOp()
	values["tensor.flops_per_op"] = float64(int64(batch) * net.FlopsPerSample())
	values["tensor.bytes_moved_per_op"] = float64(net.ParamBytes() + int64(batch)*net.ActivationBytesPerSample())
	values["tensor.gflops"] = values["tensor.flops_per_op"] / (values["nn.forward_us"] * 1e3)

	fresh, err := sched.Replica(1)
	if err != nil {
		return err
	}
	const at = time.Second
	dec, err := fresh.Select(w.model, batch, core.BestThroughput, at)
	if err != nil {
		return err
	}
	res, err := fresh.Runtime().Estimate(dec.Device, w.model, batch, at)
	if err != nil {
		return err
	}
	values["device.sim_latency_us"] = float64(res.Latency()) / 1e3
	values["device.sim_energy_mj"] = res.EnergyJ * 1e3
	return nil
}

func writeOutputs(dir string, rec *record, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := "result-" + rec.Workload + ".json"
	if rec.Traced {
		name = "result-" + rec.Workload + "-traced.json"
	}
	if err := writeJSON(filepath.Join(dir, name), rec); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	return writeJSON(filepath.Join(dir, "trace-"+rec.Workload+".json"), map[string]any{
		"workload":    rec.Workload,
		"environment": rec.Environment,
		"spans":       tr.spans,
	})
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
