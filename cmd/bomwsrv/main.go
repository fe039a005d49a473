// Command bomwsrv serves the adaptive scheduler over HTTP — the
// production face of the paper's system. It trains (or loads) the
// scheduler, pre-loads the paper's workload models, and listens for
// classification requests, serving them through the concurrent pipeline
// (admission → live batching → per-device worker queues). SIGINT/SIGTERM
// shut down gracefully: the listener stops, in-flight requests drain,
// and open batches flush before the process exits.
//
// Usage:
//
//	bomwsrv -addr :8080
//	bomwsrv -save sched.state                # train, write the state, exit
//	bomwsrv -addr :8080 -load sched.state -window 2ms -max-batch 64
//	bomwsrv -addr :8080 -default-slo 50ms
//	bomwsrv -addr :8080 -nodes 64 -route least-loaded
//
//	curl -s localhost:8080/v1/devices
//	curl -s localhost:8080/v1/pipeline
//	curl -s -X POST localhost:8080/v1/classify \
//	  -d '{"model":"simple","policy":"lowest-latency","samples":[[5.1,3.5,1.4,0.2]]}'
//	curl -s -X POST localhost:8080/v1/classify \
//	  -d '{"model":"simple","samples":[[5.1,3.5,1.4,0.2]],"timeout_ms":50}'
//
// Deadlines: a request's timeout_ms (or -default-slo when absent) is its
// latency SLO. Admission control rejects requests predicted to miss it
// (504, reason deadline_infeasible); admitted requests whose SLO passes
// before execution are culled without touching a device (504, reason
// deadline_exceeded).
//
// Fault injection (failure-domain drills): -faults scripts one
// deterministic fault plan on the virtual clock (wall time since
// start), and -fault-seed seeds it. The spec is semicolon-separated
// clauses. A target=effect clause scripts faults on a node ("*" for
// every node), or on one device of it after a "/":
//
//	bomwsrv -faults 'node0/GTX 1080 Ti=err:0.05'                5% execution errors
//	bomwsrv -faults 'node0/UHD Graphics 630=spike:0.2:4'        20% of runs ×4 slower
//	bomwsrv -faults 'node0/i7-8700 CPU=outage:30s-45s,err:0.01' full outage window + errors
//	bomwsrv -faults '*/A=err:1; node0/B=spike:0.5:8' -fault-seed 7
//
// Faulted batches fail over to the next-ranked device; persistent
// failures quarantine the device (watch /v1/devices and /v1/stats) until
// a recovery probe re-admits it. Every node draws from its own stream
// (the seed plus the node's index), so "*" does not fault the replicas
// in lockstep.
//
// Fleet mode: -nodes N replicates the trained scheduler into N serving
// nodes node0..node{N-1} (shared classifiers, fresh devices) behind the
// -route policy: round-robin (the default), least-loaded or
// model-affinity. Each won a setting of the routing drill the others
// lost (EXPERIMENTS.md): round-robin a small fleet whose every node is
// crashed or slow, least-loaded a large fault-free one, model-affinity
// a large one under an incident. model-affinity queues SLO-free traffic,
// which no deadline refuses, on the model's home node: in the drill's
// mixed-SLO setting that traffic's virtual p99 was 60.8 ms, against
// 0.63 ms under round-robin. Requests route per the policy, among the
// nodes ready at that moment, with automatic failover; /v1/cluster
// exposes fleet stats and /v1/nodes node health and lifecycle
// (drain/evict/readmit/kill). Node faults drill node-level
// failure: down:start-end fail-stops a node for a window and slow:k
// runs it k× slower; crash and slow clauses script a seeded incident
// of them — crash:N[:flaps] gives N nodes flaps down windows each
// (default 2), slow:N[:k] slows N other nodes (default 4×), and
// horizon/crashlen place the windows (default 10s and horizon/8):
//
//	bomwsrv -nodes 8 -route least-loaded \
//	  -faults 'node0/GTX 1080 Ti=outage:30s-5m; node3=down:10s-20s,err:0.1'
//	bomwsrv -nodes 16 -route least-loaded \
//	  -faults 'crash:2:3,slow:2:4,horizon:2m' -fault-seed 7 -default-slo 50ms
//
// Every request takes one path: the router tries up to three of the
// nodes ready at that moment in policy order, and returns the accepting
// node's own future. A crashed node is skipped by the router for its
// down window. A slow node's
// devices show it in their observed slowdown ratio, which deadline
// admission reads: the node refuses what it can no longer serve in
// time, and the router fails over to the next node. A device that keeps
// failing is quarantined until a recovery probe readmits it; a node
// whose every device is quarantined takes no traffic from the next
// request on, until a probe readmits one of them. Overload
// is shed where it arises: each node's admission queue refuses work
// when full (503 with Retry-After). The same -fault-seed replays the
// same incident. Watch the "chaos" block of /v1/cluster: it carries the
// plan and counts the down windows' entries and exits as the router
// reads them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"

	"bomw/internal/cluster"
	"bomw/internal/core"
	"bomw/internal/fault"
	"bomw/internal/models"
	"bomw/internal/server"
	"bomw/internal/tensor"
)

// readHeaderTimeout is how long a client may take over its request
// headers: without a limit, one that never finishes them holds a
// goroutine and a descriptor for as long as it likes.
const readHeaderTimeout = 10 * time.Second

// drainTimeout is the graceful-shutdown budget: how long in-flight
// requests get to finish after SIGINT/SIGTERM before the listener is
// torn down under them.
const drainTimeout = 10 * time.Second

// saveState writes the trained scheduler to f and closes it. A failed
// Close is a failed save: a short write can surface only there.
func saveState(sched *core.Scheduler, f *os.File) error {
	if err := sched.SaveState(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	loadPath := flag.String("load", "", "load scheduler state instead of training")
	savePath := flag.String("save", "", "write the trained scheduler state to this file and exit (restart from it with -load)")
	seed := flag.Int64("seed", 1, "random seed")
	window := flag.Duration("window", 2*time.Millisecond, "live batching window")
	maxBatch := flag.Int("max-batch", 64, "live batching size trigger (samples)")
	defaultSLO := flag.Duration("default-slo", 0, "latency SLO for requests without timeout_ms (0 disables; requests predicted to miss are rejected 504)")
	faultSpec := flag.String("faults", "", "fault plan, e.g. 'node0/GTX 1080 Ti=err:0.05; crash:2:3,slow:2:4' (see doc comment)")
	faultSeed := flag.Int64("fault-seed", 1, "fault plan seed: which nodes crash and slow clauses pick, and every error and spike draw")
	nodes := flag.Int("nodes", 1, "fleet size: serving-node replicas behind the router")
	route := flag.String("route", "round-robin", "routing policy: round-robin, least-loaded or model-affinity")
	flag.Parse()

	// Open the -save file and parse the routing policy and fault plan
	// before the expensive characterisation run so a typo fails fast;
	// device names are validated once the scheduler is up.
	var saveFile *os.File
	if *savePath != "" {
		if *loadPath != "" {
			fmt.Fprintln(os.Stderr, "bomwsrv: -save writes what training produced; it cannot be combined with -load")
			os.Exit(1)
		}
		var err error
		if saveFile, err = os.Create(*savePath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	policy, err := cluster.PolicyByName(*route)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Node names are deterministic, so the plan is parsed — and its
	// crash and slow clauses drawn — before the fleet exists.
	var faults *fault.Injector
	if *faultSpec != "" {
		plan, err := fault.Parse(*faultSpec, *faultSeed, cluster.FleetNames(*nodes))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		faults = fault.NewInjector(plan)
	}

	// The offline phase, timed: what it cost goes on the start-up line.
	offline, phase := time.Now(), "trained"
	var sched *core.Scheduler
	if *loadPath != "" {
		phase = "restored"
		f, err2 := os.Open(*loadPath)
		if err2 != nil {
			fmt.Fprintln(os.Stderr, err2)
			os.Exit(1)
		}
		sched, err = core.LoadState(core.Config{Seed: *seed}, f)
		f.Close()
	} else {
		fmt.Println("bomwsrv: characterising devices and training the scheduler…")
		sched, err = core.New(core.Config{TrainModels: models.AllModels(), Seed: *seed})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if saveFile != nil {
		if err := saveState(sched, saveFile); err != nil {
			fmt.Fprintf(os.Stderr, "bomwsrv: saving scheduler state to %s: %v\n", *savePath, err)
			os.Exit(1)
		}
		fmt.Printf("bomwsrv: scheduler state saved to %s\n", *savePath)
		return
	}
	trained, loading := time.Since(offline), time.Now()
	var weightBytes int64
	for _, spec := range models.PaperModels() {
		if err := sched.LoadModel(spec, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if net, err := sched.Dispatcher().Network(spec.Name); err == nil {
			weightBytes += net.ParamBytes()
		}
	}
	loaded := time.Since(loading)

	if faults != nil {
		for _, f := range faults.Plan().Faults {
			if f.Device != "" && !slices.Contains(sched.Devices(), f.Device) {
				fmt.Fprintf(os.Stderr, "bomwsrv: -faults names unknown device %q (have %v)\n", f.Device, sched.Devices())
				os.Exit(1)
			}
		}
	}
	if *nodes > 1 {
		fmt.Printf("bomwsrv: replicating into a %d-node fleet (%s routing)…\n", *nodes, policy)
	}
	api, err := server.NewCluster(sched, *seed, core.PipelineConfig{
		Window:     *window,
		MaxBatch:   *maxBatch,
		DefaultSLO: *defaultSLO,
	}, *nodes, cluster.Config{
		Policy: policy,
		Faults: faults,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if faults != nil {
		var down, slow []string
		for _, f := range faults.Plan().Faults {
			switch {
			case f.Effect == fault.Down && !slices.Contains(down, f.Node):
				down = append(down, f.Node)
			case f.Effect == fault.Slow:
				slow = append(slow, f.Node)
			}
		}
		fmt.Printf("bomwsrv: %d fault(s) armed (seed %d): down windows on %v, slow nodes %v\n",
			len(faults.Plan().Faults), *faultSeed, down, slow)
	}

	srv := &http.Server{Addr: *addr, Handler: api, ReadHeaderTimeout: readHeaderTimeout}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	held := fmt.Sprintf("%.1f MB of weights", float64(weightBytes)/1e6)
	if *nodes > 1 {
		held += fmt.Sprintf(" (shared by %d nodes)", *nodes)
	}
	fmt.Printf("bomwsrv: %s in %.2fs, %d models loaded in %.2fs, %s; serving on %s (%s tensor kernels)\n",
		phase, trained.Seconds(), len(models.PaperModels()), loaded.Seconds(), held, *addr, tensor.KernelISA())

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case <-ctx.Done():
		fmt.Println("bomwsrv: shutting down, draining in-flight requests…")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "bomwsrv: forced shutdown: %v\n", err)
		}
		api.Close() // flush open batches, drain device queues
		fmt.Println("bomwsrv: drained")
	}
}
