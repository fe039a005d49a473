package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bomw/internal/core"
	"bomw/internal/fault"
	"bomw/internal/models"
)

// chaosTemplate builds a soak-local template scheduler: a fault plan is
// armed on node runtimes (node0 shares the template's), so the
// package-shared template must not be used here.
func chaosTemplate(t testing.TB) *core.Scheduler {
	t.Helper()
	tmpl, err := core.New(core.Config{
		TrainModels: models.PaperModels(),
		Batches:     []int{8, 512, 8192, 65536},
		Reps:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tmpl.LoadModel(models.Simple(), 1); err != nil {
		t.Fatal(err)
	}
	if err := tmpl.LoadModel(models.MnistSmall(), 1); err != nil {
		t.Fatal(err)
	}
	return tmpl
}

// chaosRun drives a 16-node fleet under closed-loop client load until
// the fleet's wall clock passes the chaos horizon. Returns client-side
// SLO attainment and the final fleet stats. spec scripts the incident
// from virtual 0 with seed 9; empty runs the no-fault baseline.
func chaosRun(t *testing.T, tmpl *core.Scheduler, spec string, fleetSize, clients int, horizon, deadline time.Duration) (float64, FleetStats) {
	t.Helper()
	clk := core.WallClock()
	cfg := Config{
		Policy: LeastLoaded,
		Clock:  clk,
	}
	_, nodes, err := Build(tmpl, fleetSize, 1, core.PipelineConfig{
		Window: 200 * time.Microsecond, MaxBatch: 32,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Building the replicas takes seconds under the race detector, and
	// the clock has been running since before it: the incident is
	// anchored where the clock stands once the fleet is built and armed,
	// so no scripted window can expire during construction. Build's own
	// cluster is left aside for one whose fault plan carries that origin.
	members := make([]Node, len(nodes))
	for i, nd := range nodes {
		members[i] = nd
	}
	origin := clk.Now()
	if spec != "" {
		plan, err := fault.Parse(spec, 9, FleetNames(fleetSize))
		if err != nil {
			t.Fatal(err)
		}
		for i := range plan.Faults {
			if f := &plan.Faults[i]; f.End != 0 {
				f.Start, f.End = origin+f.Start, origin+f.End
			}
		}
		cfg.Faults = fault.NewInjector(plan)
	}
	c, err := New(members, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	mods := []string{"simple", "mnist-small"}
	var attempts, ok, failed atomic.Int64
	errCh := make(chan error, clients)
	var wg sync.WaitGroup
	until := origin + horizon + 300*time.Millisecond
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; clk.Now() < until; k++ {
				attempts.Add(1)
				fut, err := c.Submit(ctx, core.PipelineRequest{
					Model:    mods[(i+k)%len(mods)],
					Policy:   core.BestThroughput,
					Batch:    1 << (k % 3),
					Deadline: deadline,
				})
				switch {
				case errors.Is(err, core.ErrAdmissionFull), errors.Is(err, core.ErrDeadlineInfeasible),
					errors.Is(err, ErrNoHealthyNodes), errors.Is(err, core.ErrNodeDraining),
					errors.Is(err, core.ErrNodeDown):
					failed.Add(1)
					continue
				case err != nil:
					errCh <- err
					return
				}
				comp, err := fut.Wait(ctx)
				switch {
				case err != nil:
					errCh <- err
					return
				case comp.Err != nil:
					failed.Add(1)
				default:
					ok.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("chaos client failed: %v", err)
	}
	if n := attempts.Load(); ok.Load()+failed.Load() != n {
		t.Fatalf("client accounting leaked: %d attempts, %d ok + %d failed", n, ok.Load(), failed.Load())
	}
	// Close before the final snapshot, so the no-lost-futures identity
	// (Submitted ≡ Completed) is read off drained pipelines (the
	// deferred Close is a no-op then).
	c.Close()
	return float64(ok.Load()) / float64(attempts.Load()), c.Stats()
}

// assertNoLostFutures checks the fleet-wide conservation law: every
// admitted request's future resolved (Completed includes the ok,
// Failed, Cancelled and Expired buckets — see core.PipelineStats).
func assertNoLostFutures(t *testing.T, st FleetStats) {
	t.Helper()
	if st.Completed != st.Submitted {
		t.Fatalf("lost futures: submitted %d, completed %d (cancelled %d expired %d failed %d)",
			st.Submitted, st.Completed, st.Cancelled, st.Expired, st.Failed)
	}
}

// TestSoakChaos is the fleet's chaos acceptance soak: a 16-node fleet
// rides out 2 seeded crash-window nodes (flapping restarts) plus 2
// always-slow straggler nodes with feasible-SLO attainment within 5
// points of the no-fault baseline, the crash windows entered and zero
// lost futures. What carries it is the direct path: the router skips a
// node inside its down window; a slow node's devices show the slowdown
// in their observed ratio, so deadline admission refuses what the node
// cannot serve in time; and the router fails over to the next node.
func TestSoakChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("attainment bars need realistic wall timing; TestChaosSmoke is the race-detector drill")
	}
	const (
		fleetSize = 16
		clients   = 16
	)
	horizon := 2500 * time.Millisecond
	deadline := 2 * time.Millisecond
	tmpl := chaosTemplate(t)
	baseAtt, baseSt := chaosRun(t, tmpl, "", fleetSize, clients, horizon, deadline)
	chaosAtt, chaosSt := chaosRun(t, tmpl, fmt.Sprintf("crash:2:2,slow:2:16,horizon:%v", horizon), fleetSize, clients, horizon, deadline)
	t.Logf("baseline: attainment %.4f, submits %d", baseAtt, baseSt.Submits)
	t.Logf("chaos:    attainment %.4f, submits %d", chaosAtt, chaosSt.Submits)
	t.Logf("chaos windows: trips %d, recoveries %d", chaosSt.ChaosTrips, chaosSt.ChaosRecoveries)

	if chaosAtt < baseAtt-0.05 {
		t.Fatalf("chaos attainment %.4f fell more than 5 points below baseline %.4f", chaosAtt, baseAtt)
	}
	if chaosSt.ChaosTrips < 2 {
		t.Fatalf("chaos trips = %d, want the scripted crash windows entered", chaosSt.ChaosTrips)
	}
	assertNoLostFutures(t, baseSt)
	assertNoLostFutures(t, chaosSt)
}

// TestChaosSmoke is the CI drill behind `make smoke-chaos`: the same
// 16-node seeded incident at a shorter horizon under the race detector.
// Asserts invariants only (accounting, no wedged clients, windows
// entered); the attainment bar is the soak's job.
func TestChaosSmoke(t *testing.T) {
	const fleetSize = 16
	horizon := 800 * time.Millisecond
	tmpl := chaosTemplate(t)
	_, st := chaosRun(t, tmpl, fmt.Sprintf("crash:2:2,slow:2:16,horizon:%v", horizon), fleetSize, 8, horizon, 2*time.Millisecond)
	assertNoLostFutures(t, st)
	if st.ChaosTrips == 0 {
		t.Fatal("no crash window was ever entered")
	}
	if st.Submits == 0 || st.Submitted == 0 {
		t.Fatalf("smoke served nothing: %+v", st)
	}
}
