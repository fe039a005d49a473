package scenario

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"bomw/internal/cluster"
	"bomw/internal/core"
	"bomw/internal/models"
	"bomw/internal/workload"
)

// The offline phase (characterisation + training) runs once; every test
// takes cheap Replica copies so no test observes another's device state.
var (
	tmplOnce sync.Once
	tmpl     *core.Scheduler
	tmplErr  error
)

func templateScheduler(t testing.TB) *core.Scheduler {
	t.Helper()
	tmplOnce.Do(func() {
		tmpl, tmplErr = core.New(core.Config{
			TrainModels: models.PaperModels(),
			Batches:     []int{8, 512, 8192, 65536},
			Reps:        1,
		})
		if tmplErr != nil {
			return
		}
		tmplErr = tmpl.LoadModel(models.Simple(), 1)
		if tmplErr == nil {
			tmplErr = tmpl.LoadModel(models.MnistSmall(), 1)
		}
	})
	if tmplErr != nil {
		t.Fatal(tmplErr)
	}
	return tmpl
}

// freshNode returns a pristine single-node backend.
func freshNode(t testing.TB) *SchedulerBackend {
	t.Helper()
	rep, err := templateScheduler(t).Replica(1)
	if err != nil {
		t.Fatal(err)
	}
	return NewSchedulerBackend(rep)
}

// freshFleet returns a pristine n-node virtual fleet.
func freshFleet(t testing.TB, n int) *FleetBackend {
	t.Helper()
	rep, err := templateScheduler(t).Replica(1)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := NewFleetBackend(rep, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return fb
}

func baseParams() Params {
	return Params{
		Model:      "mnist-small",
		Policy:     core.BestThroughput,
		Queries:    64,
		TargetRate: 500,
		SLO:        20 * time.Millisecond,
		Seed:       3,
	}
}

// Virtual-mode runs must be bit-identical in (params, seed): same seed
// twice gives DeepEqual reports, and for the arrival-driven Server
// scenario a different seed must actually change the outcome.
func TestRunDeterministicInSeed(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			p := baseParams()
			p.Kind = kind
			b := freshNode(t)
			a, err := Run(b, p)
			if err != nil {
				t.Fatal(err)
			}
			b2, err := Run(b, p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b2) {
				t.Fatalf("same params+seed diverged:\n%+v\n%+v", a, b2)
			}
		})
	}
	// Server arrivals are seeded; a different seed must move the report.
	p := baseParams()
	p.Kind = Server
	b := freshNode(t)
	a, err := Run(b, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = 4
	c, err := Run(b, p)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Latency, c.Latency) && a.MakespanUS == c.MakespanUS {
		t.Fatal("distinct seeds produced an identical server report")
	}
}

// All four scenarios run end-to-end on a single node and on a 4-node
// virtual fleet, with internally consistent reports.
func TestRunAllScenariosVirtual(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    Backend
	}{
		{"node", freshNode(t)},
		{"fleet", freshFleet(t, 4)},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			byKind := map[string]Report{}
			for _, k := range Kinds() {
				p := baseParams()
				p.Kind = k
				r, err := Run(tc.b, p)
				if err != nil {
					t.Fatalf("%s: %v", k, err)
				}
				byKind[r.Scenario] = r
			}
			if len(byKind) != len(Kinds()) {
				t.Fatalf("got %d reports, want %d", len(byKind), len(Kinds()))
			}
			for _, r := range byKind {
				if r.Target != tc.b.Name() {
					t.Errorf("%s: target %q, want %q", r.Scenario, r.Target, tc.b.Name())
				}
				if r.Queries != 64 {
					t.Errorf("%s: completed %d of 64 queries", r.Scenario, r.Queries)
				}
				l := r.Latency
				if !(l.P50US <= l.P90US && l.P90US <= l.P99US && l.P99US <= l.MaxUS) {
					t.Errorf("%s: percentiles out of order: %+v", r.Scenario, l)
				}
				if l.P50US <= 0 || r.MakespanUS <= 0 || r.SamplesPerS <= 0 || r.EnergyJ <= 0 {
					t.Errorf("%s: degenerate report: %+v", r.Scenario, r)
				}
			}
			// Offline batches 64 samples per query; it must move samples
			// faster than one-at-a-time SingleStream.
			if byKind["offline"].SamplesPerS <= byKind["single-stream"].SamplesPerS {
				t.Errorf("offline %.0f samples/s not above single-stream %.0f",
					byKind["offline"].SamplesPerS, byKind["single-stream"].SamplesPerS)
			}
			if byKind["server"].Attainment <= 0 {
				t.Errorf("server attainment missing: %+v", byKind["server"])
			}
		})
	}
}

// SLO attainment is the Server scenario's whole point: it must collapse
// when the offered rate goes far past capacity.
func TestServerAttainmentDegradesWithRate(t *testing.T) {
	run := func(rate float64) Report {
		p := baseParams()
		p.Kind = Server
		p.TargetRate = rate
		r, err := Run(freshNode(t), p)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	easy := run(20)
	crush := run(2e6)
	if easy.Attainment < 0.9 {
		t.Fatalf("20 qps attainment %.3f, want >= 0.9", easy.Attainment)
	}
	if crush.Attainment >= easy.Attainment {
		t.Fatalf("attainment did not degrade: %.3f at 20 qps vs %.3f at 2M qps",
			easy.Attainment, crush.Attainment)
	}
	if crush.Latency.P99US <= easy.Latency.P99US {
		t.Fatalf("queueing delay invisible: p99 %dus at 20 qps vs %dus at 2M qps",
			easy.Latency.P99US, crush.Latency.P99US)
	}
}

// The Server scenario accepts a full multi-client workload spec in
// place of the default single Poisson client.
func TestServerScenarioWithWorkloadSpec(t *testing.T) {
	spec := workload.Spec{
		Seed:     7,
		HorizonS: 2,
		Clients: []workload.Client{
			{
				Name:    "a",
				Arrival: workload.Arrival{Dist: workload.DistPoisson, Rate: 60},
				Models:  []workload.ModelMix{{Model: "mnist-small", Weight: 1}},
				Batches: []workload.BatchMix{{Batch: 4, Weight: 1}},
			},
			{
				Name:    "b",
				Arrival: workload.Arrival{Dist: workload.DistGamma, Rate: 40, Shape: 0.5},
				Models:  []workload.ModelMix{{Model: "simple", Weight: 1}},
				Batches: []workload.BatchMix{{Batch: 8, Weight: 1}},
			},
		},
	}
	p := Params{
		Kind:     Server,
		Policy:   core.BestThroughput,
		SLO:      50 * time.Millisecond,
		Seed:     7,
		Workload: &spec,
	}
	r, err := Run(freshNode(t), p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Queries == 0 || r.Attainment <= 0 {
		t.Fatalf("degenerate spec-driven server report: %+v", r)
	}
}

// FindMaxRate over a step function must land on the knee and report a
// faithful probe trail.
func TestFindMaxRateConvergesOnKnee(t *testing.T) {
	const knee = 120.0
	calls := 0
	run := func(rate float64) (Report, error) {
		calls++
		att := 1.0
		if rate > knee {
			att = 0.5
		}
		return Report{Attainment: att, SLOMS: 10}, nil
	}
	res, err := FindMaxRate(run, 10, 10_000, 0.99, 12)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxRate < knee*0.98 || res.MaxRate > knee {
		t.Fatalf("max rate %.3f, want just under %.0f (probes %+v)", res.MaxRate, knee, res.Probes)
	}
	if len(res.Probes) != calls {
		t.Fatalf("probe trail has %d entries for %d calls", len(res.Probes), calls)
	}
	for _, pr := range res.Probes {
		if pr.Pass != (pr.Attainment >= 0.99) {
			t.Fatalf("probe verdict inconsistent: %+v", pr)
		}
	}

	// Infeasible floor: even lo fails.
	res, err = FindMaxRate(func(float64) (Report, error) {
		return Report{Attainment: 0}, nil
	}, 10, 100, 0.99, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxRate != 0 || len(res.Probes) != 1 {
		t.Fatalf("infeasible search should stop after the floor probe: %+v", res)
	}

	// Whole range passes: the cap is the answer.
	res, err = FindMaxRate(func(float64) (Report, error) {
		return Report{Attainment: 1}, nil
	}, 10, 100, 0.99, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxRate != 100 {
		t.Fatalf("max rate %.3f, want the cap 100", res.MaxRate)
	}
}

// The search composes with the real virtual Server scenario: a
// deterministic max-rate figure comes out, and probing is monotone
// enough to bracket.
func TestFindMaxRateVirtual(t *testing.T) {
	b := freshNode(t)
	p := baseParams()
	p.Kind = Server
	p.Queries = 48
	run := func(rate float64) (Report, error) {
		pp := p
		pp.TargetRate = rate
		return Run(b, pp)
	}
	res, err := FindMaxRate(run, 10, 1e6, 0.95, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxRate <= 0 {
		t.Fatalf("no sustainable rate found: %+v", res)
	}
	res2, err := FindMaxRate(run, 10, 1e6, 0.95, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxRate != res2.MaxRate {
		t.Fatalf("virtual search not deterministic: %.3f vs %.3f", res.MaxRate, res2.MaxRate)
	}
}

// ---- live mode ---------------------------------------------------------

func livePipeline(t testing.TB) *core.Pipeline {
	t.Helper()
	rep, err := templateScheduler(t).Replica(1)
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewPipeline(rep, core.PipelineConfig{
		Window: 200 * time.Microsecond, MaxBatch: 16, ProbeInterval: -1,
	})
	t.Cleanup(p.Close)
	return p
}

func liveCluster(t testing.TB, n int) *cluster.Cluster {
	t.Helper()
	c, _, err := cluster.Build(templateScheduler(t), n, 1,
		core.PipelineConfig{Window: 200 * time.Microsecond, MaxBatch: 16, ProbeInterval: -1},
		cluster.Config{Policy: cluster.LeastLoaded})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// checkLive asserts the live accounting identity: every offered query
// lands in exactly one of completed / dropped / expired / failed.
func checkLive(t *testing.T, r Report, offered int) {
	t.Helper()
	if got := r.Queries + r.Dropped + r.Expired + r.Failed; got != offered {
		t.Fatalf("%s on %s: %d+%d+%d+%d = %d accounted, offered %d",
			r.Scenario, r.Target, r.Queries, r.Dropped, r.Expired, r.Failed, got, offered)
	}
	if r.Queries == 0 {
		t.Fatalf("%s on %s: no query completed: %+v", r.Scenario, r.Target, r)
	}
}

// All four scenarios run end-to-end against a real single-node pipeline.
func TestLiveScenariosOnPipeline(t *testing.T) {
	target := LiveTarget{Name: "pipeline", Target: livePipeline(t)}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			p := baseParams()
			p.Kind = kind
			p.Queries = 48
			p.TargetRate = 300
			p.SLO = 250 * time.Millisecond
			r, err := RunLive(ctx, target, p, 20)
			if err != nil {
				t.Fatal(err)
			}
			checkLive(t, r, 48)
			if r.Target != "pipeline" {
				t.Fatalf("target %q, want pipeline", r.Target)
			}
		})
	}
}

// TestScenarioSmokeServerCluster is the CI smoke: the Server scenario
// offered open-loop to a live 4-node cluster under -race, with the
// full accounting identity and a sane attainment figure out the end.
func TestScenarioSmokeServerCluster(t *testing.T) {
	c := liveCluster(t, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	p := baseParams()
	p.Kind = Server
	p.Queries = 96
	p.TargetRate = 200
	p.SLO = 250 * time.Millisecond
	r, err := RunLive(ctx, LiveTarget{Name: "cluster:4", Target: c}, p, 10)
	if err != nil {
		t.Fatal(err)
	}
	checkLive(t, r, 96)
	if r.Attainment < 0.5 {
		t.Fatalf("cluster server attainment %.3f under a 250ms SLO: %+v", r.Attainment, r)
	}
	// The cluster spread work: more than one node served queries.
	if len(r.PerDevice) == 0 {
		t.Fatalf("no per-device accounting: %+v", r)
	}
}

// The remaining scenarios also run against the cluster tier.
func TestLiveScenariosOnCluster(t *testing.T) {
	c := liveCluster(t, 4)
	target := LiveTarget{Name: "cluster:4", Target: c}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, kind := range []Kind{SingleStream, MultiStream, Offline} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			p := baseParams()
			p.Kind = kind
			p.Queries = 32
			r, err := RunLive(ctx, target, p, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkLive(t, r, 32)
		})
	}
}

// An Offline live run on a model the target does not serve is a harness
// error, not a report with every query dropped.
func TestLiveOfflineUnknownModelErrors(t *testing.T) {
	p := baseParams()
	p.Kind = Offline
	p.Model = "no-such-model"
	p.Queries = 4
	target := LiveTarget{Name: "pipeline", Target: livePipeline(t)}
	if r, err := RunLive(context.Background(), target, p, 1); err == nil {
		t.Fatalf("unknown model gave a report: %+v", r)
	}
}
