package core

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"bomw/internal/characterize"
	"bomw/internal/device"
	"bomw/internal/models"
	"bomw/internal/tensor"
	"bomw/internal/trace"
)

// sharedScheduler builds one fully trained scheduler for the whole test
// package (construction sweeps the full grid, ≈1 s).
var (
	schedOnce sync.Once
	sched     *Scheduler
	schedErr  error
)

func testScheduler(t *testing.T) *Scheduler {
	t.Helper()
	schedOnce.Do(func() {
		sched, schedErr = New(Config{TrainModels: models.AllModels()})
		if schedErr != nil {
			return
		}
		for _, spec := range models.PaperModels() {
			if err := sched.LoadModel(spec, 1); err != nil {
				schedErr = err
				return
			}
		}
	})
	if schedErr != nil {
		t.Fatal(schedErr)
	}
	sched.ResetDevices()
	return sched
}

func TestNewRequiresTrainModels(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without TrainModels accepted")
	}
}

func TestSchedulerConstruction(t *testing.T) {
	s := testScheduler(t)
	if len(s.Devices()) != 3 {
		t.Fatalf("devices = %v", s.Devices())
	}
	for _, pol := range characterize.Objectives() {
		if s.Classifier(pol) == nil {
			t.Fatalf("no classifier for %v", pol)
		}
	}
}

func TestDispatcherFigure2Cycle(t *testing.T) {
	s := testScheduler(t)
	d := s.Dispatcher()
	spec, err := d.Spec("simple")
	if err != nil || spec.Name != "simple" {
		t.Fatalf("Spec: %v", err)
	}
	net, err := d.Network("simple")
	if err != nil || net.Name() != "simple" {
		t.Fatalf("Network: %v", err)
	}
	// The Weights Building Module's buffer is written on demand and
	// carries the weights whole: read into a network drawn from another
	// seed, it makes that network answer as the loaded one does.
	w, err := d.WeightBytes("simple")
	if err != nil || int64(len(w)) <= net.ParamBytes() {
		t.Fatalf("WeightBytes: %v (%d bytes for %d of parameters)", err, len(w), net.ParamBytes())
	}
	other := spec.MustBuild(99)
	if err := other.ReadWeights(bytes.NewReader(w)); err != nil {
		t.Fatalf("reading the weight buffer back: %v", err)
	}
	in := simpleSamples(8)
	if !other.Forward(tensor.Serial, in).Equal(net.Forward(tensor.Serial, in)) {
		t.Fatal("a network restored from WeightBytes answers differently")
	}
	if len(d.Models()) != len(models.PaperModels()) {
		t.Fatalf("Models = %v", d.Models())
	}
	if _, err := d.Spec("nope"); err == nil {
		t.Fatal("unknown model spec accepted")
	}
	if _, err := d.Network("nope"); err == nil {
		t.Fatal("unknown model network accepted")
	}
	if _, err := d.WeightBytes("nope"); err == nil {
		t.Fatal("unknown model weights accepted")
	}
}

func TestSelectValidation(t *testing.T) {
	s := testScheduler(t)
	if _, err := s.Select("simple", 0, BestThroughput, 0); err == nil {
		t.Fatal("batch 0 accepted")
	}
	if _, err := s.Select("nope", 8, BestThroughput, 0); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := s.Select("simple", 8, Policy(99), 0); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// Select allocates the decision's feature vector and the forest's
// ranking and nothing else: the features are sized once, and the votes
// are tallied on the stack. The features are the descriptor's columns,
// then log2 of the batch and the GPU-warm flag, as the forest was
// trained on.
func TestSelectAllocatesItsFeaturesAndRankingOnly(t *testing.T) {
	s := testScheduler(t)
	s.ResetDevices()
	dec, err := s.Select("mnist-small", 4096, BestThroughput, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := s.disp.Spec("mnist-small")
	if err != nil {
		t.Fatal(err)
	}
	if want := append(spec.Descriptor().Features(), 12, 0); !slices.Equal(dec.Features, want) {
		t.Fatalf("features = %v, want %v", dec.Features, want)
	}
	n := testing.AllocsPerRun(100, func() {
		if _, err := s.Select("mnist-small", 4096, BestThroughput, 0); err != nil {
			t.Fatal(err)
		}
	})
	if n > 2 {
		t.Fatalf("Select allocates %.1f objects, want at most 2 (features and ranking)", n)
	}
}

func TestSelectSmallBatchPrefersHostSide(t *testing.T) {
	// Tiny batches of the tiny model never pay off on the discrete GPU:
	// the scheduler must keep them on the CPU or iGPU (Fig. 3a).
	s := testScheduler(t)
	dec, err := s.Select("simple", 2, LowestLatency, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Device == "GTX 1080 Ti" {
		t.Fatalf("batch-2 simple latency pick = %s, dGPU cannot win here", dec.Device)
	}
	if dec.GPUWarm {
		t.Fatal("fresh system should probe a cold GPU")
	}
	if dec.DecisionTime <= 0 {
		t.Fatal("decision time must be measured")
	}
}

func TestSelectLargeBatchWarmGPUPrefersDGPU(t *testing.T) {
	s := testScheduler(t)
	// Warm the discrete GPU, then ask for a heavy throughput job.
	for _, d := range s.cfg.Devices {
		if d.Profile().HasBoost {
			d.Warm(0)
		}
	}
	dec, err := s.Select("mnist-small", 65536, BestThroughput, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.GPUWarm {
		t.Fatal("probe should see the warmed GPU")
	}
	if dec.Device != "GTX 1080 Ti" {
		t.Fatalf("64K mnist-small throughput pick = %s, want the dGPU", dec.Device)
	}
}

func TestSelectEnergyPolicyAvoidsColdDGPUOnModest(t *testing.T) {
	s := testScheduler(t)
	dec, err := s.Select("mnist-small", 256, EnergyEfficiency, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Device == "GTX 1080 Ti" {
		t.Fatal("cold dGPU cannot be the energy pick for a modest batch (Fig. 4b)")
	}
}

func TestClassifyExecutesRealBatch(t *testing.T) {
	s := testScheduler(t)
	ds := models.Synthesize(models.Simple(), 32, 1)
	in := ds.Batch(0, 32)
	res, dec, err := s.Classify("simple", in, LowestLatency, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Classes) != 32 {
		t.Fatalf("classes = %d", len(res.Classes))
	}
	if res.Device != dec.Device {
		t.Fatal("result/decision device mismatch")
	}
	if res.Latency() <= 0 || res.EnergyJ <= 0 {
		t.Fatal("degenerate execution result")
	}
}

func TestEstimateAdvancesDeviceState(t *testing.T) {
	s := testScheduler(t)
	res, dec, err := s.Estimate("mnist-deep", 8192, BestThroughput, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range s.cfg.Devices {
		if d.Name() == dec.Device {
			if st := d.StateAt(res.Completed); st.BusyUntil != res.Completed {
				t.Fatalf("device busy horizon %v, want %v", st.BusyUntil, res.Completed)
			}
		}
	}
}

func TestOverloadSpillsToNextDevice(t *testing.T) {
	s := testScheduler(t)
	// Saturate the preferred device with a long queue, then submit again
	// at time zero: the scheduler must reroute.
	first, err := s.Select("mnist-small", 65536, BestThroughput, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := s.rt.Estimate(first.Device, "mnist-small", 65536, 0); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := s.Select("mnist-small", 65536, BestThroughput, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Device == first.Device {
		t.Fatal("scheduler did not spill off an overloaded device")
	}
	if !dec.Spilled {
		t.Fatal("spill not flagged")
	}
	if s.Stats().Spills == 0 {
		t.Fatal("spill not counted")
	}
}

func TestSpillDisabledNegativeThreshold(t *testing.T) {
	s, err := New(Config{
		TrainModels:   models.PaperModels(),
		Batches:       []int{8, 512, 8192},
		Reps:          1,
		MaxQueueDelay: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadModel(models.MnistSmall(), 1); err != nil {
		t.Fatal(err)
	}
	first, err := s.Select("mnist-small", 8192, BestThroughput, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := s.rt.Estimate(first.Device, "mnist-small", 8192, 0); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := s.Select("mnist-small", 8192, BestThroughput, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Device != first.Device || dec.Spilled {
		t.Fatal("spilling must be disabled with negative MaxQueueDelay")
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := testScheduler(t)
	before := s.Stats()
	if _, err := s.Select("simple", 8, LowestLatency, 0); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.Decisions != before.Decisions+1 {
		t.Fatalf("decisions %d → %d", before.Decisions, after.Decisions)
	}
	if after.PerPolicy[LowestLatency] != before.PerPolicy[LowestLatency]+1 {
		t.Fatal("per-policy count not incremented")
	}
}

// TestSchedulerCountersConcurrent is what stands where the stats lock
// stood: every Select path counts with atomics, so concurrent decisions
// lose no increment, the totals agree with each other, and a snapshot
// taken mid-run is never ahead of its own Decisions (a writer bumps
// decisions first, Stats reads it last). Run under -race by `make race`.
func TestSchedulerCountersConcurrent(t *testing.T) {
	s := testScheduler(t)
	const workers, perWorker = 8, 2000
	before := s.Stats()

	sumOf := func(m map[string]int) (n int) {
		for _, v := range m {
			n += v
		}
		return n
	}
	done := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() {
		defer snaps.Done()
		last := before.Decisions
		for {
			st := s.Stats()
			if per := sumOf(st.PerDevice); per > st.Decisions || st.Spills > st.Decisions {
				t.Errorf("torn snapshot: Σ per-device %d, spills %d, decisions %d", per, st.Spills, st.Decisions)
			}
			if st.Decisions < last {
				t.Errorf("decisions went backwards: %d after %d", st.Decisions, last)
			}
			last = st.Decisions
			select {
			case <-done:
				return
			default:
			}
		}
	}()

	exclude := map[string]bool{s.Devices()[0]: true}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				batch := 1 << uint((i+w)%12)
				pol := Policy(i % 3)
				var err error
				switch i % 4 {
				case 0:
					_, err = s.Select("simple", batch, pol, 0)
				case 1:
					_, err = s.SelectCached("mnist-small", batch, pol, 0)
				case 2:
					_, err = s.SelectExcluding("simple", batch, pol, 0, exclude)
				case 3:
					_, err = s.SelectWithDeadline("simple", batch, time.Second, 0)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	snaps.Wait()

	const calls, perKind = workers * perWorker, workers * perWorker / 4
	after := s.Stats()
	if got := after.Decisions - before.Decisions; got != calls {
		t.Fatalf("decisions grew by %d over %d calls", got, calls)
	}
	if got := sumOf(after.PerDevice) - sumOf(before.PerDevice); got != calls {
		t.Fatalf("Σ per-device grew by %d over %d calls", got, calls)
	}
	perPolicy := 0
	for pol, n := range after.PerPolicy {
		perPolicy += n - before.PerPolicy[pol]
	}
	if perPolicy != calls-perKind {
		t.Fatalf("Σ per-policy grew by %d, want %d: every decision but the %d deadline ones", perPolicy, calls-perKind, perKind)
	}
	if after.Spills > after.Decisions {
		t.Fatalf("spills %d > decisions %d", after.Spills, after.Decisions)
	}
	lookups := after.DecisionCacheHits + after.DecisionCacheMisses - before.DecisionCacheHits - before.DecisionCacheMisses
	if lookups != perKind {
		t.Fatalf("decision-cache hits+misses grew by %d over %d SelectCached calls", lookups, perKind)
	}
}

func TestPredictionAccuracyOnTrainedModels(t *testing.T) {
	// §VI headline: the scheduler predicts the optimal device with
	// ≈92.5% accuracy for models it has been trained on.
	s := testScheduler(t)
	sw := &characterize.Sweeper{Profiles: profilesOf(s), Noise: 0, Seed: 1}
	correct, total, loss := 0, 0, 0.0
	for _, spec := range models.PaperModels() {
		if err := errOrNil(s.disp.Spec(spec.Name)); err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{8, 64, 512, 4096, 32768, 262144} {
			for _, warm := range []bool{false, true} {
				cm, err := sw.MeasureConfig(spec, batch, warm, 0)
				if err != nil {
					t.Fatal(err)
				}
				feats := characterize.Features(spec.Descriptor(), batch, warm)
				pred := s.Classifier(BestThroughput).Predict(feats)
				total++
				if pred == cm.Best(characterize.BestThroughput) {
					correct++
				} else {
					loss += cm.LossVersusIdeal(characterize.BestThroughput, pred)
				}
			}
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.80 {
		t.Fatalf("trained-model device accuracy %.1f%%, paper reports 92.5%%", 100*acc)
	}
	if avg := loss / float64(total); avg > 0.10 {
		t.Fatalf("average throughput loss %.1f%%, paper reports <5%%", 100*avg)
	}
}

func TestPredictionAccuracyOnUnseenModels(t *testing.T) {
	// §VI: accuracy ≈91% for models never seen before (Fig. 6), with
	// <5% performance loss from wrong predictions.
	s := testScheduler(t)
	sw := &characterize.Sweeper{Profiles: profilesOf(s), Noise: 0, Seed: 1}
	correct, total, loss := 0, 0, 0.0
	for _, spec := range models.UnseenModels() {
		for _, batch := range []int{8, 64, 512, 4096, 32768, 262144} {
			for _, warm := range []bool{false, true} {
				cm, err := sw.MeasureConfig(spec, batch, warm, 0)
				if err != nil {
					t.Fatal(err)
				}
				feats := characterize.Features(spec.Descriptor(), batch, warm)
				pred := s.Classifier(BestThroughput).Predict(feats)
				total++
				if pred == cm.Best(characterize.BestThroughput) {
					correct++
				} else {
					loss += cm.LossVersusIdeal(characterize.BestThroughput, pred)
				}
			}
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.75 {
		t.Fatalf("unseen-model device accuracy %.1f%%, paper reports 91%%", 100*acc)
	}
	if avg := loss / float64(total); avg > 0.12 {
		t.Fatalf("average loss on unseen models %.1f%%, paper reports <5%%", 100*avg)
	}
}

func TestReplayPoissonTrace(t *testing.T) {
	s := testScheduler(t)
	tr, err := trace.Poisson(60, 100, []string{"simple", "mnist-small"}, []int{8, 512, 8192}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Replay(tr, BestThroughput)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 60 || res.TotalSamples != tr.TotalSamples() {
		t.Fatalf("replay accounting wrong: %+v", res)
	}
	if res.Makespan <= 0 || res.TotalEnergyJ <= 0 || res.AvgLatency() <= 0 {
		t.Fatalf("degenerate replay: %+v", res)
	}
	if res.SamplesPerSecond() <= 0 {
		t.Fatal("throughput must be positive")
	}
}

func TestAdaptiveBeatsWorstStaticAndApproachesBest(t *testing.T) {
	// The "best of many worlds" claim: across a mixed workload the
	// adaptive scheduler should be at least competitive with every
	// static single-device policy on its target metric.
	s := testScheduler(t)
	tr, err := trace.Poisson(80, 200, []string{"simple", "mnist-small", "mnist-cnn"}, []int{2, 64, 2048, 65536}, 2)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := s.Replay(tr, LowestLatency)
	if err != nil {
		t.Fatal(err)
	}
	var bestStatic, worstStatic time.Duration
	for i, dev := range s.Devices() {
		st, err := s.ReplayStatic(tr, dev)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 || st.SumLatency < bestStatic {
			bestStatic = st.SumLatency
		}
		if i == 0 || st.SumLatency > worstStatic {
			worstStatic = st.SumLatency
		}
	}
	if adaptive.SumLatency >= worstStatic {
		t.Fatalf("adaptive (%v) no better than the worst static policy (%v)", adaptive.SumLatency, worstStatic)
	}
	if float64(adaptive.SumLatency) > 1.5*float64(bestStatic) {
		t.Fatalf("adaptive (%v) not within 1.5x of the best static policy (%v)", adaptive.SumLatency, bestStatic)
	}
}

func TestEnergyPolicySavesEnergyVersusAlwaysDGPU(t *testing.T) {
	// §VI: "energy savings up to 10%" — under the energy policy the
	// scheduler must consume less than the always-most-powerful-device
	// baseline on a mixed load.
	s := testScheduler(t)
	tr, err := trace.Diurnal(120, 20, 400, 2*time.Second,
		[]string{"simple", "mnist-small", "mnist-cnn"}, []int{2, 32, 512, 8192}, 3)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := s.Replay(tr, EnergyEfficiency)
	if err != nil {
		t.Fatal(err)
	}
	dgpuOnly, err := s.ReplayStatic(tr, "GTX 1080 Ti")
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.TotalEnergyJ >= dgpuOnly.TotalEnergyJ {
		t.Fatalf("energy policy used %.1fJ, always-dGPU %.1fJ — no savings",
			adaptive.TotalEnergyJ, dgpuOnly.TotalEnergyJ)
	}
}

func TestOracleReplayIsBound(t *testing.T) {
	s := testScheduler(t)
	tr := trace.Sweep([]string{"simple"}, []int{8, 512, 8192}, 500*time.Millisecond)
	oracle, err := s.OracleReplay(tr, LowestLatency)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Requests != 3 {
		t.Fatalf("oracle requests = %d", oracle.Requests)
	}
	adaptive, err := s.Replay(tr, LowestLatency)
	if err != nil {
		t.Fatal(err)
	}
	// The oracle is an idealised bound; the adaptive scheduler should be
	// within a small factor of it on this easy trace.
	if float64(adaptive.SumLatency) > 2*float64(oracle.SumLatency) {
		t.Fatalf("adaptive %v much worse than oracle %v", adaptive.SumLatency, oracle.SumLatency)
	}
}

func TestReplayStaticUnknownDevice(t *testing.T) {
	s := testScheduler(t)
	if _, err := s.ReplayStatic(trace.Trace{{At: 0, Model: "simple", Batch: 8}}, "nope"); err == nil {
		t.Fatal("unknown static device accepted")
	}
}

func TestDeviceAgnosticCustomAccelerator(t *testing.T) {
	// The paper claims device-agnosticism (§V-A): adding an NPU-like
	// accelerator must require nothing but a profile.
	npu := device.New(device.Profile{
		Name: "toy NPU", Kind: device.Accelerator,
		PeakGFLOPS: 2000, ParallelWidth: 2048, WorkGroupSize: 128,
		PerItemNs: 0.05, PerGroupNs: 150, KernelLaunch: 20 * time.Microsecond,
		MemBandwidthGBs: 100, CacheBytes: 2 << 20, WeightReuse: 16,
		IdleWatts: 0.5, ActiveWatts: 6, HostWatts: 4,
	})
	devices := []*device.Device{device.New(device.IntelCoreI7_8700()), npu}
	s, err := New(Config{
		Devices:     devices,
		TrainModels: models.PaperModels(),
		Batches:     []int{8, 512, 8192, 65536},
		Reps:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadModel(models.MnistSmall(), 1); err != nil {
		t.Fatal(err)
	}
	dec, err := s.Select("mnist-small", 8192, EnergyEfficiency, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The efficient NPU should own the energy policy on real loads.
	if dec.Device != "toy NPU" {
		t.Fatalf("energy pick = %s, want the low-power NPU", dec.Device)
	}
	// Without any boosted device, probes report warm.
	if !dec.GPUWarm {
		t.Fatal("no-dGPU system should always probe warm")
	}
}

func profilesOf(s *Scheduler) []device.Profile {
	var out []device.Profile
	for _, d := range s.cfg.Devices {
		out = append(out, d.Profile())
	}
	return out
}

func errOrNil(_ interface{}, err error) error { return err }

func TestReplayPercentiles(t *testing.T) {
	s := testScheduler(t)
	tr, err := trace.Poisson(50, 100, []string{"simple", "mnist-small"}, []int{8, 8192}, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Replay(tr, LowestLatency)
	if err != nil {
		t.Fatal(err)
	}
	p50 := res.Percentile(50)
	p99 := res.Percentile(99)
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("percentiles out of order: p50=%v p99=%v", p50, p99)
	}
	if res.Percentile(100) != res.MaxLatency {
		t.Fatalf("p100 %v != max %v", res.Percentile(100), res.MaxLatency)
	}
	if res.Percentile(-5) != res.Percentile(0) {
		t.Fatal("negative percentile not clamped")
	}
	if (ReplayResult{}).Percentile(50) != 0 {
		t.Fatal("empty result percentile should be 0")
	}
}

func TestSchedulerRobustAcrossSeeds(t *testing.T) {
	// The reproduction must not hinge on one lucky seed: schedulers
	// trained with different seeds should all predict well on the paper
	// models.
	if testing.Short() {
		t.Skip("multi-seed training is slow")
	}
	for _, seed := range []int64{2, 3} {
		s, err := New(Config{TrainModels: models.AllModels(), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		sw := &characterize.Sweeper{Profiles: profilesOf(s), Noise: 0, Seed: seed}
		correct, total := 0, 0
		for _, spec := range models.PaperModels() {
			for _, batch := range []int{8, 512, 32768} {
				for _, warm := range []bool{false, true} {
					cm, err := sw.MeasureConfig(spec, batch, warm, 0)
					if err != nil {
						t.Fatal(err)
					}
					feats := characterize.Features(spec.Descriptor(), batch, warm)
					if s.Classifier(BestThroughput).Predict(feats) == cm.Best(characterize.BestThroughput) {
						correct++
					}
					total++
				}
			}
		}
		if acc := float64(correct) / float64(total); acc < 0.75 {
			t.Fatalf("seed %d: accuracy %.2f, training is seed-fragile", seed, acc)
		}
	}
}

func TestMultipleDiscreteGPUs(t *testing.T) {
	// Device-agnostic scaling: two dGPU instances are just two classes;
	// the overload spill must balance across them.
	gpu2 := device.NvidiaGTX1080Ti()
	gpu2.Name = "GTX 1080 Ti #2"
	devices := []*device.Device{
		device.New(device.IntelCoreI7_8700()),
		device.New(device.NvidiaGTX1080Ti()),
		device.New(gpu2),
	}
	s, err := New(Config{
		Devices:     devices,
		TrainModels: models.PaperModels(),
		Batches:     []int{512, 8192, 65536},
		Reps:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadModel(models.MnistSmall(), 1); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Poisson(60, 500, []string{"mnist-small"}, []int{32768, 65536}, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Replay(tr, BestThroughput)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerDevice["GTX 1080 Ti"] == 0 || res.PerDevice["GTX 1080 Ti #2"] == 0 {
		t.Fatalf("load did not spread across both dGPUs: %v", res.PerDevice)
	}
}

func TestProbeSeesCooldownTransitions(t *testing.T) {
	// The per-decision PCIe probe must track the Boost state machine:
	// warm right after heavy work, cold again after the cooldown.
	s := testScheduler(t)
	res, _, err := s.Estimate("mnist-deep", 262144, BestThroughput, 0)
	if err != nil {
		t.Fatal(err)
	}
	var gpuBusy time.Duration
	for _, d := range s.cfg.Devices {
		if d.Profile().HasBoost {
			gpuBusy = d.StateAt(res.Completed).BusyUntil
			// Ensure the dGPU actually worked; if the scheduler picked
			// another device, warm it directly.
			if !d.StateAt(res.Completed).Warm {
				d.Warm(res.Completed)
			}
		}
	}
	_ = gpuBusy
	justAfter, err := s.Select("mnist-small", 64, LowestLatency, res.Completed)
	if err != nil {
		t.Fatal(err)
	}
	if !justAfter.GPUWarm {
		t.Fatal("probe should see a warm GPU right after heavy work")
	}
	muchLater, err := s.Select("mnist-small", 64, LowestLatency, res.Completed+time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if muchLater.GPUWarm {
		t.Fatal("probe should see a cold GPU after a minute idle")
	}
}

func TestStringRenderers(t *testing.T) {
	d := Decision{Model: "m", Batch: 64, Policy: LowestLatency, Device: "cpu", GPUWarm: true, Spilled: true}
	s := d.String()
	for _, want := range []string{"m×64", "lowest-latency", "cpu", "warm", "[spilled]"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Decision.String() = %q missing %q", s, want)
		}
	}
	r := ReplayResult{Requests: 3, TotalSamples: 30, Makespan: time.Second,
		SumLatency: 3 * time.Millisecond, MaxLatency: 2 * time.Millisecond,
		TotalEnergyJ: 1.5, Spills: 1,
		PerDevice: map[string]int{"b": 1, "a": 2}}
	r.Add(0, 0, time.Millisecond, 0, 0, "")
	rs := r.String()
	for _, want := range []string{"3 requests", "30 samples", "1.5 J", "1 spills", "a:2 b:1"} {
		if !strings.Contains(rs, want) {
			t.Fatalf("ReplayResult.String() = %q missing %q", rs, want)
		}
	}
	st := Stats{Decisions: 5, Spills: 2, PerDevice: map[string]int{"x": 5}}
	if got := st.String(); !strings.Contains(got, "5 decisions (2 spills)") || !strings.Contains(got, "x:5") {
		t.Fatalf("Stats.String() = %q", got)
	}
}
