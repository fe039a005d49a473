package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bomw/internal/models"
	"bomw/internal/nn"
	"bomw/internal/tensor"
	"bomw/internal/trace"
)

// smallScheduler builds a private scheduler quickly (coarse batch grid,
// one rep) for tests that need their own Config.
func smallScheduler(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	if cfg.TrainModels == nil {
		cfg.TrainModels = models.PaperModels()
	}
	if cfg.Batches == nil {
		cfg.Batches = []int{8, 512, 8192, 65536}
	}
	if cfg.Reps == 0 {
		cfg.Reps = 1
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range models.PaperModels() {
		if err := s.LoadModel(spec, 1); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func simpleSamples(n int) *tensor.Tensor {
	flat := make([]float32, n*4)
	for i := range flat {
		flat[i] = float32(i%7) * 0.25
	}
	return tensor.FromSlice(flat, n, 4)
}

func TestPipelineServesSingleRequest(t *testing.T) {
	s := testScheduler(t)
	p := NewPipeline(s, PipelineConfig{})
	defer p.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := p.Do(ctx, PipelineRequest{Model: "simple", Policy: LowestLatency, Input: simpleSamples(3)})
	if err != nil {
		t.Fatal(err)
	}
	if c.Err != nil {
		t.Fatal(c.Err)
	}
	if len(c.Classes) != 3 {
		t.Fatalf("classes = %v", c.Classes)
	}
	if c.Decision.Device == "" || c.BatchSize != 3 || c.EnergyJ <= 0 || c.Latency <= 0 {
		t.Fatalf("degenerate completion: %+v", c)
	}
	st := p.Stats()
	if st.Submitted != 1 || st.Completed != 1 || st.Shed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The single request found an idle system: the work-conserving
	// batcher must dispatch it immediately, not hold the window.
	if st.IdleFlushes != 1 {
		t.Fatalf("idle flushes = %d, want 1 (stats %+v)", st.IdleFlushes, st)
	}
}

func TestPipelineAggregatesConcurrentRequests(t *testing.T) {
	s := testScheduler(t)
	p := NewPipeline(s, PipelineConfig{Window: 50 * time.Millisecond, MaxBatch: 1024, HoldWindow: true})
	defer p.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sizes := []int{1, 2, 3, 4}
	futs := make([]*Future, len(sizes))
	for i, n := range sizes {
		fut, err := p.Submit(ctx, PipelineRequest{Model: "simple", Policy: BestThroughput, Input: simpleSamples(n)})
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = fut
	}
	total := 0
	for _, n := range sizes {
		total += n
	}
	var device string
	for i, fut := range futs {
		c, err := fut.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		if c.BatchSize != total {
			t.Fatalf("request %d served in batch of %d, want %d (aggregation failed)", i, c.BatchSize, total)
		}
		if len(c.Classes) != sizes[i] {
			t.Fatalf("request %d got %d classes, want %d", i, len(c.Classes), sizes[i])
		}
		if device == "" {
			device = c.Decision.Device
		} else if c.Decision.Device != device {
			t.Fatalf("batch split across devices: %s vs %s", c.Decision.Device, device)
		}
	}
	st := p.Stats()
	if st.Batches != 1 || st.WindowFlushes != 1 {
		t.Fatalf("stats = %+v, want one window-flushed batch", st)
	}

	// Two policies on one model share the window but never a batch:
	// aggregates are keyed by (model, policy), so each request is decided
	// under its own policy.
	p.Close()
	p = NewPipeline(s, PipelineConfig{Window: 50 * time.Millisecond, MaxBatch: 1024, HoldWindow: true})
	defer p.Close()
	pols := []Policy{LowestLatency, EnergyEfficiency}
	for i, pol := range pols {
		fut, err := p.Submit(ctx, PipelineRequest{Model: "simple", Policy: pol, Input: simpleSamples(2)})
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = fut
	}
	for i, fut := range futs[:len(pols)] {
		c, err := fut.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		if c.Decision.Policy != pols[i] || c.BatchSize != 2 {
			t.Fatalf("%v request served in a batch of %d decided under %v", pols[i], c.BatchSize, c.Decision.Policy)
		}
	}
	if st := p.Stats(); st.Batches != 2 {
		t.Fatalf("stats = %+v, want one batch per policy", st)
	}
}

func TestPipelineSizeTriggerFlushesEarly(t *testing.T) {
	s := testScheduler(t)
	p := NewPipeline(s, PipelineConfig{Window: time.Hour, MaxBatch: 4, HoldWindow: true})
	defer p.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	futs := make([]*Future, 4)
	for i := range futs {
		fut, err := p.Submit(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 1})
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = fut
	}
	for _, fut := range futs {
		c, err := fut.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		if c.BatchSize != 4 {
			t.Fatalf("batch size = %d, want 4", c.BatchSize)
		}
	}
	if st := p.Stats(); st.SizeFlushes != 1 {
		t.Fatalf("size flushes = %d (stats %+v)", st.SizeFlushes, st)
	}
}

func TestPipelineShedsWhenAdmissionFull(t *testing.T) {
	// Spilling off: every batch targets the classifier's first pick, so
	// one held worker backs the whole pipeline up deterministically.
	s := smallScheduler(t, Config{MaxQueueDelay: -1})
	release := make(chan struct{})
	p := NewPipeline(s, PipelineConfig{MaxBatch: 1, QueueDepth: 2, DeviceQueueDepth: 1})
	p.testExecHook = func(string) { <-release }

	ctx := context.Background()
	var futs []*Future
	shed := 0
	for i := 0; i < 20 && shed == 0; i++ {
		fut, err := p.Submit(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 8})
		switch {
		case errors.Is(err, ErrAdmissionFull):
			shed++
		case err != nil:
			t.Fatal(err)
		default:
			futs = append(futs, fut)
		}
	}
	if shed == 0 {
		t.Fatal("admission never filled: 20 submits accepted against a held pipeline")
	}
	close(release)
	p.Close()
	for i, fut := range futs {
		c, err := fut.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if c.Err != nil {
			t.Fatalf("accepted request %d failed: %v", i, c.Err)
		}
	}
	st := p.Stats()
	if st.Shed == 0 || st.Submitted != st.Completed {
		t.Fatalf("stats = %+v: accepted requests must all complete, sheds must be counted", st)
	}
}

func TestQueueDelayGrowsWithBacklog(t *testing.T) {
	// Spilling off: every batch targets the classifier's first pick, so
	// all backlog lands on one device queue deterministically.
	s := smallScheduler(t, Config{MaxQueueDelay: -1})
	gate := make(chan struct{}, 1024)
	p := NewPipeline(s, PipelineConfig{MaxBatch: 1, DeviceQueueDepth: 8})
	p.testExecHook = func(string) { <-gate }
	defer p.Close()

	ctx := context.Background()
	// Train the per-sample EWMA: completed batches teach the device
	// queue what a sample costs, which is what backlog is priced in.
	for i := 0; i < 5; i++ {
		gate <- struct{}{}
		if _, err := p.Do(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 64}); err != nil {
			t.Fatal(err)
		}
	}
	if d := p.QueueDelay(); d != 0 {
		t.Fatalf("idle QueueDelay = %v, want 0", d)
	}

	// Hold the workers and pile on batches: each flush charges its
	// device queue, so the backlog estimate — and with it the server's
	// Retry-After hint — must grow with saturation.
	var futs []*Future
	var last time.Duration
	for k := 0; k < 4; k++ {
		fut, err := p.Submit(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 64})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
		grown := false
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if d := p.QueueDelay(); d > last {
				last, grown = d, true
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
		if !grown {
			t.Fatalf("QueueDelay never rose above %v after backlogging batch %d", last, k+1)
		}
	}
	for i := 0; i < 64; i++ {
		gate <- struct{}{}
	}
	for i, fut := range futs {
		if c, err := fut.Wait(ctx); err != nil || c.Err != nil {
			t.Fatalf("backlogged request %d failed: %v / %v", i, err, c.Err)
		}
	}
}

func TestPipelineContextCancellation(t *testing.T) {
	s := testScheduler(t)
	p := NewPipeline(s, PipelineConfig{Window: time.Hour, MaxBatch: 1 << 20, HoldWindow: true})

	ctx, cancel := context.WithCancel(context.Background())
	fut, err := p.Submit(ctx, PipelineRequest{Model: "simple", Policy: LowestLatency, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := fut.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait after cancel = %v, want context.Canceled", err)
	}
	// Close drains the aggregate; the cancelled request must resolve
	// with its context error rather than execute.
	p.Close()
	c, err := fut.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(c.Err, context.Canceled) {
		t.Fatalf("completion error = %v, want context.Canceled", c.Err)
	}
	st := p.Stats()
	if st.Cancelled != 1 || st.Batches != 0 {
		t.Fatalf("stats = %+v: cancelled request must not dispatch a batch", st)
	}
}

func TestPipelineCloseRejectsNewWork(t *testing.T) {
	s := testScheduler(t)
	p := NewPipeline(s, PipelineConfig{})
	p.Close()
	if _, err := p.Submit(context.Background(), PipelineRequest{Model: "simple", Policy: BestThroughput, Batch: 1}); !errors.Is(err, ErrPipelineClosed) {
		t.Fatalf("Submit after Close = %v, want ErrPipelineClosed", err)
	}
	p.Close() // idempotent
}

func TestPipelineSubmitValidation(t *testing.T) {
	s := testScheduler(t)
	p := NewPipeline(s, PipelineConfig{})
	defer p.Close()
	ctx := context.Background()
	cases := []PipelineRequest{
		{Model: "no-such-model", Policy: BestThroughput, Batch: 1},
		{Model: "simple", Policy: BestThroughput, Batch: 0},
		{Model: "simple", Policy: Policy(99), Batch: 1},
		{Model: "simple", Policy: BestThroughput, Input: tensor.FromSlice([]float32{1, 2}, 1, 2)}, // wrong width
	}
	for i, req := range cases {
		if _, err := p.Submit(ctx, req); err == nil {
			t.Fatalf("case %d: invalid request admitted: %+v", i, req)
		}
	}
}

func TestPipelineOccupancyFeedsSpill(t *testing.T) {
	// The scheduler's spill adaptation must read the probe: a device
	// reported busy beyond MaxQueueDelay loses its first-ranked pick.
	s := testScheduler(t)
	base, err := s.Select("mnist-small", 4096, BestThroughput, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetQueueProbe(func(dev string) time.Duration {
		if dev == base.Device {
			return time.Second // far beyond the default 100 ms MaxQueueDelay
		}
		return 0
	})
	defer s.SetQueueProbe(nil)
	dec, err := s.Select("mnist-small", 4096, BestThroughput, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Device == base.Device || !dec.Spilled {
		t.Fatalf("decision ignored queue occupancy: %+v (first pick %s)", dec, base.Device)
	}
}

func TestPipelineTracksDeviceOccupancy(t *testing.T) {
	s := smallScheduler(t, Config{MaxQueueDelay: -1})
	release := make(chan struct{})
	p := NewPipeline(s, PipelineConfig{MaxBatch: 1, DeviceQueueDepth: 4})

	ctx := context.Background()
	// Establish a per-sample latency estimate with one completed batch.
	if _, err := p.Do(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 65536}); err != nil {
		t.Fatal(err)
	}
	dec, err := s.Select("mnist-small", 65536, BestThroughput, p.cfg.Clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	// Hold the workers and queue another large batch: its estimated
	// work must show up in the probe the scheduler reads.
	p.testExecHook = func(string) { <-release }
	fut, err := p.Submit(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 65536})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.probeQueue(dec.Device) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue occupancy for %s never became visible", dec.Device)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	p.Close()
	if c, err := fut.Wait(ctx); err != nil || c.Err != nil {
		t.Fatalf("queued batch failed: %v / %v", err, c.Err)
	}
	if got := p.probeQueue(dec.Device); got != 0 {
		t.Fatalf("occupancy not released after completion: %v", got)
	}
}

// TestPipelineConcurrentStress hammers the scheduler from every public
// angle at once — pipelined requests, direct Classify/Estimate calls,
// dynamic LoadModel, Stats/Select readers — and asserts no request is
// lost or duplicated. Run with -race (the Makefile verify target does).
func TestPipelineConcurrentStress(t *testing.T) {
	s := smallScheduler(t, Config{})
	p := NewPipeline(s, PipelineConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const (
		goroutines = 8
		perG       = 40
		loaders    = 4
	)
	var completions atomic.Int64
	var direct atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines+loaders)

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				switch i % 4 {
				case 0: // pipelined timing-only request
					c, err := p.Do(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 8})
					if err != nil || c.Err != nil {
						errCh <- fmt.Errorf("pipeline estimate: %v / %v", err, c.Err)
						return
					}
					completions.Add(1)
				case 1: // pipelined real classification
					n := 1 + i%3
					c, err := p.Do(ctx, PipelineRequest{Model: "simple", Policy: LowestLatency, Input: simpleSamples(n)})
					if err != nil || c.Err != nil {
						errCh <- fmt.Errorf("pipeline classify: %v / %v", err, c.Err)
						return
					}
					if len(c.Classes) != n {
						errCh <- fmt.Errorf("lost results: %d classes for %d samples", len(c.Classes), n)
						return
					}
					completions.Add(1)
				case 2: // direct synchronous path stays safe alongside
					if _, _, err := s.Classify("simple", simpleSamples(2), EnergyEfficiency, 0); err != nil {
						errCh <- fmt.Errorf("direct classify: %v", err)
						return
					}
					direct.Add(1)
				case 3: // readers
					_ = s.Stats()
					if _, err := s.Select("cifar-10", 64, BestThroughput, 0); err != nil {
						errCh <- fmt.Errorf("select: %v", err)
						return
					}
					direct.Add(1)
				}
			}
		}(g)
	}
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			spec := &nn.Spec{
				Name:       fmt.Sprintf("stress-ffnn-%d", l),
				Kind:       nn.FFNN,
				InputShape: []int{8},
				Hidden:     []int{16},
				Classes:    3,
				Act:        tensor.ReLU,
			}
			if err := s.LoadModel(spec, int64(l+2)); err != nil {
				errCh <- fmt.Errorf("load %s: %v", spec.Name, err)
			}
		}(l)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	p.Close()

	st := p.Stats()
	if st.Submitted != completions.Load() {
		t.Fatalf("lost or duplicated pipeline results: submitted %d, callers saw %d", st.Submitted, completions.Load())
	}
	if st.Completed != st.Submitted || st.Shed != 0 || st.InFlight != 0 {
		t.Fatalf("stats = %+v after drain", st)
	}
	// Every dynamically loaded model registered exactly once, listed in
	// sorted order.
	names := s.Dispatcher().Models()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Models() not sorted: %v", names)
	}
	seen := map[string]int{}
	for _, n := range names {
		seen[n]++
	}
	for l := 0; l < loaders; l++ {
		name := fmt.Sprintf("stress-ffnn-%d", l)
		if seen[name] != 1 {
			t.Fatalf("model %s registered %d times", name, seen[name])
		}
	}
	// No decision lost: the scheduler counted one decision per batch
	// plus one per direct call.
	sst := s.Stats()
	if int64(sst.Decisions) != st.Batches+direct.Load() {
		t.Fatalf("decisions = %d, want %d batches + %d direct", sst.Decisions, st.Batches, direct.Load())
	}
}

func TestPipelinePlayDrivesTrace(t *testing.T) {
	s := testScheduler(t)
	p := NewPipeline(s, PipelineConfig{})
	defer p.Close()

	tr, err := trace.Poisson(60, 300, []string{"simple", "mnist-small"}, []int{1, 8, 64}, 7)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := Play(ctx, p, tr, BestThroughput, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Requests + res.Dropped + res.Expired + res.Failed; got != len(tr) {
		t.Fatalf("requests %d + dropped %d + expired %d + failed %d ≠ trace %d",
			res.Requests, res.Dropped, res.Expired, res.Failed, len(tr))
	}
	if res.Failed != 0 {
		t.Fatalf("%d requests failed on a healthy pipeline", res.Failed)
	}
	if res.Requests == 0 {
		t.Fatal("every request was dropped")
	}
	perDevice := 0
	for _, n := range res.PerDevice {
		perDevice += n
	}
	if perDevice != res.Requests {
		t.Fatalf("per-device counts %d ≠ requests %d", perDevice, res.Requests)
	}
	if res.Makespan <= 0 || res.TotalSamples <= 0 || res.AvgLatency() <= 0 {
		t.Fatalf("degenerate replay: %+v", res)
	}
}

// A batch of one request is that request's tensor, not a copy of it;
// two requests are stacked in order, and the next stack of that
// per-sample shape reuses the header as well as the backing.
func TestConcatInputsPassesASingleRequestThrough(t *testing.T) {
	a, b := simpleSamples(3), simpleSamples(2)
	b.Data()[0] = 42
	one := &pipeReq{req: PipelineRequest{Input: a}, size: 3}
	two := &pipeReq{req: PipelineRequest{Input: b}, size: 2}
	var w batchWork
	if got := w.stackInputs([]*pipeReq{one}, 3); got != a {
		t.Error("a batch of one request was copied")
	}
	got := w.stackInputs([]*pipeReq{one, two}, 5)
	if got.Dim(0) != 5 || got.Dim(1) != 4 || got.At(3, 0) != 42 || got.At(0, 1) != a.At(0, 1) {
		t.Errorf("stacked batch = %v", got)
	}
	var again *tensor.Tensor
	if n := testing.AllocsPerRun(10, func() { again = w.stackInputs([]*pipeReq{two, one}, 5) }); n != 0 {
		t.Errorf("restacking allocates %v objects, want 0", n)
	}
	if again != got || again.Dim(0) != 5 || again.At(0, 0) != 42 || again.At(2, 1) != a.At(0, 1) {
		t.Errorf("restacked batch = %v, a new header: %v", again, again != got)
	}
	wide := &pipeReq{req: PipelineRequest{Input: tensor.New(1, 6)}, size: 1}
	if got := w.stackInputs([]*pipeReq{wide, wide}, 2); got.Dim(0) != 2 || got.Dim(1) != 6 {
		t.Errorf("a new per-sample shape stacked as %v", got.Shape())
	}
}

// A flush is counted with its batch, before a worker can see the batch:
// timing-only batches of one request resolve as fast as the host can run
// them, and with a device queue of one the batcher spends most of a
// round parked on that queue while the worker resolves what it has
// already handed over. Whenever every future of a round has resolved,
// each dispatched batch must already be on record under its trigger.
func TestFlushIsCountedBeforeItsBatchCanResolve(t *testing.T) {
	s := testScheduler(t)
	p := NewPipeline(s, PipelineConfig{MaxBatch: 1, DeviceQueueDepth: 1, Window: time.Hour, HoldWindow: true})
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	futs := make([]*Future, 32)
	for round := 0; round < 200; round++ {
		for i := range futs {
			fut, err := p.Submit(ctx, PipelineRequest{Model: "simple", Policy: BestThroughput, Batch: 1})
			if err != nil {
				t.Fatal(err)
			}
			futs[i] = fut
		}
		for _, fut := range futs {
			if _, err := fut.Wait(ctx); err != nil {
				t.Fatal(err)
			}
		}
		st := p.Stats()
		if flushes := st.SizeFlushes + st.WindowFlushes + st.IdleFlushes + st.DrainFlushes; flushes != st.Batches {
			t.Fatalf("round %d: every future resolved, %d batches dispatched, %d flushes on record (%+v)", round, st.Batches, flushes, st)
		}
	}
}

// One aggregation key may fill every admission slot: the admission queue
// is the pipeline's, not a share of it. Once admission is full for good
// (holdAndFill), the held worker, its queue and the batching loop hold
// DeviceQueueDepth+2 requests past the QueueDepth admitted ones — every
// one of them the same key's.
func TestOneKeyFillsEveryAdmissionSlot(t *testing.T) {
	s := smallScheduler(t, Config{MaxQueueDelay: -1})
	const queueDepth, deviceDepth = 16, 1
	p := NewPipeline(s, PipelineConfig{MaxBatch: 1, QueueDepth: queueDepth, DeviceQueueDepth: deviceDepth, ProbeInterval: -1})
	defer p.Close()
	futs, release := holdAndFill(t, p, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 8})
	defer release() // runs before Close: the held worker must let go
	const want = queueDepth + deviceDepth + 2
	if st := p.Stats(); st.Submitted != want || len(futs) != want {
		t.Fatalf("one key admitted %d (%d futures) before admission was full for good, want QueueDepth %d + %d held past it",
			st.Submitted, len(futs), queueDepth, deviceDepth+2)
	}
	if load := p.Load(); load != want {
		t.Errorf("Load = %d with admission full, want %d", load, want)
	}
	release()
	for i, fut := range futs {
		if c, err := fut.Wait(context.Background()); err != nil || c.Err != nil {
			t.Fatalf("accepted request %d: %v / %v", i, err, c.Err)
		}
	}
}

// A completion is on the ledger before it is delivered: once Wait has
// returned, Completed already counts the request. Each Do below is the
// only request in flight, so after it Completed must equal Submitted.
func TestCompletionIsCountedBeforeItIsDelivered(t *testing.T) {
	p := NewPipeline(testScheduler(t), PipelineConfig{ProbeInterval: -1})
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	uncounted := 0
	for i := 0; i < 2000; i++ {
		if _, err := p.Do(ctx, PipelineRequest{Model: "simple", Policy: BestThroughput, Batch: 1}); err != nil {
			t.Fatal(err)
		}
		if st := p.Stats(); st.Completed != st.Submitted {
			uncounted++
		}
	}
	if uncounted != 0 {
		t.Fatalf("%d of 2000 Waits returned before their completion was counted", uncounted)
	}
}
