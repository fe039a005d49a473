package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"bomw/internal/device"
	"bomw/internal/opencl"
	"bomw/internal/trace"
)

// ReplayResult is the ledger every replay fills, offline or live: each
// offered request lands in exactly one of Requests, Dropped, Expired and
// Failed. Offline replays (Scheduler.Replay, the scenario harness's
// virtual runs) admit and complete everything, so only live runs —
// Play and the scenario harness's RunLive, through Record — fill the
// other three.
type ReplayResult struct {
	Requests     int // completed successfully
	TotalSamples int64
	Makespan     time.Duration // completion of the last request
	TotalEnergyJ float64
	SumLatency   time.Duration
	MaxLatency   time.Duration
	PerDevice    map[string]int
	Spills       int
	// Dropped counts requests shed at admission (ErrAdmissionFull,
	// ErrDeadlineInfeasible).
	Dropped int
	// Expired counts admitted requests culled because their SLO passed
	// before execution (ErrDeadlineExceeded).
	Expired int
	// Failed counts admitted requests that resolved with any other error,
	// or whose wait was abandoned.
	Failed    int
	latencies []time.Duration
}

// AvgLatency returns the mean request latency.
func (r ReplayResult) AvgLatency() time.Duration {
	if r.Requests == 0 {
		return 0
	}
	return r.SumLatency / time.Duration(r.Requests)
}

// Percentile returns the p-th latency percentile (p in [0,100]); tail
// latency is what the paper's latency policy protects.
func (r ReplayResult) Percentile(p float64) time.Duration {
	if len(r.latencies) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := append([]time.Duration(nil), r.latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// Add folds one execution into the aggregate: the requests it served
// (one, or every request a batch aggregated), its samples and energy,
// its latency (sum, max and the percentile population), the makespan
// it may extend and the device it ran on ("" when the backend does not
// say). Every replay loop and the scenario harness account through it.
func (r *ReplayResult) Add(requests, samples int, lat, completed time.Duration, energyJ float64, device string) {
	r.Requests += requests
	r.TotalSamples += int64(samples)
	r.TotalEnergyJ += energyJ
	r.SumLatency += lat
	if lat > r.MaxLatency {
		r.MaxLatency = lat
	}
	r.latencies = append(r.latencies, lat)
	if completed > r.Makespan {
		r.Makespan = completed
	}
	if device != "" {
		if r.PerDevice == nil {
			r.PerDevice = map[string]int{}
		}
		r.PerDevice[device] += requests
	}
}

// Record folds one live outcome into the ledger: a completion through
// Add, a shed Submit (carried as Completion{Err: err}) into Dropped, a
// deadline cull into Expired and any other error into Failed.
func (r *ReplayResult) Record(c Completion, samples int) {
	switch {
	case c.Err == nil:
		r.Add(1, samples, c.Latency, c.Completed, c.EnergyJ, c.Decision.Device)
	case IsShed(c.Err):
		r.Dropped++
	case errors.Is(c.Err, ErrDeadlineExceeded):
		r.Expired++
	default:
		r.Failed++
	}
}

// WithinSLO counts the recorded latencies at or under slo: the numerator
// of a Server run's SLO attainment.
func (r ReplayResult) WithinSLO(slo time.Duration) int {
	n := 0
	for _, lat := range r.latencies {
		if lat <= slo {
			n++
		}
	}
	return n
}

// IsShed reports whether a Submit error is load shedding — a counted
// miss the caller may retry — rather than a failure.
func IsShed(err error) bool {
	return errors.Is(err, ErrAdmissionFull) || errors.Is(err, ErrDeadlineInfeasible)
}

// Submitter is the live serving surface an open loop drives: *Pipeline,
// *Node and *cluster.Cluster satisfy it with their Submit methods.
type Submitter interface {
	Submit(ctx context.Context, req PipelineRequest) (*Future, error)
}

// Play drives a request trace open-loop through a live target: each
// arrival waits for its time on a WallClock started at the call,
// compressed by speedup (100 plays a 10 s trace in 0.1 s; values ≤ 0
// play in real time), and is submitted timing-only under pol with the
// given Deadline (0: the target's default SLO, negative: none); every
// completion is waited for concurrently and recorded. A slow Submit
// delays the arrivals behind it, as a real ingest socket would. Unlike
// Scheduler.Replay the requests flow through admission, live batching
// and the device queues, and devices are not reset: Play observes the
// system as it is, like live traffic. A Submit error other than shedding
// stops playback and is returned once every admitted request resolved;
// so is the error of a ctx that ends playback early.
func Play(ctx context.Context, target Submitter, tr trace.Trace, pol Policy, deadline time.Duration, speedup float64) (ReplayResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if speedup <= 0 {
		speedup = 1
	}
	var res ReplayResult
	var mu sync.Mutex
	var wg sync.WaitGroup
	record := func(c Completion, samples int) {
		mu.Lock()
		res.Record(c, samples)
		mu.Unlock()
	}
	clk := WallClock()
	due := make(chan struct{}, 1)
	var timer Timer
	var submitErr error
play:
	for _, req := range tr {
		if wait := time.Duration(float64(req.At)/speedup) - clk.Now(); wait > 0 {
			if timer == nil {
				timer = clk.AfterFunc(wait, func() { due <- struct{}{} })
				defer timer.Stop() // once: later waits Reset this timer
			} else {
				timer.Reset(wait)
			}
			select {
			case <-due:
			case <-ctx.Done():
				break play
			}
		}
		fut, err := target.Submit(ctx, PipelineRequest{Model: req.Model, Policy: pol, Batch: req.Batch, Deadline: deadline})
		if err != nil {
			if IsShed(err) {
				record(Completion{Err: err}, req.Batch)
				continue
			}
			// Stop playback but do NOT return yet: completions of
			// already-submitted requests are still being recorded.
			submitErr = err
			break
		}
		wg.Add(1)
		go func(samples int) {
			defer wg.Done()
			c, err := fut.Wait(ctx)
			if err != nil {
				c.Err = err
			}
			record(c, samples)
		}(req.Batch)
	}
	wg.Wait() // every submitted future has resolved past this point
	if submitErr != nil {
		return ReplayResult{}, submitErr
	}
	if err := ctx.Err(); err != nil {
		return ReplayResult{}, err
	}
	return res, nil
}

// SamplesPerSecond returns sustained throughput over the makespan.
func (r ReplayResult) SamplesPerSecond() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.TotalSamples) / r.Makespan.Seconds()
}

// ResetDevices returns every scheduled device to a cold, idle state and
// clears the health monitor; replays call it to start from a clean
// system.
func (s *Scheduler) ResetDevices() {
	for _, d := range s.devices {
		d.Reset()
	}
	s.health.reset()
	s.invalidateDecisions()
}

// Replay feeds a request trace through the scheduler under one policy
// (timing-only execution) and aggregates the outcome. Devices are reset
// first so runs are comparable.
func (s *Scheduler) Replay(tr trace.Trace, pol Policy) (ReplayResult, error) {
	s.ResetDevices()
	res := ReplayResult{PerDevice: map[string]int{}}
	before := s.Stats().Spills
	for _, req := range tr {
		out, dec, err := s.Estimate(req.Model, req.Batch, pol, req.At)
		if err != nil {
			return ReplayResult{}, fmt.Errorf("core: replay at %v: %w", req.At, err)
		}
		if err := s.Observe(dec, out); err != nil {
			return ReplayResult{}, err
		}
		res.Add(1, req.Batch, out.Latency(), out.Completed, out.EnergyJ, dec.Device)
	}
	res.Spills = s.Stats().Spills - before
	return res, nil
}

// ReplayStatic replays the trace pinning every request to one device —
// the "always use device X" baselines the paper's adaptive scheduler is
// compared against (e.g. always-dGPU, the most powerful device).
func (s *Scheduler) ReplayStatic(tr trace.Trace, devName string) (ReplayResult, error) {
	s.ResetDevices()
	found := false
	for _, d := range s.devices {
		if d.Name() == devName {
			found = true
			break
		}
	}
	if !found {
		return ReplayResult{}, fmt.Errorf("core: unknown device %q", devName)
	}
	res := ReplayResult{PerDevice: map[string]int{devName: 0}}
	for _, req := range tr {
		out, err := s.rt.Estimate(devName, req.Model, req.Batch, req.At)
		if err != nil {
			return ReplayResult{}, fmt.Errorf("core: static replay at %v: %w", req.At, err)
		}
		res.Add(1, req.Batch, out.Latency(), out.Completed, out.EnergyJ, devName)
	}
	return res, nil
}

// OracleReplay replays the trace with a clairvoyant selector that tries
// every device (on shadow state) and keeps the best under the policy —
// the "ideal" bars of Fig. 6. It is quadratic in devices and meant for
// evaluation only.
func (s *Scheduler) OracleReplay(tr trace.Trace, pol Policy) (ReplayResult, error) {
	s.ResetDevices()
	res := ReplayResult{PerDevice: map[string]int{}}
	for _, req := range tr {
		bestName := ""
		var best shadowCost
		// Each device's memoised uncontended cost from its warm state: an
		// idealised (queue-free) bound, measured without touching live
		// state.
		for _, d := range s.devices {
			c, err := s.shadowCost(d.Name(), req.Model, req.Batch, 0)
			if err != nil {
				return ReplayResult{}, err
			}
			if bestName == "" || betterCost(pol, c, best) {
				best, bestName = c, d.Name()
			}
		}
		out, err := s.rt.Estimate(bestName, req.Model, req.Batch, req.At)
		if err != nil {
			return ReplayResult{}, err
		}
		res.Add(1, req.Batch, out.Latency(), out.Completed, out.EnergyJ, bestName)
	}
	return res, nil
}

// shadowEstimate measures one request on a fresh copy of the named
// device, mirroring its current warm state, without touching live state.
func (s *Scheduler) shadowEstimate(devName, model string, batch int, at time.Duration) (*opencl.Result, error) {
	var live *device.Device
	for _, d := range s.devices {
		if d.Name() == devName {
			live = d
			break
		}
	}
	if live == nil {
		return nil, fmt.Errorf("core: unknown device %q", devName)
	}
	shadow := device.New(live.Profile())
	if live.StateAt(at).Warm {
		shadow.Warm(0)
	}
	rt, err := opencl.NewRuntime(shadow)
	if err != nil {
		return nil, err
	}
	net, err := s.disp.Network(model)
	if err != nil {
		return nil, err
	}
	if err := rt.LoadModel(net); err != nil {
		return nil, err
	}
	return rt.Estimate(devName, model, batch, 0)
}

func betterCost(pol Policy, a, b shadowCost) bool {
	switch pol {
	case EnergyEfficiency:
		return a.energy < b.energy
	default: // throughput and latency both favour faster completion here
		return a.latency < b.latency
	}
}
