package scenario

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"bomw/internal/core"
	"bomw/internal/trace"
	"bomw/internal/workload"
)

// Submitter is the live serving surface a scenario can drive. Both
// *core.Pipeline (one node) and *cluster.Cluster (the routing tier)
// satisfy it with their existing Submit methods.
type Submitter interface {
	Submit(ctx context.Context, req core.PipelineRequest) (*core.Future, error)
}

// LiveTarget names a Submitter for reports ("pipeline", "cluster:4").
type LiveTarget struct {
	Name   string
	Target Submitter
}

// noSLO opts live queries out of deadline enforcement in the scenarios
// whose metric is observed latency, not SLO attainment.
const noSLO = -1 * time.Nanosecond

// offlineWindow bounds outstanding Offline queries so the scenario
// applies backpressure instead of tripping admission control.
const offlineWindow = 64

// RunLive executes one scenario against a live pipeline or cluster.
// Arrivals for the Server scenario are paced in wall time by trace.Play
// at `speedup`× real time; latencies still come from the target's
// virtual clock. Live reports are statistical (concurrent batching is
// not deterministic) — byte-stable runs come from Run instead.
func RunLive(ctx context.Context, t LiveTarget, p Params, speedup float64) (Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if t.Target == nil {
		return Report{}, fmt.Errorf("scenario: live run needs a submit target")
	}
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return Report{}, err
	}
	switch p.Kind {
	case SingleStream, MultiStream:
		return runLiveStream(ctx, t, p)
	case Offline:
		return runLiveOffline(ctx, t, p)
	case Server:
		return runLiveServer(ctx, t, p, speedup)
	}
	return Report{}, fmt.Errorf("scenario: unknown scenario kind %q", p.Kind)
}

// record folds one live completion into the result and the
// dropped/expired/failed tallies. It returns true when the query
// completed successfully.
func record(res *core.ReplayResult, c core.Completion, samples int, expired, failed *int) bool {
	if c.Err != nil {
		if errors.Is(c.Err, core.ErrDeadlineExceeded) {
			*expired++
		} else {
			*failed++
		}
		return false
	}
	res.Add(1, samples, c.Latency, c.Completed, c.EnergyJ, c.Decision.Device)
	return true
}

func runLiveStream(ctx context.Context, t LiveTarget, p Params) (Report, error) {
	var res core.ReplayResult
	var expired, failed int
	for q := 0; q < p.Queries; q++ {
		fut, err := t.Target.Submit(ctx, core.PipelineRequest{
			Model: p.Model, Policy: p.Policy, Batch: p.Batch, Deadline: noSLO,
		})
		if err != nil {
			return Report{}, fmt.Errorf("scenario %s query %d: %w", p.Kind, q, err)
		}
		c, err := fut.Wait(ctx)
		if err != nil {
			return Report{}, fmt.Errorf("scenario %s query %d: %w", p.Kind, q, err)
		}
		record(&res, c, p.Batch, &expired, &failed)
	}
	r := report(res, p.Kind, t.Name, p)
	r.Expired, r.Failed = expired, failed
	return r, nil
}

// runLiveOffline keeps up to offlineWindow queries outstanding: enough
// concurrency for the batcher to aggregate, bounded so the backlog
// applies backpressure here instead of tripping admission control. A
// shed query (ErrAdmissionFull) waits for the oldest outstanding future
// and retries.
func runLiveOffline(ctx context.Context, t LiveTarget, p Params) (Report, error) {
	var res core.ReplayResult
	var expired, failed, dropped int
	var pending []*core.Future
	drainOne := func() error {
		c, err := pending[0].Wait(ctx)
		pending = pending[1:]
		if err != nil {
			return err
		}
		record(&res, c, p.Batch, &expired, &failed)
		return nil
	}
	for q := 0; q < p.Queries; q++ {
		for len(pending) >= offlineWindow {
			if err := drainOne(); err != nil {
				return Report{}, fmt.Errorf("scenario offline: %w", err)
			}
		}
		fut, err := t.Target.Submit(ctx, core.PipelineRequest{
			Model: p.Model, Policy: p.Policy, Batch: p.Batch, Deadline: noSLO,
		})
		if errors.Is(err, core.ErrAdmissionFull) && len(pending) > 0 {
			if derr := drainOne(); derr != nil {
				return Report{}, fmt.Errorf("scenario offline: %w", derr)
			}
			q--
			continue
		}
		if err != nil {
			dropped++
			continue
		}
		pending = append(pending, fut)
	}
	for len(pending) > 0 {
		if err := drainOne(); err != nil {
			return Report{}, fmt.Errorf("scenario offline: %w", err)
		}
	}
	r := report(res, Offline, t.Name, p)
	r.Dropped, r.Expired, r.Failed = dropped, expired, failed
	return r, nil
}

// runLiveServer offers the compiled arrival stream open-loop: trace.Play
// paces submissions in wall time, completions resolve concurrently, and
// every offered query lands in exactly one of completed / dropped /
// expired / failed. Queries carry Deadline = SLO, so admission control
// and deadline culling are in the measured path.
func runLiveServer(ctx context.Context, t LiveTarget, p Params, speedup float64) (Report, error) {
	spec, err := p.serverTrace()
	if err != nil {
		return Report{}, err
	}
	tr, err := workload.Compile(spec)
	if err != nil {
		return Report{}, fmt.Errorf("scenario server: compiling arrivals: %w", err)
	}
	if speedup <= 0 {
		speedup = 1
	}

	var res core.ReplayResult
	var mu sync.Mutex
	var wg sync.WaitGroup
	var expired, failed, dropped, inSLO int

	playCtx, stopPlay := context.WithCancel(ctx)
	defer stopPlay()
	var submitErr error
	for req := range trace.Play(playCtx, tr, speedup) {
		fut, err := t.Target.Submit(ctx, core.PipelineRequest{
			Model: req.Model, Policy: p.Policy, Batch: req.Batch, Deadline: p.SLO,
		})
		if err != nil {
			if isShed(err) {
				mu.Lock()
				dropped++
				mu.Unlock()
				continue
			}
			submitErr = err
			stopPlay()
			break
		}
		wg.Add(1)
		go func(samples int) {
			defer wg.Done()
			c, err := fut.Wait(ctx)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				failed++
				return
			}
			if record(&res, c, samples, &expired, &failed) && c.Latency <= p.SLO {
				inSLO++
			}
		}(req.Batch)
	}
	wg.Wait()
	if submitErr != nil {
		return Report{}, fmt.Errorf("scenario server: %w", submitErr)
	}

	r := report(res, Server, t.Name, p)
	r.Dropped, r.Expired, r.Failed = dropped, expired, failed
	r.TargetRate = round3(p.TargetRate)
	r.SLOMS = round3(float64(p.SLO) / float64(time.Millisecond))
	if len(tr) > 0 {
		r.Attainment = round3(float64(inSLO) / float64(len(tr)))
	}
	return r, nil
}

// isShed reports whether a submit error is load shedding (a counted
// miss) rather than a harness failure.
func isShed(err error) bool {
	return errors.Is(err, core.ErrAdmissionFull) || errors.Is(err, core.ErrDeadlineInfeasible)
}
