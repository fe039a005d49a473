package scenario

import (
	"context"
	"errors"
	"fmt"
	"time"

	"bomw/internal/core"
	"bomw/internal/workload"
)

// LiveTarget names a core.Submitter for reports ("pipeline",
// "cluster:4").
type LiveTarget struct {
	Name   string
	Target core.Submitter
}

// noSLO opts live queries out of deadline enforcement in the scenarios
// whose metric is observed latency, not SLO attainment.
const noSLO = -1 * time.Nanosecond

// offlineWindow bounds outstanding Offline queries so the scenario
// applies backpressure instead of tripping admission control.
const offlineWindow = 64

// RunLive executes one scenario against a live pipeline or cluster.
// Arrivals for the Server scenario are paced in wall time by core.Play
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

func runLiveStream(ctx context.Context, t LiveTarget, p Params) (Report, error) {
	var res core.ReplayResult
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
		res.Record(c, p.Batch)
	}
	return report(res, p.Kind, t.Name, p), nil
}

// runLiveOffline keeps up to offlineWindow queries outstanding: enough
// concurrency for the batcher to aggregate, bounded so the backlog
// applies backpressure here instead of tripping admission control. A
// shed query (ErrAdmissionFull) waits for the oldest outstanding future
// and retries; one shed with nothing outstanding is dropped.
func runLiveOffline(ctx context.Context, t LiveTarget, p Params) (Report, error) {
	var res core.ReplayResult
	var pending []*core.Future
	drainOne := func() error {
		c, err := pending[0].Wait(ctx)
		pending = pending[1:]
		if err != nil {
			return err
		}
		res.Record(c, p.Batch)
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
			if !core.IsShed(err) {
				return Report{}, fmt.Errorf("scenario offline query %d: %w", q, err)
			}
			res.Record(core.Completion{Err: err}, p.Batch)
			continue
		}
		pending = append(pending, fut)
	}
	for len(pending) > 0 {
		if err := drainOne(); err != nil {
			return Report{}, fmt.Errorf("scenario offline: %w", err)
		}
	}
	return report(res, Offline, t.Name, p), nil
}

// runLiveServer offers the compiled arrival stream open-loop through
// core.Play: every offered query lands in exactly one of completed /
// dropped / expired / failed. Queries carry Deadline = SLO, so admission
// control and deadline culling are in the measured path.
func runLiveServer(ctx context.Context, t LiveTarget, p Params, speedup float64) (Report, error) {
	spec, err := p.serverTrace()
	if err != nil {
		return Report{}, err
	}
	tr, err := workload.Compile(spec)
	if err != nil {
		return Report{}, fmt.Errorf("scenario server: compiling arrivals: %w", err)
	}
	res, err := core.Play(ctx, t.Target, tr, p.Policy, p.SLO, speedup)
	if err != nil {
		return Report{}, fmt.Errorf("scenario server: %w", err)
	}
	return serverReport(res, t.Name, p, len(tr)), nil
}
