package core

import (
	"fmt"
	"sort"
	"time"

	"bomw/internal/trace"
)

// Batcher is a dynamic batching frontend for the scheduler. The paper's
// characterisation (§IV-C) shows batch size is the decisive scheduling
// variable: single samples favour the CPU, large batches the discrete
// GPU. A serving system therefore aggregates arriving requests per model
// into batches before dispatch, trading queueing delay for device
// efficiency — this type implements that accumulation over virtual time.
type Batcher struct {
	// Window is the maximum time the first sample of a batch may wait
	// before the batch is flushed.
	Window time.Duration
	// MaxBatch flushes a batch as soon as it reaches this many samples.
	MaxBatch int
}

// Batch is one aggregated dispatch unit.
type Batch struct {
	Model   string
	Size    int
	FirstAt time.Duration // arrival of the oldest aggregated sample
	FlushAt time.Duration // when the batch was released to the scheduler
	// Requests counts the aggregated requests attributed to this batch.
	// A request split across batches (its Batch exceeded the remaining
	// MaxBatch capacity) counts toward the first batch it landed in, so
	// summing Requests over all batches equals the trace length.
	Requests int
}

// Wait returns the aggregation delay the oldest sample paid.
func (b Batch) Wait() time.Duration { return b.FlushAt - b.FirstAt }

// Aggregate folds a request trace into dispatch batches per model. The
// input must be time-ordered (as all trace generators produce).
func (b *Batcher) Aggregate(tr trace.Trace) ([]Batch, error) {
	if b.Window <= 0 || b.MaxBatch <= 0 {
		return nil, fmt.Errorf("core: batcher needs positive Window and MaxBatch")
	}
	type pending struct {
		size     int
		firstAt  time.Duration
		requests int
	}
	open := map[string]*pending{}
	var out []Batch

	flush := func(model string, at time.Duration) {
		p := open[model]
		if p == nil || p.size == 0 {
			return
		}
		out = append(out, Batch{
			Model:    model,
			Size:     p.size,
			FirstAt:  p.firstAt,
			FlushAt:  at,
			Requests: p.requests,
		})
		delete(open, model)
	}

	var prev time.Duration
	for i, req := range tr {
		if req.At < prev {
			return nil, fmt.Errorf("core: batcher input out of order at request %d", i)
		}
		prev = req.At
		// Flush any batch whose window expired before this arrival.
		for model, p := range open {
			if req.At >= p.firstAt+b.Window {
				flush(model, p.firstAt+b.Window)
			}
		}
		p := open[req.Model]
		if p == nil {
			p = &pending{firstAt: req.At}
			open[req.Model] = p
		}
		p.size += req.Batch
		p.requests++
		// Emit at most MaxBatch samples per batch. A request larger than
		// the remaining capacity is split: full MaxBatch slices flush now
		// and the remainder opens a fresh pending batch anchored at this
		// arrival, so no emitted batch ever exceeds MaxBatch. The split
		// request counts toward the first batch it lands in only, keeping
		// sum(Requests) equal to the trace length.
		for p.size >= b.MaxBatch {
			out = append(out, Batch{
				Model:    req.Model,
				Size:     b.MaxBatch,
				FirstAt:  p.firstAt,
				FlushAt:  req.At,
				Requests: p.requests,
			})
			rest := p.size - b.MaxBatch
			delete(open, req.Model)
			if rest == 0 {
				break
			}
			p = &pending{size: rest, firstAt: req.At}
			open[req.Model] = p
		}
	}
	// Flush stragglers at their window boundary.
	for model, p := range open {
		flush(model, p.firstAt+b.Window)
	}
	// Restore dispatch order (map iteration scrambled the tail).
	sortBatches(out)
	return out, nil
}

// sortBatches restores dispatch order by FlushAt. Stability matters:
// batches flushed at the same instant (a size trigger splitting one
// oversized request, or two models' windows expiring together) must
// keep their emission order. The previous insertion sort was stable too
// but quadratic — minutes of host time on a 1M-event trace — so this is
// sort.SliceStable (O(n log n)), guarded by a large-trace test.
func sortBatches(bs []Batch) {
	sort.SliceStable(bs, func(i, j int) bool { return bs[i].FlushAt < bs[j].FlushAt })
}

// ReplayBatched aggregates the trace through the batcher and replays the
// resulting batches under a policy. The reported latency of each batch
// includes the aggregation wait of its oldest sample, so the
// batching-versus-latency trade-off is visible end to end.
func (s *Scheduler) ReplayBatched(tr trace.Trace, b *Batcher, pol Policy) (ReplayResult, error) {
	batches, err := b.Aggregate(tr)
	if err != nil {
		return ReplayResult{}, err
	}
	s.ResetDevices()
	res := ReplayResult{PerDevice: map[string]int{}}
	for _, batch := range batches {
		out, dec, err := s.Estimate(batch.Model, batch.Size, pol, batch.FlushAt)
		if err != nil {
			return ReplayResult{}, fmt.Errorf("core: batched replay at %v: %w", batch.FlushAt, err)
		}
		res.Add(batch.Requests, batch.Size, batch.Wait()+out.Latency(), out.Completed, out.EnergyJ, dec.Device)
	}
	return res, nil
}
