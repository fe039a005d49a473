package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"bomw/internal/trace"
)

// Compile expands a spec into a single time-ordered trace on the virtual
// clock. Each client generates independently from its own seeded stream
// (derived from Spec.Seed and the client index, so adding a client never
// perturbs the others), then the per-client streams are merged and
// sorted by arrival time with a stable tie-break on client order.
//
// The sort is load-bearing, not cosmetic: every trace consumer —
// core.Play's paced replay, Summarize, RateOver's bucket indexing, the
// replay engines — validates or assumes monotonically ordered arrivals,
// and an interleaved multi-client merge is exactly the input that used
// to violate it. Compile owns the ordering so no caller can trip it.
func Compile(spec Spec) (trace.Trace, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	limit := MaxCompiledEvents
	if spec.MaxEvents > 0 && spec.MaxEvents < limit {
		limit = spec.MaxEvents
	}
	// Reject hopeless specs before generating: 4× the expected count at
	// peak rate still under the cap keeps honest heavy traffic compiling
	// while a mistyped rate fails fast.
	if expect := spec.expectedEvents(); expect > 4*float64(MaxCompiledEvents) {
		return nil, fmt.Errorf("%w: ≈%.0f expected events, cap %d", ErrTooManyEvents, expect, MaxCompiledEvents)
	}
	var all trace.Trace
	for ci, c := range spec.Clients {
		events, err := compileClient(spec, ci, c)
		if err != nil {
			return nil, err
		}
		all = append(all, events...)
		if len(all) > 4*MaxCompiledEvents {
			return nil, fmt.Errorf("%w: cap %d", ErrTooManyEvents, MaxCompiledEvents)
		}
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("%w: horizon %vs", ErrEmptyTrace, spec.HorizonS)
	}
	// Stable: same-instant arrivals keep client order, so the merge is
	// deterministic even on ties.
	sort.SliceStable(all, func(i, j int) bool { return all[i].At < all[j].At })
	if len(all) > limit {
		all = all[:limit]
	}
	return all, nil
}

// clientSeed derives a per-client seed from the spec seed. SplitMix-style
// mixing keeps neighbouring client indices uncorrelated.
func clientSeed(seed int64, idx int) int64 {
	z := uint64(seed) + uint64(idx+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// compileClient generates one client's arrivals over its active window.
// The envelope modulates the instantaneous rate: each unit-mean draw is
// divided by rate × factor(t), so valleys stretch gaps and bursts
// compress them.
func compileClient(spec Spec, ci int, c Client) (trace.Trace, error) {
	rng := rand.New(rand.NewSource(clientSeed(spec.Seed, ci)))
	draw := newSampler(c.Arrival)
	modelCum := cumulate(c.Models, func(m ModelMix) float64 { return m.Weight })
	batchCum := cumulate(c.Batches, func(b BatchMix) float64 { return b.Weight })
	start, stop := c.window(spec.HorizonS)
	var out trace.Trace
	t := start
	for {
		f := c.Envelope.factor(t - start)
		gap := draw(rng) / (c.Arrival.Rate * f)
		t += gap
		if t >= stop || math.IsNaN(t) {
			return out, nil
		}
		out = append(out, trace.Request{
			At:    time.Duration(t * float64(time.Second)),
			Model: c.Models[pick(rng, modelCum)].Model,
			Batch: c.Batches[pick(rng, batchCum)].Batch,
		})
		if len(out) > MaxCompiledEvents {
			return nil, fmt.Errorf("%w: client %d (%s) alone exceeds cap %d",
				ErrTooManyEvents, ci, c.label(ci), MaxCompiledEvents)
		}
	}
}
