package scenario

import (
	"testing"
	"time"

	"bomw/internal/core"
)

// population builds the ReplayResult a scenario would have accumulated
// from these latencies.
func population(lats ...time.Duration) core.ReplayResult {
	var res core.ReplayResult
	for _, l := range lats {
		res.Add(1, 1, l, l, 0, "")
	}
	return res
}

func TestPercentileEdgeValues(t *testing.T) {
	// Pin the convention (idx = ceil(p/100·n)−1 on the sorted
	// population) that replay summaries and scenario reports share: a
	// single sample answers every percentile, p=0 is the minimum, p=100
	// the maximum, and out-of-range p clamps.
	one := population(42 * time.Millisecond)
	for _, q := range []float64{0, 50, 100} {
		if got := one.Percentile(q); got != 42*time.Millisecond {
			t.Errorf("n=1 p%v = %v, want %v", q, got, 42*time.Millisecond)
		}
	}

	lats := []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}
	multi := population(lats...)
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{
		{0, lats[1]},   // the minimum
		{50, lats[2]},  // ceil(1.5)−1 = 1 of the sorted three
		{100, lats[0]}, // the maximum
		{-5, lats[1]},  // clamps to p0
		{250, lats[0]}, // clamps to p100
	} {
		if got := multi.Percentile(c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := population().Percentile(50); got != 0 {
		t.Errorf("empty population p50 = %v, want 0", got)
	}

	// The report reads the same function.
	rep := report(multi, Server, "test", Params{})
	if rep.Latency.P50US != 20000 || rep.Latency.P99US != 30000 || rep.Latency.MaxUS != 30000 || rep.Latency.MeanUS != 20000 {
		t.Errorf("report percentiles = %+v", rep.Latency)
	}
}
