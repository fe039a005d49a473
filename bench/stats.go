package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile of sorted by the "exclusive" method
// of Python's statistics.quantiles (position p·(n+1), linear between
// neighbours), clamped to the sample range instead of extrapolating.
// For n ≥ 3 and p ∈ {¼, ½, ¾} it equals statistics.quantiles(x, n=4),
// which is what the driver computes over a run set.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(pos)
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// bestWindow is the run's value of a per-window series: the fastest
// window. Interference on a shared box only ever slows a window — it
// comes in bursts shorter than a run and, some hours, longer than one —
// so the window least touched by it is the closest a run gets to what
// the code costs, and the only statistic of the series that repeated
// within a tenth from run to run when the machine was at its noisiest
// (README.md, "Why the best window").
func bestWindow(windows []float64, higherIsBetter bool) float64 {
	best := windows[0]
	for _, v := range windows[1:] {
		if (v > best) == higherIsBetter {
			best = v
		}
	}
	return best
}

// tailCandidates are the percentiles a tail figure may be reported at,
// highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// tailPercentile returns the highest candidate percentile that has at
// least ten samples beyond it (nearest-rank), and its value. With fewer
// than ~40 samples no candidate qualifies and pct is 0.
func tailPercentile(sorted []float64) (pct, value float64) {
	n := len(sorted)
	for _, p := range tailCandidates {
		rank := int(math.Ceil(p/100*float64(n) - 1e-9)) // 99.9 % of 20000 is 19980, not 19980.000000000004
		if rank >= 1 && n-rank >= 10 {
			return p, sorted[rank-1]
		}
	}
	return 0, 0
}
