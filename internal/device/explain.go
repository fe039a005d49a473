package device

import (
	"fmt"
	"strings"
	"time"
)

// Breakdown decomposes one hypothetical execution into the cost-model
// terms, so operators can audit *why* a device wins or loses a
// configuration — the explainability counterpart to the scheduler's
// learned decisions.
type Breakdown struct {
	Device string
	Batch  int

	Transfer time.Duration // PCIe in+out (zero on unified memory)
	Launch   time.Duration // kernel launch overhead
	Dispatch time.Duration // work-item + work-group scheduling
	Compute  time.Duration // FLOP time at the achieved utilisation
	Memory   time.Duration // bytes / bandwidth (roofline partner)

	Utilization  float64
	ClockFrac    float64       // boost clock fraction at start
	Bound        string        // "compute" or "memory"
	TotalLatency time.Duration // as Execute would charge it
	EnergyJ      float64
}

// Explain computes the cost breakdown for a batch on a fresh device with
// the given warm state, without mutating any live device.
func Explain(p Profile, w Workload, n int, warm bool) Breakdown {
	d := New(p)
	if warm {
		d.Warm(0)
	}
	d.mu.Lock()
	util := d.utilization(w, n)
	transfer := d.transferTime(w, n)
	launch := time.Duration(w.Kernels) * p.KernelLaunch
	dispatch := d.dispatchTime(w, n)

	flops := float64(int64(n) * w.FlopsPerSample)
	tComp := time.Duration(flops / (p.PeakGFLOPS * 1e9 * util) * float64(time.Second))
	traffic := float64(int64(n) * (w.SampleBytes + 2*w.ActivationBytes))
	if w.WeightBytes <= p.CacheBytes {
		traffic += float64(w.WeightBytes)
	} else {
		traffic += float64(int64(n)*w.WeightBytes) / p.WeightReuse
	}
	tMem := time.Duration(traffic / (p.MemBandwidthGBs * 1e9) * float64(time.Second))
	frac := d.clockFrac(d.boostBusy)
	d.mu.Unlock()

	bound := "compute"
	if tMem > tComp {
		bound = "memory"
	}
	rep := d.Execute(0, w, n)
	return Breakdown{
		Device:       p.Name,
		Batch:        n,
		Transfer:     transfer,
		Launch:       launch,
		Dispatch:     dispatch,
		Compute:      tComp,
		Memory:       tMem,
		Utilization:  util,
		ClockFrac:    frac,
		Bound:        bound,
		TotalLatency: rep.Latency,
		EnergyJ:      rep.EnergyJ(),
	}
}

// String renders the breakdown as an audit block.
func (b Breakdown) String() string {
	var s strings.Builder
	fmt.Fprintf(&s, "%s (batch %d):\n", b.Device, b.Batch)
	row := func(k string, v interface{}) { fmt.Fprintf(&s, "  %-12s %v\n", k, v) }
	row("transfer", b.Transfer)
	row("launch", b.Launch)
	row("dispatch", b.Dispatch)
	row("compute", b.Compute)
	row("memory", b.Memory)
	row("bound by", b.Bound)
	row("utilization", fmt.Sprintf("%.2f", b.Utilization))
	row("clocks", fmt.Sprintf("%.2f", b.ClockFrac))
	row("latency", b.TotalLatency)
	row("energy", fmt.Sprintf("%.4g J", b.EnergyJ))
	return s.String()
}
