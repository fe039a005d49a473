package opencl

import (
	"fmt"
	"strings"
	"time"

	"bomw/internal/device"
)

// Breakdown decomposes one batch's charge on one device into the terms
// of its command sequence, so operators can audit *why* a device wins or
// loses a configuration — the explainability counterpart to the
// scheduler's learned decisions. Latency and EnergyJ are exactly what
// Runtime.Estimate charges the same batch on a fresh device.
type Breakdown struct {
	Device string
	Batch  int

	Transfer time.Duration // PCIe write + read (zero on unified memory)
	// The kernels' full-clock terms (device.KernelCost), summed over the
	// program's launches; interference and the boost ramp stretch them
	// into Latency.
	Launch   time.Duration
	Dispatch time.Duration
	Compute  time.Duration
	Memory   time.Duration

	Kernels      int
	ComputeBound int     // kernels whose roofline binds on compute
	ClockFrac    float64 // boost clock fraction when the first kernel started

	Latency time.Duration // submit to completion
	EnergyJ float64
}

// Explain charges a batch of n samples of prog on a fresh device with
// profile p, warmed first when warm is set, and breaks the charge down.
func Explain(p device.Profile, prog *Program, n int, warm bool) (Breakdown, error) {
	dev := device.New(p)
	if warm {
		dev.Warm(0)
	}
	rt, err := NewRuntime(dev)
	if err != nil {
		return Breakdown{}, err
	}
	if err := rt.LoadProgram(prog); err != nil {
		return Breakdown{}, err
	}
	res, log, err := rt.Profile(p.Name, prog.Net.Name(), nil, n, 0)
	if err != nil {
		return Breakdown{}, err
	}
	b := Breakdown{Device: p.Name, Batch: n, Kernels: len(prog.Kernels), Latency: res.Latency(), EnergyJ: res.EnergyJ}
	for _, k := range prog.Kernels {
		c := p.KernelCost(k.Workload, n)
		b.Launch += c.Launch
		b.Dispatch += c.Dispatch
		b.Compute += c.Compute
		b.Memory += c.Memory
		if c.Compute >= c.Memory {
			b.ComputeBound++
		}
	}
	for _, e := range log {
		b.Transfer += e.Report.Transfer
	}
	if b.Kernels > 0 {
		// The log is the staging command, then one event per kernel.
		b.ClockFrac = log[1].Report.ClockFrac
	}
	return b, nil
}

// String renders the breakdown as an audit block.
func (b Breakdown) String() string {
	var s strings.Builder
	fmt.Fprintf(&s, "%s (batch %d):\n", b.Device, b.Batch)
	row := func(k string, v any) { fmt.Fprintf(&s, "  %-12s %v\n", k, v) }
	row("transfer", b.Transfer)
	row("launch", b.Launch)
	row("dispatch", b.Dispatch)
	row("compute", b.Compute)
	row("memory", b.Memory)
	row("bound by", fmt.Sprintf("compute on %d of %d kernels", b.ComputeBound, b.Kernels))
	row("clocks", fmt.Sprintf("%.2f", b.ClockFrac))
	row("latency", b.Latency)
	row("energy", fmt.Sprintf("%.4g J", b.EnergyJ))
	return s.String()
}
