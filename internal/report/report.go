// Package report renders characterisation sweeps into the paper's
// figure and table formats — the text tables of cmd/characterize, CSV
// rows, and grouped per-model views. Extracted from the command so the
// formatting is unit-testable and reusable.
package report

import (
	"fmt"
	"strings"

	"bomw/internal/characterize"
	"bomw/internal/device"
)

// ConfigKey names a device state column: devices as-is, discrete GPUs
// split into their idle and warm starts (the four curves of Fig. 3).
func ConfigKey(p characterize.Point) string {
	if p.GPUWarmStart {
		return p.Device + " (warm)"
	}
	if p.Kind == device.DiscreteGPU {
		return p.Device + " (idle)"
	}
	return p.Device
}

// ModelView groups a sweep's points for one model: column order, a
// (config, batch) lookup, and the batch axis.
type ModelView struct {
	Model    string
	Configs  []string
	ByConfig map[string]map[int]characterize.Point
	Batches  []int
}

// Collect builds the per-model view for one model name.
func Collect(pts []characterize.Point, model string) ModelView {
	v := ModelView{Model: model, ByConfig: map[string]map[int]characterize.Point{}}
	seenBatch := map[int]bool{}
	for _, p := range pts {
		if p.Model != model {
			continue
		}
		k := ConfigKey(p)
		if v.ByConfig[k] == nil {
			v.ByConfig[k] = map[int]characterize.Point{}
			v.Configs = append(v.Configs, k)
		}
		v.ByConfig[k][p.Batch] = p
		if !seenBatch[p.Batch] {
			seenBatch[p.Batch] = true
			v.Batches = append(v.Batches, p.Batch)
		}
	}
	return v
}

// Fig3Table renders one model's throughput/power/latency table.
func Fig3Table(v ModelView) string {
	var b strings.Builder
	fmt.Fprintf(&b, "--- %s ---\n", v.Model)
	fmt.Fprintf(&b, "%10s", "batch")
	for _, c := range v.Configs {
		fmt.Fprintf(&b, " | %24s", c)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%10s", "")
	for range v.Configs {
		fmt.Fprintf(&b, " | %8s %6s %8s", "Gbit/s", "W", "latency")
	}
	b.WriteByte('\n')
	for _, batch := range v.Batches {
		fmt.Fprintf(&b, "%10d", batch)
		for _, c := range v.Configs {
			p := v.ByConfig[c][batch]
			fmt.Fprintf(&b, " | %8.3f %6.1f %8s", p.ThroughputGbps, p.AvgPowerW, truncate(p.Latency.String(), 10))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig4Table renders one model's Joules-per-batch table.
func Fig4Table(v ModelView) string {
	var b strings.Builder
	fmt.Fprintf(&b, "--- %s ---\n", v.Model)
	fmt.Fprintf(&b, "%10s", "batch")
	for _, c := range v.Configs {
		fmt.Fprintf(&b, " | %18s", c)
	}
	b.WriteByte('\n')
	for _, batch := range v.Batches {
		fmt.Fprintf(&b, "%10d", batch)
		for _, c := range v.Configs {
			fmt.Fprintf(&b, " | %18.4g", v.ByConfig[c][batch].EnergyJ)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the whole sweep as machine-readable rows with a header.
func CSV(pts []characterize.Point) string {
	var b strings.Builder
	b.WriteString("model,device,gpu_warm_start,batch,throughput_gbps,avg_power_w,latency_s,energy_j\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%s,%s,%t,%d,%g,%g,%g,%g\n",
			p.Model, p.Device, p.GPUWarmStart, p.Batch,
			p.ThroughputGbps, p.AvgPowerW, p.Latency.Seconds(), p.EnergyJ)
	}
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) > n {
		return s[:n]
	}
	return s
}
