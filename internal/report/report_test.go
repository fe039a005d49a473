package report

import (
	"strings"
	"testing"
	"time"

	"bomw/internal/characterize"
	"bomw/internal/device"
)

func samplePoints() []characterize.Point {
	return []characterize.Point{
		{Model: "m1", Device: "cpu", Kind: device.CPU, Batch: 2,
			ThroughputGbps: 1.5, AvgPowerW: 40, Latency: time.Millisecond, EnergyJ: 0.04},
		{Model: "m1", Device: "cpu", Kind: device.CPU, Batch: 8,
			ThroughputGbps: 3.0, AvgPowerW: 80, Latency: 2 * time.Millisecond, EnergyJ: 0.16},
		{Model: "m1", Device: "gpu", Kind: device.DiscreteGPU, Batch: 2,
			ThroughputGbps: 0.2, AvgPowerW: 120, Latency: 4 * time.Millisecond, EnergyJ: 0.5},
		{Model: "m1", Device: "gpu", Kind: device.DiscreteGPU, Batch: 2, GPUWarmStart: true,
			ThroughputGbps: 0.9, AvgPowerW: 150, Latency: time.Millisecond, EnergyJ: 0.15},
		{Model: "m2", Device: "cpu", Kind: device.CPU, Batch: 2,
			ThroughputGbps: 0.7, AvgPowerW: 40, Latency: time.Millisecond, EnergyJ: 0.04},
	}
}

func TestConfigKey(t *testing.T) {
	pts := samplePoints()
	if got := ConfigKey(pts[0]); got != "cpu" {
		t.Fatalf("CPU key = %q", got)
	}
	if got := ConfigKey(pts[2]); got != "gpu (idle)" {
		t.Fatalf("idle dGPU key = %q", got)
	}
	if got := ConfigKey(pts[3]); got != "gpu (warm)" {
		t.Fatalf("warm dGPU key = %q", got)
	}
}

func TestCollect(t *testing.T) {
	v := Collect(samplePoints(), "m1")
	if len(v.Configs) != 3 {
		t.Fatalf("configs = %v", v.Configs)
	}
	if len(v.Batches) != 2 || v.Batches[0] != 2 || v.Batches[1] != 8 {
		t.Fatalf("batches = %v", v.Batches)
	}
	if v.ByConfig["cpu"][8].ThroughputGbps != 3.0 {
		t.Fatal("lookup broken")
	}
	// Foreign model rows are excluded.
	if _, ok := v.ByConfig["cpu"][2]; !ok {
		t.Fatal("m1 cpu batch 2 missing")
	}
	if len(Collect(samplePoints(), "m2").Batches) != 1 {
		t.Fatal("m2 collection wrong")
	}
}

func TestFig3Table(t *testing.T) {
	out := Fig3Table(Collect(samplePoints(), "m1"))
	for _, want := range []string{"--- m1 ---", "gpu (idle)", "gpu (warm)", "Gbit/s", "3.000", "80.0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig3 table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2+2+1 { // title + 2 header rows + 2 batch rows
		t.Fatalf("Fig3 table has %d lines:\n%s", len(lines), out)
	}
}

func TestFig4Table(t *testing.T) {
	out := Fig4Table(Collect(samplePoints(), "m1"))
	for _, want := range []string{"--- m1 ---", "0.16", "0.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig4 table missing %q:\n%s", want, out)
		}
	}
}

func TestCSV(t *testing.T) {
	out := CSV(samplePoints())
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Fatalf("CSV rows = %d, want header + 5", len(lines))
	}
	if !strings.HasPrefix(lines[0], "model,device,") {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if !strings.Contains(lines[4], "gpu,true,2") {
		t.Fatalf("warm-start row wrong: %q", lines[4])
	}
}

func TestTruncate(t *testing.T) {
	if truncate("abcdef", 3) != "abc" || truncate("ab", 3) != "ab" {
		t.Fatal("truncate broken")
	}
}
