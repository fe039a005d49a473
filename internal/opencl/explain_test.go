package opencl

import (
	"strings"
	"testing"

	"bomw/internal/device"
	"bomw/internal/models"
)

func outlineProgram(t *testing.T, name string) *Program {
	t.Helper()
	spec, err := models.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	net, err := spec.Outline()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := BuildProgram(net)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// Explain prints what the runtime charges: for every paper model,
// device, GPU state and batch size its latency and energy are exactly a
// fresh runtime's Estimate of the same batch.
func TestExplainMatchesCharge(t *testing.T) {
	for _, spec := range models.PaperModels() {
		prog := outlineProgram(t, spec.Name)
		for _, p := range device.DefaultProfiles() {
			for _, warm := range []bool{false, true} {
				for _, n := range []int{1, 8, 64, 512, 4096, 65536} {
					b, err := Explain(p, prog, n, warm)
					if err != nil {
						t.Fatal(err)
					}
					dev := device.New(p)
					if warm {
						dev.Warm(0)
					}
					rt, err := NewRuntime(dev)
					if err != nil {
						t.Fatal(err)
					}
					if err := rt.LoadProgram(prog); err != nil {
						t.Fatal(err)
					}
					res, err := rt.Estimate(p.Name, spec.Name, n, 0)
					if err != nil {
						t.Fatal(err)
					}
					if b.Latency != res.Latency() || b.EnergyJ != res.EnergyJ {
						t.Fatalf("%s batch %d on %s (warm %v): explained %v and %.6g J, charged %v and %.6g J",
							spec.Name, n, p.Name, warm, b.Latency, b.EnergyJ, res.Latency(), res.EnergyJ)
					}
				}
			}
		}
	}
}

func TestExplainBreakdown(t *testing.T) {
	prog := outlineProgram(t, "mnist-small")
	for _, p := range device.DefaultProfiles() {
		for _, warm := range []bool{false, true} {
			b, err := Explain(p, prog, 4096, warm)
			if err != nil {
				t.Fatal(err)
			}
			if b.Device != p.Name || b.Batch != 4096 || b.Kernels != len(prog.Kernels) {
				t.Fatalf("identity fields wrong: %+v", b)
			}
			if b.Latency <= 0 || b.EnergyJ <= 0 {
				t.Fatalf("%s: degenerate breakdown", p.Name)
			}
			if b.ComputeBound < 0 || b.ComputeBound > b.Kernels {
				t.Fatalf("%s: %d of %d kernels compute-bound", p.Name, b.ComputeBound, b.Kernels)
			}
			if p.Kind != device.DiscreteGPU && b.Transfer != 0 {
				t.Fatalf("%s: unified memory charged transfer", p.Name)
			}
			// At full clocks and without interference the charge is the
			// transfers plus each kernel's launch, dispatch and the longer
			// roofline side: at least the larger of the summed sides.
			if b.ClockFrac == 1 && b.Latency < b.Transfer+b.Launch+b.Dispatch+max(b.Compute, b.Memory) {
				t.Fatalf("%s: charged %v, below its terms %+v", p.Name, b.Latency, b)
			}
			s := b.String()
			for _, want := range []string{"bound by", "latency", "energy"} {
				if !strings.Contains(s, want) {
					t.Fatalf("breakdown rendering missing %q", want)
				}
			}
		}
	}
	// Warm vs cold dGPU: the warm breakdown must be faster.
	cold, _ := Explain(device.NvidiaGTX1080Ti(), prog, 4096, false)
	warm, _ := Explain(device.NvidiaGTX1080Ti(), prog, 4096, true)
	if warm.Latency >= cold.Latency {
		t.Fatal("warm breakdown not faster than cold")
	}
	if cold.ClockFrac >= warm.ClockFrac {
		t.Fatal("clock fractions wrong")
	}
}
