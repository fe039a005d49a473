package device_test

import (
	"testing"
	"time"

	"bomw/internal/device"
	"bomw/internal/models"
	"bomw/internal/opencl"
)

// The tests in this file encode the acceptance checks of DESIGN.md §3:
// the qualitative shapes of the paper's Fig. 3 and Fig. 4 must hold on the
// calibrated device models, charged as the runtime charges a batch
// (charged_test.go). Crossover points are asserted to bracket the
// paper's values within one order of magnitude, per the reproduction rule
// ("who wins, by roughly what factor, where crossovers fall").

// latencyAt charges one batch on a fresh device, optionally pre-warmed.
func latencyAt(t *testing.T, p device.Profile, warm bool, prog *opencl.Program, n int) time.Duration {
	t.Helper()
	return charge(t, p, warm, prog, n).Latency()
}

// crossover returns the smallest batch in sizes where the dGPU beats the
// CPU, or -1 if the CPU wins everywhere.
func crossover(t *testing.T, prog *opencl.Program, warm bool, sizes []int) int {
	t.Helper()
	cpu := device.IntelCoreI7_8700()
	gpu := device.NvidiaGTX1080Ti()
	for _, n := range sizes {
		if latencyAt(t, gpu, warm, prog, n) < latencyAt(t, cpu, true, prog, n) {
			return n
		}
	}
	return -1
}

var sweepSizes = []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072, 262144}

func TestFig3aSimpleCrossovers(t *testing.T) {
	prog := program(t, "simple")
	warm := crossover(t, prog, true, sweepSizes)
	// Paper: CPU wins up to 2048 against a warm GPU. Accept within one
	// order of magnitude: crossover in [512, 32768].
	if warm < 512 || warm > 32768 {
		t.Fatalf("simple warm crossover at %d, paper ≈2048", warm)
	}
	// Paper: against an idle-start GPU the CPU wins at every tested size.
	if idle := crossover(t, prog, false, sweepSizes); idle != -1 {
		t.Fatalf("simple idle crossover at %d, paper: CPU wins everywhere", idle)
	}
}

func TestFig3eCifarCrossovers(t *testing.T) {
	prog := program(t, "cifar-10")
	warm := crossover(t, prog, true, sweepSizes)
	if warm == -1 || warm < 2 || warm > 64 {
		t.Fatalf("cifar warm crossover at %d, paper ≈8", warm)
	}
	idle := crossover(t, prog, false, sweepSizes)
	if idle == -1 || idle < 16 || idle > 1024 {
		t.Fatalf("cifar idle crossover at %d, paper ≈128", idle)
	}
	if idle <= warm {
		t.Fatalf("idle crossover (%d) must come later than warm (%d)", idle, warm)
	}
}

func TestFig3cMnistDeepCrossoverSmall(t *testing.T) {
	prog := program(t, "mnist-deep")
	warm := crossover(t, prog, true, sweepSizes)
	idle := crossover(t, prog, false, sweepSizes)
	// Paper: CPU wins only up to ≈8 regardless of GPU state.
	if warm == -1 || warm > 64 {
		t.Fatalf("mnist-deep warm crossover at %d, paper ≈8", warm)
	}
	if idle == -1 || idle > 128 {
		t.Fatalf("mnist-deep idle crossover at %d, paper ≈8", idle)
	}
}

func TestFig3bIdleConvergesToWarm(t *testing.T) {
	// Paper (Fig. 3b): past batch ≈512 the idle-start GPU's latency grows
	// better than linearly until it matches the warm GPU at ≥64K samples.
	prog := program(t, "mnist-small")
	gpu := device.NvidiaGTX1080Ti()
	smallRatio := float64(latencyAt(t, gpu, false, prog, 256)) / float64(latencyAt(t, gpu, true, prog, 256))
	bigRatio := float64(latencyAt(t, gpu, false, prog, 131072)) / float64(latencyAt(t, gpu, true, prog, 131072))
	if smallRatio < 2 {
		t.Fatalf("idle penalty at small batch should be large, got %.2fx", smallRatio)
	}
	if bigRatio > 1.3 {
		t.Fatalf("idle and warm must converge at 128K samples, got %.2fx", bigRatio)
	}
	if bigRatio >= smallRatio {
		t.Fatal("idle/warm ratio must shrink with batch size")
	}
}

func TestFig3ThroughputSpans(t *testing.T) {
	// Paper: dGPU peak throughput spans ≈0.8–20 Gbit/s across models and
	// the CPU ≈0.05–15 Gbit/s. Require the same relative spread (>10x
	// between the best and worst model) and peaks within ~3x of the paper.
	maxOf := func(p device.Profile) (lo, hi float64) {
		lo = 1e18
		for _, spec := range models.PaperModels() {
			prog := program(t, spec.Name)
			best := 0.0
			for _, n := range sweepSizes {
				r := charge(t, p, true, prog, n)
				if g := r.ThroughputGbps(prog.Net.SampleBytes()); g > best {
					best = g
				}
			}
			if best < lo {
				lo = best
			}
			if best > hi {
				hi = best
			}
		}
		return lo, hi
	}
	gLo, gHi := maxOf(device.NvidiaGTX1080Ti())
	cLo, cHi := maxOf(device.IntelCoreI7_8700())
	if gHi < 7 || gHi > 60 {
		t.Fatalf("dGPU peak %.1f Gbit/s, paper ≈20", gHi)
	}
	if gHi/gLo < 5 {
		t.Fatalf("dGPU peak spread %.1fx too narrow (paper 25x)", gHi/gLo)
	}
	if cHi < 2 || cHi > 45 {
		t.Fatalf("CPU peak %.1f Gbit/s, paper ≈15", cHi)
	}
	if cHi/cLo < 10 {
		t.Fatalf("CPU peak spread %.1fx too narrow (paper 300x)", cHi/cLo)
	}
	if gHi <= cHi {
		t.Fatal("dGPU peak must exceed CPU peak")
	}
}

func TestFig4IdleStartAlwaysCostsMoreEnergy(t *testing.T) {
	// Paper: "when the GPU starts from an idle state, it always consumes
	// more energy in all the machine learning models".
	for _, spec := range models.PaperModels() {
		prog := program(t, spec.Name)
		for _, n := range []int{8, 512, 32768} {
			ec := charge(t, device.NvidiaGTX1080Ti(), false, prog, n).EnergyJ
			ew := charge(t, device.NvidiaGTX1080Ti(), true, prog, n).EnergyJ
			if ec <= ew {
				t.Fatalf("%s batch %d: cold %gJ ≤ warm %gJ", spec.Name, n, ec, ew)
			}
		}
	}
}

func TestFig4NoDeviceRulesThemAll(t *testing.T) {
	// Paper: "there is no device to rule them all" — the energy-best
	// device must change across (model, batch, state) configurations.
	winners := map[string]bool{}
	for _, spec := range models.PaperModels() {
		prog := program(t, spec.Name)
		for _, n := range []int{2, 64, 4096, 262144} {
			for _, gpuWarm := range []bool{false, true} {
				bestD, bestE := "", 0.0
				for _, p := range device.DefaultProfiles() {
					e := charge(t, p, gpuWarm, prog, n).EnergyJ
					if bestD == "" || e < bestE {
						bestD, bestE = p.Name, e
					}
				}
				winners[bestD] = true
			}
		}
	}
	if len(winners) < 2 {
		t.Fatalf("a single device wins every energy configuration: %v", winners)
	}
}

func TestFig4WarmGPUBeatsIGPUOnBigBatches(t *testing.T) {
	// Paper (Fig. 4b): for mid-size batches the iGPU is the most
	// energy-efficient device when the dGPU is cold, but the warmed dGPU
	// takes over.
	prog := program(t, "mnist-small")
	n := 2048
	igpu := charge(t, device.IntelUHD630(), false, prog, n).EnergyJ
	cold := charge(t, device.NvidiaGTX1080Ti(), false, prog, n).EnergyJ
	warm := charge(t, device.NvidiaGTX1080Ti(), true, prog, n).EnergyJ
	if !(igpu < cold) {
		t.Fatalf("iGPU (%gJ) should beat a cold dGPU (%gJ) at batch %d", igpu, cold, n)
	}
	if !(warm < igpu) {
		t.Fatalf("a warm dGPU (%gJ) should beat the iGPU (%gJ) at batch %d", warm, igpu, n)
	}
}

func TestLayerWorkloadsOfPaperModels(t *testing.T) {
	for _, spec := range models.PaperModels() {
		net := program(t, spec.Name).Net
		var weights int64
		for _, w := range device.LayerWorkloads(net) {
			if w.FlopsPerSample <= 0 || w.ItemsPerSample <= 0 {
				t.Fatalf("%s: degenerate kernel %+v", spec.Name, w)
			}
			weights += w.WeightBytes
		}
		if weights != net.ParamBytes() {
			t.Fatalf("%s: kernels stage %d weight bytes, the network has %d", spec.Name, weights, net.ParamBytes())
		}
	}
	// Kernel counts: FFNN = layers; CNN = convs + pools + dense.
	if n := len(device.LayerWorkloads(program(t, "simple").Net)); n != 3 {
		t.Fatalf("simple kernels = %d, want 3", n)
	}
	if n := len(device.LayerWorkloads(program(t, "cifar-10").Net)); n != 6+3+2 {
		t.Fatalf("cifar kernels = %d, want 11", n)
	}
}
