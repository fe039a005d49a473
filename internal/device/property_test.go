package device

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// Property-based checks on the cost models: for arbitrary (bounded)
// workloads and batch sizes, the physics must stay sane.

// propertyConfig draws a property's inputs from a fixed seed: tier-1
// runs the same cases every time, and a property that is false
// somewhere is written down as a named case instead of rolled for.
func propertyConfig(count int) *quick.Config {
	return &quick.Config{MaxCount: count, Rand: rand.New(rand.NewSource(1))}
}

func boundedWorkload(flops, bytes, items uint16) Workload {
	return Workload{
		Model:           "prop",
		FlopsPerSample:  1 + int64(flops),
		SampleBytes:     4 * (1 + int64(bytes)%1024),
		OutputBytes:     4,
		WeightBytes:     int64(bytes) * 64,
		ActivationBytes: int64(bytes) % 4096,
		ItemsPerSample:  1 + int64(items)%1024,
		Kernels:         1 + int(items)%7,
		AvgLayerWidth:   1 + int64(items)%512,
	}
}

func TestPropertyLatencyEnergyPositive(t *testing.T) {
	f := func(flops, bytes, items uint16, nRaw uint16) bool {
		n := 1 + int(nRaw)%100000
		w := boundedWorkload(flops, bytes, items)
		for _, p := range DefaultProfiles() {
			r := New(p).Execute(0, w, n)
			if r.Latency <= 0 || r.EnergyJ() <= 0 {
				return false
			}
			if r.Utilization <= 0 || r.Utilization > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, propertyConfig(150)); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMoreWorkNeverFaster(t *testing.T) {
	f := func(flops, bytes, items uint16, nRaw uint16) bool {
		n := 1 + int(nRaw)%50000
		w := boundedWorkload(flops, bytes, items)
		for _, p := range DefaultProfiles() {
			a := New(p).Execute(0, w, n).Latency
			b := New(p).Execute(0, w, 2*n).Latency
			if b < a {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, propertyConfig(100)); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyColdNeverFasterThanWarm(t *testing.T) {
	f := func(flops, bytes, items uint16, nRaw uint16) bool {
		n := 1 + int(nRaw)%100000
		w := boundedWorkload(flops, bytes, items)
		cold := New(NvidiaGTX1080Ti())
		warm := New(NvidiaGTX1080Ti())
		warm.Warm(0)
		rc := cold.Execute(0, w, n)
		rw := warm.Execute(0, w, n)
		return rc.Latency >= rw.Latency && rc.EnergyJ() >= rw.EnergyJ()
	}
	if err := quick.Check(f, propertyConfig(100)); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyQueueConservation(t *testing.T) {
	// Back-to-back submissions must serialise without gaps or overlap.
	f := func(flops, bytes, items uint16) bool {
		w := boundedWorkload(flops, bytes, items)
		d := New(IntelUHD630())
		var end time.Duration
		for i := 0; i < 5; i++ {
			r := d.Execute(0, w, 64)
			if r.Start != end {
				return false
			}
			end = r.Start + r.Latency
		}
		return true
	}
	if err := quick.Check(f, propertyConfig(100)); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEnergyAdditiveOverSplit(t *testing.T) {
	// Charging one batch of 2n must not cost more energy than two
	// batches of n (fixed costs amortise; never the other way) — once a
	// batch of n fills the device. Below that, utilization, and with it
	// dynamic power, still rises with the batch: see the case below.
	f := func(flops, bytes, items uint16, nRaw uint16) bool {
		w := boundedWorkload(flops, bytes, items)
		for _, p := range []Profile{IntelCoreI7_8700(), IntelUHD630()} {
			saturating := (int64(p.ParallelWidth) + w.AvgLayerWidth - 1) / w.AvgLayerWidth
			n := max(1+int(nRaw)%10000, int(saturating))
			whole := New(p).Execute(0, w, 2*n).EnergyJ()
			d := New(p)
			split := d.Execute(0, w, n).EnergyJ() + d.Execute(0, w, n).EnergyJ()
			if whole > split*1.0001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, propertyConfig(100)); err != nil {
		t.Fatal(err)
	}
}

// The exception to the property above, as testing/quick once found it
// (inputs 0xf8a1, 0xbbc3, 0xa1e, 0x271a: a batch of 11 whose 31 work-
// items per layer fill a quarter of the UHD 630's 1344 lanes). An
// unsaturated, memory-bound batch takes time in proportion to its size
// at a utilization in proportion to its size, so its dynamic energy
// grows with the square: 22 samples at once are charged more than 11
// twice. The model is left as it is — no virtual-clock result may move
// for a test's sake — and the deviation is pinned here.
func TestEnergyOfAnUnsaturatedBatchIsNotAdditive(t *testing.T) {
	w := boundedWorkload(0xf8a1, 0xbbc3, 0xa1e)
	const n = 1 + 0x271a%10000
	p := IntelUHD630()
	if int64(n)*w.AvgLayerWidth >= int64(p.ParallelWidth) {
		t.Fatalf("a batch of %d × %d work-items saturates %s: not the recorded case", n, w.AvgLayerWidth, p.Name)
	}
	whole := New(p).Execute(0, w, 2*n).EnergyJ()
	d := New(p)
	split := d.Execute(0, w, n).EnergyJ() + d.Execute(0, w, n).EnergyJ()
	if whole <= split {
		t.Fatalf("one batch of %d is charged %.6g J, two of %d %.6g J: the recorded exception is gone — restate TestPropertyEnergyAdditiveOverSplit over every n", 2*n, whole, n, split)
	}
	t.Logf("one batch of %d: %.6g J; two of %d: %.6g J (×%.3f)", 2*n, whole, n, split, whole/split)
}

func TestPropertyBoostIntegrateConsistency(t *testing.T) {
	// Stretching work through the boost ramp never shortens it, and warm
	// devices run 1:1.
	d := New(NvidiaGTX1080Ti())
	f := func(ms uint16, fracRaw uint8) bool {
		work := time.Duration(1+int(ms)%5000) * time.Millisecond
		frac := d.prof.IdleClock + (1-d.prof.IdleClock)*float64(fracRaw)/255
		wall, credit := d.boostIntegrate(work, frac)
		if wall < work || credit != wall {
			return false
		}
		full, _ := d.boostIntegrate(work, 1)
		return full == work
	}
	if err := quick.Check(f, propertyConfig(200)); err != nil {
		t.Fatal(err)
	}
}
