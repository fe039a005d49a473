package device_test

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"bomw/internal/device"
	"bomw/internal/nn"
	"bomw/internal/opencl"
	"bomw/internal/tensor"
)

// Property-based checks on the cost models: for arbitrary (bounded)
// networks and batch sizes, the physics of a charged batch must stay
// sane.

// propertyConfig draws a property's inputs from a fixed seed: tier-1
// runs the same cases every time, and a property that is false
// somewhere is written down as a named case instead of rolled for.
func propertyConfig(count int) *quick.Config {
	return &quick.Config{MaxCount: count, Rand: rand.New(rand.NewSource(1))}
}

// boundedProgram compiles a feed-forward network drawn from a property's
// inputs: 1 to 1024 input features, 1 to 7 dense kernels, hidden layers 1
// to 512 wide and 2 to 31 classes.
func boundedProgram(t testing.TB, flops, bytes, items uint16) *opencl.Program {
	hidden := make([]int, int(items)%7)
	for i := range hidden {
		hidden[i] = 1 + int(items)%512
	}
	return compile(t, &nn.Spec{
		Name:       "prop",
		Kind:       nn.FFNN,
		InputShape: []int{1 + int(bytes)%1024},
		Hidden:     hidden,
		Classes:    2 + int(flops)%30,
		Act:        tensor.ReLU,
	})
}

// saturating is the smallest batch that fills the device's parallel
// width in every kernel of prog.
func saturating(p device.Profile, prog *opencl.Program) int {
	n := int64(1)
	for _, k := range prog.Kernels {
		w := k.Workload.ItemsPerSample
		n = max(n, (int64(p.ParallelWidth)+w-1)/w)
	}
	return int(n)
}

func TestPropertyLatencyEnergyPositive(t *testing.T) {
	f := func(flops, bytes, items uint16, nRaw uint16) bool {
		n := 1 + int(nRaw)%100000
		prog := boundedProgram(t, flops, bytes, items)
		for _, p := range device.DefaultProfiles() {
			r, log := chargeOn(t, device.New(p), prog, n)
			if r.Latency() <= 0 || r.EnergyJ <= 0 {
				return false
			}
			for _, e := range log[1 : 1+len(prog.Kernels)] {
				if u := e.Report.Utilization; u <= 0 || u > 1 {
					return false
				}
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
		prog := boundedProgram(t, flops, bytes, items)
		for _, p := range device.DefaultProfiles() {
			a := charge(t, p, false, prog, n).Latency()
			b := charge(t, p, false, prog, 2*n).Latency()
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
		prog := boundedProgram(t, flops, bytes, items)
		rc := charge(t, device.NvidiaGTX1080Ti(), false, prog, n)
		rw := charge(t, device.NvidiaGTX1080Ti(), true, prog, n)
		return rc.Latency() >= rw.Latency() && rc.EnergyJ >= rw.EnergyJ
	}
	if err := quick.Check(f, propertyConfig(100)); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyQueueConservation(t *testing.T) {
	// Back-to-back submissions must serialise without gaps or overlap:
	// each batch's first kernel starts when the batch before it completed.
	// (The zero-copy map that stages a batch on a unified device is free
	// and stamped at submission.)
	f := func(flops, bytes, items uint16) bool {
		prog := boundedProgram(t, flops, bytes, items)
		rt := runtimeOn(t, device.New(device.IntelUHD630()), prog)
		var end time.Duration
		for i := 0; i < 5; i++ {
			r, log := chargeAt(t, rt, prog, 64, 0)
			for _, e := range log[1:] {
				if e.Start != end {
					return false
				}
				end = e.End
			}
			if r.Completed != end {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, propertyConfig(100)); err != nil {
		t.Fatal(err)
	}
}

// splitEnergy charges one batch of 2n and two back-to-back batches of n
// of prog on fresh devices with profile p.
func splitEnergy(t testing.TB, p device.Profile, prog *opencl.Program, n int) (whole, split float64) {
	whole = charge(t, p, false, prog, 2*n).EnergyJ
	rt := runtimeOn(t, device.New(p), prog)
	for i := 0; i < 2; i++ {
		r, _ := chargeAt(t, rt, prog, n, 0)
		split += r.EnergyJ
	}
	return whole, split
}

func TestPropertyEnergyAdditiveOverSplit(t *testing.T) {
	// Charging one batch of 2n must not cost more energy than two
	// batches of n (fixed costs amortise; never the other way) — once a
	// batch of n fills the device in every kernel. Below that,
	// utilization, and with it dynamic power, still rises with the batch:
	// see the case below.
	f := func(flops, bytes, items uint16, nRaw uint16) bool {
		prog := boundedProgram(t, flops, bytes, items)
		for _, p := range []device.Profile{device.IntelCoreI7_8700(), device.IntelUHD630()} {
			n := max(1+int(nRaw)%10000, saturating(p, prog))
			whole, split := splitEnergy(t, p, prog, n)
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

// The exception to the property above: a batch of 1 of a 4096 → 640
// dense kernel fills 640 of the UHD 630's 1344 lanes, and its 10 MB of
// weights do not fit the 768 KB cache, so it is memory-bound on weights
// streamed per sample. An unsaturated, memory-bound batch takes time in
// proportion to its size at a utilization in proportion to its size, so
// its dynamic energy grows with the square: 2 samples at once are
// charged more than 1 twice. The model is left as it is — no
// virtual-clock result may move for a test's sake — and the deviation is
// pinned here.
func TestEnergyOfAnUnsaturatedBatchIsNotAdditive(t *testing.T) {
	prog := compile(t, &nn.Spec{Name: "wide", Kind: nn.FFNN, InputShape: []int{4096}, Classes: 640})
	const n = 1
	p := device.IntelUHD630()
	if sat := saturating(p, prog); 2*n >= sat {
		t.Fatalf("a batch of %d saturates %s from %d on: not the recorded case", 2*n, p.Name, sat)
	}
	whole, split := splitEnergy(t, p, prog, n)
	if whole <= split {
		t.Fatalf("one batch of %d is charged %.6g J, two of %d %.6g J: the recorded exception is gone — restate TestPropertyEnergyAdditiveOverSplit over every n", 2*n, whole, n, split)
	}
	t.Logf("one batch of %d: %.6g J; two of %d: %.6g J (×%.3f)", 2*n, whole, n, split, whole/split)
}
