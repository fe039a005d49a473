package device_test

import (
	"sync"
	"testing"
	"time"

	"bomw/internal/device"
	"bomw/internal/models"
	"bomw/internal/nn"
	"bomw/internal/opencl"
)

// The batch-level checks of the device models run the one cost path the
// scheduler, the sweeps and the server are charged by: the runtime's
// command sequence (opencl.Runtime), one ExecuteCompute per kernel with a
// Transfer before and after on a discrete device. Each program compiles
// once; each charge loads it into a fresh runtime, as the
// characterisation sweeper does.

var (
	progMu sync.Mutex
	progs  = map[string]*opencl.Program{}
)

// program compiles a model's outline once per test binary: a charge
// reads shapes only, and a Program is immutable.
func program(t testing.TB, name string) *opencl.Program {
	t.Helper()
	progMu.Lock()
	defer progMu.Unlock()
	if prog, ok := progs[name]; ok {
		return prog
	}
	spec, err := models.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog := compile(t, spec)
	progs[name] = prog
	return prog
}

// compile builds the kernel pipeline of a spec's outline.
func compile(t testing.TB, spec *nn.Spec) *opencl.Program {
	t.Helper()
	net, err := spec.Outline()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := opencl.BuildProgram(net)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// runtimeOn loads prog into a fresh runtime over dev.
func runtimeOn(t testing.TB, dev *device.Device, prog *opencl.Program) *opencl.Runtime {
	t.Helper()
	rt, err := opencl.NewRuntime(dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	return rt
}

// chargeAt charges a batch of n samples of prog submitted at virtual time
// at, and returns the charge with its command log.
func chargeAt(t testing.TB, rt *opencl.Runtime, prog *opencl.Program, n int, at time.Duration) (*opencl.Result, []opencl.Event) {
	t.Helper()
	dev := rt.Devices()[0].Name()
	res, log, err := rt.Profile(dev, prog.Net.Name(), nil, n, at)
	if err != nil {
		t.Fatal(err)
	}
	return res, log
}

// chargeOn charges one batch on dev, submitted at time zero.
func chargeOn(t testing.TB, dev *device.Device, prog *opencl.Program, n int) (*opencl.Result, []opencl.Event) {
	t.Helper()
	return chargeAt(t, runtimeOn(t, dev, prog), prog, n, 0)
}

// charge charges one batch on a fresh device with profile p, warmed
// first when warm is set.
func charge(t testing.TB, p device.Profile, warm bool, prog *opencl.Program, n int) *opencl.Result {
	t.Helper()
	dev := device.New(p)
	if warm {
		dev.Warm(0)
	}
	res, _ := chargeOn(t, dev, prog, n)
	return res
}

func TestExecuteBasicInvariants(t *testing.T) {
	prog := program(t, "mnist-small")
	for _, p := range device.DefaultProfiles() {
		res, log := chargeOn(t, device.New(p), prog, 16)
		if res.Latency() <= 0 || res.EnergyJ <= 0 {
			t.Fatalf("%s: charged %v and %g J", p.Name, res.Latency(), res.EnergyJ)
		}
		// On a fresh device the commands run back to back from the
		// submission, and the batch is charged their sum.
		end, energy := res.Submitted, 0.0
		for _, e := range log {
			if e.Start != end {
				t.Fatalf("%s: %s starts at %v, its predecessor ended at %v", p.Name, e.Name, e.Start, end)
			}
			end, energy = e.End, energy+e.Report.EnergyJ()
			if e.Report.Device != p.Name {
				t.Fatalf("%s: %s reported on %q", p.Name, e.Name, e.Report.Device)
			}
		}
		if end != res.Completed || energy != res.EnergyJ {
			t.Fatalf("%s: commands sum to %v and %g J, batch charged %v and %g J", p.Name, end, energy, res.Completed, res.EnergyJ)
		}
		for _, e := range log[1 : 1+len(prog.Kernels)] {
			if u := e.Report.Utilization; u <= 0 || u > 1 || e.Report.Batch != 16 {
				t.Fatalf("%s: kernel %s has utilization %g, batch %d", p.Name, e.Name, u, e.Report.Batch)
			}
		}
	}
}

func TestLatencyMonotonicInBatch(t *testing.T) {
	prog := program(t, "mnist-small")
	for _, p := range device.DefaultProfiles() {
		prev := time.Duration(0)
		for _, n := range []int{1, 8, 64, 512, 4096} {
			lat := charge(t, p, false, prog, n).Latency()
			if lat < prev {
				t.Fatalf("%s: latency decreased from %v at batch %d", p.Name, prev, n)
			}
			prev = lat
		}
	}
}

func TestUnifiedMemoryHasNoTransfer(t *testing.T) {
	prog := program(t, "mnist-small")
	transfer := func(p device.Profile) (d time.Duration) {
		_, log := chargeOn(t, device.New(p), prog, 128)
		for _, e := range log {
			d += e.Report.Transfer
		}
		return d
	}
	for _, p := range []device.Profile{device.IntelCoreI7_8700(), device.IntelUHD630()} {
		if d := transfer(p); d != 0 {
			t.Fatalf("%s: unified-memory device charged %v transfer", p.Name, d)
		}
	}
	if p := device.NvidiaGTX1080Ti(); transfer(p) <= 2*p.PCIeLatency {
		t.Fatalf("dGPU transfer %v should exceed fixed PCIe latency", transfer(p))
	}
}

func TestSlowdownStretchesCompute(t *testing.T) {
	prog := program(t, "mnist-small")
	p := device.IntelCoreI7_8700()
	contended := device.New(p)
	contended.SetSlowdown(3)
	rc := charge(t, p, false, prog, 4096)
	rs, _ := chargeOn(t, contended, prog, 4096)
	ratio := float64(rs.Latency()) / float64(rc.Latency())
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("slowdown 3 produced latency ratio %.2f", ratio)
	}
	if rs.EnergyJ <= rc.EnergyJ {
		t.Fatal("contended execution should burn more energy")
	}
}
