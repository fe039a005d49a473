package device

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"bomw/internal/models"
)

// Unit tests of the two commands a batch is charged as — ExecuteCompute
// and Transfer — and of the device state they share. The batch-level
// checks (paper shapes, properties, interference) run the runtime's
// command sequence: charged_test.go and its neighbours.

// testWorkload is a hand-sized kernel for unit tests.
func testWorkload() Workload {
	return Workload{
		Model:           "test",
		FlopsPerSample:  1000,
		WeightBytes:     4096,
		ActivationBytes: 128,
		ItemsPerSample:  10,
	}
}

func TestPCIeSmallTransfersInefficient(t *testing.T) {
	// Effective PCIe bandwidth must ramp with transfer size (§II-A):
	// moving one 64-byte sample costs far more per sample than moving
	// 100000 of them in one transfer.
	d := New(NvidiaGTX1080Ti())
	small := d.Transfer(0, 64).Latency
	big := d.Transfer(0, 64*100000).Latency
	perSampleSmall := float64(small)
	perSampleBig := float64(big) / 100000
	if perSampleSmall < 20*perSampleBig {
		t.Fatalf("per-sample PCIe cost should collapse with batch size: %v vs %v", small, big)
	}
}

func TestQueueingDelaysSecondBatch(t *testing.T) {
	d := New(IntelCoreI7_8700())
	w := testWorkload()
	r1 := d.ExecuteCompute(0, w, 1024)
	r2 := d.ExecuteCompute(0, w, 1024) // submitted at the same instant
	if r2.QueueDelay != r1.Latency {
		t.Fatalf("second batch queue delay %v, want %v", r2.QueueDelay, r1.Latency)
	}
	if r2.Start != r1.Latency {
		t.Fatalf("second batch start %v, want %v", r2.Start, r1.Latency)
	}
	r3 := d.ExecuteCompute(r2.Start+r2.Latency+time.Second, w, 1)
	if r3.QueueDelay != 0 {
		t.Fatalf("idle device should not queue, delay %v", r3.QueueDelay)
	}
}

func TestBoostColdSlowerThanWarm(t *testing.T) {
	w := testWorkload()
	cold := New(NvidiaGTX1080Ti())
	warm := New(NvidiaGTX1080Ti())
	warm.Warm(0)
	rc := cold.ExecuteCompute(0, w, 256)
	rw := warm.ExecuteCompute(0, w, 256)
	if rc.Latency <= rw.Latency {
		t.Fatalf("cold start %v should be slower than warm %v", rc.Latency, rw.Latency)
	}
	ratio := float64(rc.Latency) / float64(rw.Latency)
	if ratio < 3 || ratio > 10 {
		t.Fatalf("cold/warm ratio %.1f outside the paper's up-to-7x band", ratio)
	}
	if rc.StartedWarm || !rw.StartedWarm {
		t.Fatal("StartedWarm flags wrong")
	}
	if rc.EnergyJ() <= rw.EnergyJ() {
		t.Fatalf("cold start should cost more energy: %g vs %g (Fig. 4)", rc.EnergyJ(), rw.EnergyJ())
	}
}

func TestBoostWarmsWithWork(t *testing.T) {
	d := New(NvidiaGTX1080Ti())
	w := testWorkload()
	if d.StateAt(0).Warm {
		t.Fatal("new device should be cold")
	}
	// A very large batch accumulates enough busy time to warm the clocks.
	r := d.ExecuteCompute(0, w, 1<<23)
	st := d.StateAt(r.Start + r.Latency)
	if !st.Warm {
		t.Fatalf("device should be warm after %v of work, clock %.2f", r.Latency, st.ClockFrac)
	}
}

func TestBoostCoolsWhenIdle(t *testing.T) {
	d := New(NvidiaGTX1080Ti())
	d.Warm(0)
	if !d.StateAt(time.Millisecond).Warm {
		t.Fatal("warmed device reported cold")
	}
	p := d.Profile()
	if st := d.StateAt(p.Cooldown * 3); st.Warm || st.ClockFrac > p.IdleClock+1e-9 {
		t.Fatalf("device should fully cool after %v idle, clock %.2f", 3*p.Cooldown, st.ClockFrac)
	}
	// Partial cooldown leaves intermediate clocks.
	d.Warm(0)
	st := d.StateAt(p.Cooldown / 2)
	if st.ClockFrac <= p.IdleClock || st.ClockFrac >= 1 {
		t.Fatalf("half cooldown should leave intermediate clocks, got %.2f", st.ClockFrac)
	}
}

// The state probe is a read: probing a warmed device again at the same
// instant gives the same answer, and probing does not cool it.
func TestStateAtIsAPureRead(t *testing.T) {
	d := New(NvidiaGTX1080Ti())
	d.Warm(0)
	at := d.Profile().Cooldown / 10
	first := d.StateAt(at)
	for i := 0; i < 3; i++ {
		if st := d.StateAt(at); st != first {
			t.Fatalf("probe %d at %v = %+v, first probe %+v", i+2, at, st, first)
		}
	}
	if first.ClockFrac >= 1 || first.ClockFrac <= d.Profile().IdleClock {
		t.Fatalf("probe after %v idle = %.3f, want partly cooled clocks", at, first.ClockFrac)
	}
}

// A transfer ends the idle gap before it: the cooling of that gap is
// committed, so a kernel after a long idle spell and its input transfer
// starts cold — the runtime's write-then-kernel sequence on a dGPU.
func TestTransferCommitsIdleCooling(t *testing.T) {
	d := New(NvidiaGTX1080Ti())
	p := d.Profile()
	d.Warm(0)
	idle := 5 * p.Cooldown
	tr := d.Transfer(idle, 1<<20)
	rep := d.ExecuteCompute(tr.Start+tr.Latency, testWorkload(), 1)
	if rep.ClockFrac != p.IdleClock || rep.StartedWarm {
		t.Fatalf("kernel after %v idle and a transfer started at clock %.3f (warm %v), want cold at %.3f",
			idle, rep.ClockFrac, rep.StartedWarm, p.IdleClock)
	}
}

func TestBoostConvergenceForLongRuns(t *testing.T) {
	// For executions much longer than the warm-up, cold and warm latency
	// must converge (the better-than-linear growth of Fig. 3b).
	w := testWorkload()
	w.FlopsPerSample = 50_000_000
	cold := New(NvidiaGTX1080Ti())
	warm := New(NvidiaGTX1080Ti())
	warm.Warm(0)
	rc := cold.ExecuteCompute(0, w, 100_000)
	rw := warm.ExecuteCompute(0, w, 100_000)
	ratio := float64(rc.Latency) / float64(rw.Latency)
	if ratio > 1.2 {
		t.Fatalf("long runs should converge, cold/warm = %.2f", ratio)
	}
}

func TestNonBoostDevicesAlwaysWarm(t *testing.T) {
	for _, p := range []Profile{IntelCoreI7_8700(), IntelUHD630()} {
		d := New(p)
		if st := d.StateAt(0); !st.Warm || st.ClockFrac != 1 {
			t.Fatalf("%s should always report warm full clocks", p.Name)
		}
	}
}

func TestWeightsCachedWhenSmall(t *testing.T) {
	p := IntelCoreI7_8700()
	small := testWorkload() // 4 KB weights, fits L3
	large := testWorkload()
	large.WeightBytes = 64 << 20 // 64 MB, exceeds 12 MB L3
	n := 4096
	ts := p.KernelCost(small, n).Memory
	tl := p.KernelCost(large, n).Memory
	if tl < 10*ts {
		t.Fatalf("uncacheable weights should dominate memory time: %v vs %v", tl, ts)
	}
}

func TestEnergyComponents(t *testing.T) {
	w := testWorkload()
	rd := New(NvidiaGTX1080Ti()).ExecuteCompute(0, w, 1024)
	if rd.HostEnergyJ <= 0 {
		t.Fatal("dGPU execution must charge host-assist energy (§IV-C)")
	}
	rc := New(IntelCoreI7_8700()).ExecuteCompute(0, w, 1024)
	if rc.HostEnergyJ != 0 {
		t.Fatal("CPU execution is the host; no separate host energy")
	}
	if got := rd.EnergyJ(); got != rd.DeviceEnergyJ+rd.HostEnergyJ {
		t.Fatalf("EnergyJ = %g, want sum of components", got)
	}
	if rd.AvgPowerW() <= 0 {
		t.Fatal("average power must be positive")
	}
	if (Report{}).AvgPowerW() != 0 {
		t.Fatal("a zero-latency report should not divide by zero")
	}
}

func TestIGPULowestPower(t *testing.T) {
	// §IV-C: the iGPU is the most power-efficient device in watts.
	w := testWorkload()
	var powers = map[Kind]float64{}
	for _, p := range DefaultProfiles() {
		d := New(p)
		d.Warm(0)
		r := d.ExecuteCompute(0, w, 65536)
		powers[p.Kind] = r.AvgPowerW()
	}
	if powers[IntegratedGPU] >= powers[CPU] || powers[IntegratedGPU] >= powers[DiscreteGPU] {
		t.Fatalf("iGPU should draw the least power: %v", powers)
	}
}

func TestResetRestoresColdIdle(t *testing.T) {
	d := New(NvidiaGTX1080Ti())
	d.Warm(0)
	d.ExecuteCompute(0, testWorkload(), 1024)
	d.Reset()
	if st := d.StateAt(0); st.Warm || st.BusyUntil != 0 {
		t.Fatalf("Reset left state %+v", st)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{CPU: "cpu", IntegratedGPU: "igpu", DiscreteGPU: "dgpu", Accelerator: "accel", Kind(42): "unknown"} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestLayerWorkloadsCoverNetwork(t *testing.T) {
	net := models.MnistCNN().MustBuild(1)
	layers := LayerWorkloads(net)
	// Every layer but the Flatten is a kernel.
	if want := len(net.Layers()) - 1; len(layers) != want {
		t.Fatalf("layer workloads = %d, want %d", len(layers), want)
	}
	var flops, weights int64
	for _, lw := range layers {
		if lw.ItemsPerSample <= 0 || lw.ActivationBytes <= 0 {
			t.Fatalf("degenerate kernel %+v", lw)
		}
		flops += lw.FlopsPerSample
		weights += lw.WeightBytes
	}
	if flops != net.FlopsPerSample() {
		t.Fatalf("layer flops sum %d != network %d", flops, net.FlopsPerSample())
	}
	if weights != net.ParamBytes() {
		t.Fatalf("layer weights sum %d != network %d", weights, net.ParamBytes())
	}
}

func TestExecuteComputeQueuesAndWarms(t *testing.T) {
	d := New(NvidiaGTX1080Ti())
	w := testWorkload()
	w.FlopsPerSample = 10_000_000
	r1 := d.ExecuteCompute(0, w, 4096)
	r2 := d.ExecuteCompute(0, w, 4096)
	if r2.QueueDelay != r1.Latency {
		t.Fatalf("kernel did not queue: delay %v, want %v", r2.QueueDelay, r1.Latency)
	}
	if r2.ClockFrac <= r1.ClockFrac {
		t.Fatal("second kernel should see warmer clocks")
	}
	if r1.Transfer != 0 {
		t.Fatal("ExecuteCompute must not charge transfers")
	}
}

func TestExecuteComputePanicsOnBadBatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ExecuteCompute(n=-1) did not panic")
		}
	}()
	New(IntelCoreI7_8700()).ExecuteCompute(0, testWorkload(), -1)
}

func TestTransferUnifiedMemoryFree(t *testing.T) {
	for _, p := range []Profile{IntelCoreI7_8700(), IntelUHD630()} {
		r := New(p).Transfer(0, 1<<20)
		if r.Latency != 0 || r.EnergyJ() != 0 {
			t.Fatalf("%s: unified-memory transfer should be free, got %v/%gJ", p.Name, r.Latency, r.EnergyJ())
		}
	}
}

func TestTransferDiscreteCharges(t *testing.T) {
	d := New(NvidiaGTX1080Ti())
	small := d.Transfer(0, 64)
	if small.Latency <= d.Profile().PCIeLatency {
		t.Fatalf("transfer latency %v should exceed the fixed PCIe latency", small.Latency)
	}
	big := d.Transfer(small.Start+small.Latency, 1<<30)
	if big.Latency <= small.Latency {
		t.Fatal("1 GiB transfer should dwarf a 64 B transfer")
	}
	if big.EnergyJ() <= 0 {
		t.Fatal("transfer should consume energy")
	}
	// Zero-byte transfer is free even on PCIe devices.
	if r := d.Transfer(0, 0); r.Latency != 0 {
		t.Fatalf("zero-byte transfer charged %v", r.Latency)
	}
}

func TestTransferPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Transfer(-1) did not panic")
		}
	}()
	New(NvidiaGTX1080Ti()).Transfer(0, -1)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
