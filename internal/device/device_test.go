package device

import (
	"strings"
	"testing"
	"time"

	"bomw/internal/models"
	"bomw/internal/nn"
)

// testWorkload is a hand-sized workload for unit tests.
func testWorkload() Workload {
	return Workload{
		Model:           "test",
		FlopsPerSample:  1000,
		SampleBytes:     64,
		OutputBytes:     8,
		WeightBytes:     4096,
		ActivationBytes: 128,
		ItemsPerSample:  20,
		Kernels:         2,
		AvgLayerWidth:   10,
	}
}

func TestExecutePanicsOnBadBatch(t *testing.T) {
	d := New(IntelCoreI7_8700())
	defer func() {
		if recover() == nil {
			t.Fatal("Execute(n=0) did not panic")
		}
	}()
	d.Execute(0, testWorkload(), 0)
}

func TestExecuteBasicInvariants(t *testing.T) {
	for _, p := range DefaultProfiles() {
		d := New(p)
		r := d.Execute(0, testWorkload(), 16)
		if r.Latency <= 0 {
			t.Fatalf("%s: non-positive latency", p.Name)
		}
		if r.EnergyJ() <= 0 {
			t.Fatalf("%s: non-positive energy", p.Name)
		}
		if r.Utilization <= 0 || r.Utilization > 1 {
			t.Fatalf("%s: utilization %g out of (0,1]", p.Name, r.Utilization)
		}
		if r.Device != p.Name || r.Model != "test" || r.Batch != 16 {
			t.Fatalf("%s: report identity fields wrong: %+v", p.Name, r)
		}
		if r.Latency != r.Transfer+r.Launch+r.Compute && p.Kind != DiscreteGPU {
			// For non-boost devices the breakdown must add up exactly.
			t.Fatalf("%s: breakdown %v+%v+%v != %v", p.Name, r.Transfer, r.Launch, r.Compute, r.Latency)
		}
	}
}

func TestLatencyMonotonicInBatch(t *testing.T) {
	w := testWorkload()
	for _, p := range DefaultProfiles() {
		prev := time.Duration(0)
		for _, n := range []int{1, 8, 64, 512, 4096} {
			d := New(p)
			r := d.Execute(0, w, n)
			if r.Latency < prev {
				t.Fatalf("%s: latency decreased from %v at batch %d", p.Name, prev, n)
			}
			prev = r.Latency
		}
	}
}

func TestUnifiedMemoryHasNoTransfer(t *testing.T) {
	w := testWorkload()
	for _, p := range []Profile{IntelCoreI7_8700(), IntelUHD630()} {
		r := New(p).Execute(0, w, 128)
		if r.Transfer != 0 {
			t.Fatalf("%s: unified-memory device charged %v transfer", p.Name, r.Transfer)
		}
	}
	if r := New(NvidiaGTX1080Ti()).Execute(0, w, 128); r.Transfer <= 2*NvidiaGTX1080Ti().PCIeLatency {
		t.Fatalf("dGPU transfer %v should exceed fixed PCIe latency", r.Transfer)
	}
}

func TestPCIeSmallTransfersInefficient(t *testing.T) {
	// Effective PCIe bandwidth must ramp with transfer size (§II-A):
	// doubling a small batch should much less than double transfer time.
	d := New(NvidiaGTX1080Ti())
	w := testWorkload()
	small := d.transferTime(w, 1)
	big := d.transferTime(w, 100000)
	perSampleSmall := float64(small)
	perSampleBig := float64(big) / 100000
	if perSampleSmall < 20*perSampleBig {
		t.Fatalf("per-sample PCIe cost should collapse with batch size: %v vs %v", small, big)
	}
}

func TestQueueingDelaysSecondBatch(t *testing.T) {
	d := New(IntelCoreI7_8700())
	w := testWorkload()
	r1 := d.Execute(0, w, 1024)
	r2 := d.Execute(0, w, 1024) // submitted at the same instant
	if r2.QueueDelay != r1.Latency {
		t.Fatalf("second batch queue delay %v, want %v", r2.QueueDelay, r1.Latency)
	}
	if r2.Start != r1.Latency {
		t.Fatalf("second batch start %v, want %v", r2.Start, r1.Latency)
	}
	r3 := d.Execute(r2.Start+r2.Latency+time.Second, w, 1)
	if r3.QueueDelay != 0 {
		t.Fatalf("idle device should not queue, delay %v", r3.QueueDelay)
	}
}

func TestBoostColdSlowerThanWarm(t *testing.T) {
	w := testWorkload()
	cold := New(NvidiaGTX1080Ti())
	warm := New(NvidiaGTX1080Ti())
	warm.Warm(0)
	rc := cold.Execute(0, w, 256)
	rw := warm.Execute(0, w, 256)
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
	r := d.Execute(0, w, 1<<22)
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
	rc := cold.Execute(0, w, 100_000)
	rw := warm.Execute(0, w, 100_000)
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
	d := New(IntelCoreI7_8700())
	small := testWorkload() // 4 KB weights, fits L3
	large := testWorkload()
	large.WeightBytes = 64 << 20 // 64 MB, exceeds 12 MB L3
	n := 4096
	ts := d.rooflineTime(small, n, 1)
	tl := d.rooflineTime(large, n, 1)
	if tl < 10*ts {
		t.Fatalf("uncacheable weights should dominate memory time: %v vs %v", tl, ts)
	}
}

func TestEnergyComponents(t *testing.T) {
	w := testWorkload()
	rd := New(NvidiaGTX1080Ti()).Execute(0, w, 1024)
	if rd.HostEnergyJ <= 0 {
		t.Fatal("dGPU execution must charge host-assist energy (§IV-C)")
	}
	rc := New(IntelCoreI7_8700()).Execute(0, w, 1024)
	if rc.HostEnergyJ != 0 {
		t.Fatal("CPU execution is the host; no separate host energy")
	}
	if got := rd.EnergyJ(); got != rd.DeviceEnergyJ+rd.HostEnergyJ {
		t.Fatalf("EnergyJ = %g, want sum of components", got)
	}
	if rd.AvgPowerW() <= 0 {
		t.Fatal("average power must be positive")
	}
}

func TestIGPULowestPower(t *testing.T) {
	// §IV-C: the iGPU is the most power-efficient device in watts.
	w := testWorkload()
	var powers = map[Kind]float64{}
	for _, p := range DefaultProfiles() {
		d := New(p)
		d.Warm(0)
		r := d.Execute(0, w, 65536)
		powers[p.Kind] = r.AvgPowerW()
	}
	if powers[IntegratedGPU] >= powers[CPU] || powers[IntegratedGPU] >= powers[DiscreteGPU] {
		t.Fatalf("iGPU should draw the least power: %v", powers)
	}
}

func TestResetRestoresColdIdle(t *testing.T) {
	d := New(NvidiaGTX1080Ti())
	d.Warm(0)
	d.Execute(0, testWorkload(), 1024)
	d.Reset()
	if st := d.StateAt(0); st.Warm || st.BusyUntil != 0 {
		t.Fatalf("Reset left state %+v", st)
	}
	if execs, busy := d.Stats(); execs != 0 || busy != 0 {
		t.Fatal("Reset should clear counters")
	}
}

func TestStatsAccumulate(t *testing.T) {
	d := New(IntelCoreI7_8700())
	r1 := d.Execute(0, testWorkload(), 10)
	r2 := d.Execute(0, testWorkload(), 10)
	execs, busy := d.Stats()
	if execs != 2 || busy != r1.Latency+r2.Latency {
		t.Fatalf("Stats = %d, %v", execs, busy)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{CPU: "cpu", IntegratedGPU: "igpu", DiscreteGPU: "dgpu", Accelerator: "accel", Kind(42): "unknown"} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestThroughputGbps(t *testing.T) {
	r := Report{Batch: 1000, Latency: time.Millisecond}
	// 1000 samples × 125 bytes × 8 bits / 1ms = 1 Gbit/s.
	if got := r.ThroughputGbps(125); got < 0.999 || got > 1.001 {
		t.Fatalf("ThroughputGbps = %g, want 1", got)
	}
	if (Report{}).ThroughputGbps(10) != 0 || (Report{}).AvgPowerW() != 0 {
		t.Fatal("zero-latency report should not divide by zero")
	}
}

func TestExplainBreakdown(t *testing.T) {
	w := WorkloadOf(mustNet(t))
	for _, p := range DefaultProfiles() {
		for _, warm := range []bool{false, true} {
			b := Explain(p, w, 4096, warm)
			if b.Device != p.Name || b.Batch != 4096 {
				t.Fatalf("identity fields wrong: %+v", b)
			}
			if b.TotalLatency <= 0 || b.EnergyJ <= 0 {
				t.Fatalf("%s: degenerate breakdown", p.Name)
			}
			if b.Bound != "compute" && b.Bound != "memory" {
				t.Fatalf("%s: bound = %q", p.Name, b.Bound)
			}
			if p.Kind != DiscreteGPU && b.Transfer != 0 {
				t.Fatalf("%s: unified memory charged transfer", p.Name)
			}
			// Breakdown pieces must not exceed the total (boost and
			// roofline make the total at least the max term).
			if b.Compute > b.TotalLatency && b.Memory > b.TotalLatency {
				t.Fatalf("%s: both roofline terms exceed the total", p.Name)
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
	cold := Explain(NvidiaGTX1080Ti(), w, 4096, false)
	warm := Explain(NvidiaGTX1080Ti(), w, 4096, true)
	if warm.TotalLatency >= cold.TotalLatency {
		t.Fatal("warm breakdown not faster than cold")
	}
	if cold.ClockFrac >= warm.ClockFrac {
		t.Fatal("clock fractions wrong")
	}
}

func mustNet(t *testing.T) *nn.Network {
	t.Helper()
	spec, err := models.ByName("mnist-small")
	if err != nil {
		t.Fatal(err)
	}
	return spec.MustBuild(1)
}
