package device

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Device is one simulated processor with mutable execution state: a busy
// horizon (requests queue behind each other) and, for boosted devices, the
// accumulated warm-up credit of the Boost clock state machine. All methods
// are safe for concurrent use; time is virtual and supplied by the caller.
type Device struct {
	prof Profile

	mu        sync.Mutex
	busyUntil time.Duration // virtual time the device becomes free
	boostBusy time.Duration // busy credit accumulated toward full clocks
	lastEnd   time.Duration // virtual time of last execution end
	slowdown  float64       // external interference factor (0 or 1 = none)
	thermal   Thermal       // opt-in throttling model (§I clock changes)
	heat      time.Duration // thermal leaky-bucket fill
	govClock  float64       // DVFS clock scale (0 or 1 = performance)
	govPower  float64       // DVFS power scale (0 or 1 = performance)
	execs     int64
	busyTotal time.Duration
}

// New creates a cold device from a profile.
func New(p Profile) *Device { return &Device{prof: p} }

// Name returns the device name.
func (d *Device) Name() string { return d.prof.Name }

// Kind returns the device kind.
func (d *Device) Kind() Kind { return d.prof.Kind }

// Profile returns the device's calibration constants.
func (d *Device) Profile() Profile { return d.prof }

// UnifiedMemory reports whether the device shares physical memory with
// the host — it has no PCIe link — without copying the Profile.
func (d *Device) UnifiedMemory() bool { return d.prof.PCIeGBs <= 0 }

// Report describes one simulated batch execution.
type Report struct {
	Device string
	Model  string
	Batch  int

	Start      time.Duration // when execution began (after queueing)
	QueueDelay time.Duration
	Transfer   time.Duration // PCIe in+out (zero for unified memory)
	Launch     time.Duration // kernel launch overhead at full clocks
	Compute    time.Duration // dispatch + roofline time at actual clocks
	Latency    time.Duration // Transfer + Compute + Launch (clock-scaled)

	DeviceEnergyJ float64
	HostEnergyJ   float64

	Utilization float64 // fraction of the device's parallel width used
	ClockFrac   float64 // clock fraction when execution started
	StartedWarm bool
}

// EnergyJ returns the total Joules charged to this execution: device plus
// host-assist, matching the paper's component accounting (§IV-C).
func (r Report) EnergyJ() float64 { return r.DeviceEnergyJ + r.HostEnergyJ }

// AvgPowerW returns average power over the execution.
func (r Report) AvgPowerW() float64 {
	if r.Latency <= 0 {
		return 0
	}
	return r.EnergyJ() / r.Latency.Seconds()
}

// ThroughputGbps returns input-payload throughput in Gbit/s, the unit of
// the paper's Fig. 3.
func (r Report) ThroughputGbps(sampleBytes int64) float64 {
	if r.Latency <= 0 {
		return 0
	}
	return float64(r.Batch) * float64(sampleBytes) * 8 / r.Latency.Seconds() / 1e9
}

// String summarises the report.
func (r Report) String() string {
	return fmt.Sprintf("%s×%d on %s: latency=%v energy=%.3gJ util=%.2f clock=%.2f",
		r.Model, r.Batch, r.Device, r.Latency, r.EnergyJ(), r.Utilization, r.ClockFrac)
}

// Execute simulates classifying a batch of n samples of workload w,
// submitted at virtual time at. The execution queues behind any earlier
// work on the device. The returned report carries latency and energy; the
// device's boost and queue state advance accordingly.
func (d *Device) Execute(at time.Duration, w Workload, n int) Report {
	if n <= 0 {
		panic(fmt.Sprintf("device: batch size must be positive, got %d", n))
	}
	d.mu.Lock()
	defer d.mu.Unlock()

	start := at
	if d.busyUntil > start {
		start = d.busyUntil
	}
	d.coolLocked(start)
	frac0 := d.clockFrac(d.boostBusy)

	transfer := d.transferTime(w, n)
	launch := time.Duration(w.Kernels) * d.prof.KernelLaunch
	util := d.utilization(w, n)
	warped := d.dispatchTime(w, n) + d.rooflineTime(w, n, util)
	stretch := d.slowdownLocked() / (d.thermalFactorLocked() * d.govClockLocked())
	warped = time.Duration(float64(launch+warped) * stretch)

	// Clock-scale the launch + compute portion through the boost ramp.
	scaled, busyCredit := d.boostIntegrate(warped, frac0)

	latency := transfer + scaled
	// Dynamic energy tracks work done (clock-independent); static/idle
	// power is paid for the full (possibly stretched) duration — this is
	// why cold starts always cost more Joules (§IV-C, Fig. 4).
	devE := d.prof.IdleWatts*latency.Seconds() +
		(d.prof.ActiveWatts*d.govPowerLocked()-d.prof.IdleWatts)*util*warped.Seconds()
	hostE := d.prof.HostWatts * latency.Seconds()

	rep := Report{
		Device:        d.prof.Name,
		Model:         w.Model,
		Batch:         n,
		Start:         start,
		QueueDelay:    start - at,
		Transfer:      transfer,
		Launch:        launch,
		Compute:       scaled - d.boostStretchOf(launch, frac0),
		Latency:       latency,
		DeviceEnergyJ: devE,
		HostEnergyJ:   hostE,
		Utilization:   util,
		ClockFrac:     frac0,
		StartedWarm:   frac0 >= 0.95,
	}

	d.busyUntil = start + latency
	d.lastEnd = d.busyUntil
	d.boostBusy += busyCredit
	if d.prof.HasBoost && d.boostBusy > d.prof.WarmupBusy {
		d.boostBusy = d.prof.WarmupBusy
	}
	d.heatAfterLocked(scaled)
	d.execs++
	d.busyTotal += latency
	return rep
}

// transferTime models the PCIe round trip: fixed latency per direction
// plus a size-ramped effective bandwidth, so small transfers are
// disproportionately expensive (§II-A). Unified-memory devices pay nothing
// (clEnqueueMapBuffer zero-copy).
func (d *Device) transferTime(w Workload, n int) time.Duration {
	if d.prof.PCIeGBs <= 0 {
		return 0
	}
	in := float64(int64(n)*w.SampleBytes + w.PCIeExtraBytes())
	out := float64(int64(n) * w.OutputBytes)
	ramp := float64(d.prof.PCIeRampBytes)
	bw := d.prof.PCIeGBs * 1e9
	secs := (in+ramp)/bw + (out+ramp)/bw
	return 2*d.prof.PCIeLatency + time.Duration(secs*float64(time.Second))
}

// dispatchTime charges per-work-item and per-work-group overheads for the
// batch across all kernels.
func (d *Device) dispatchTime(w Workload, n int) time.Duration {
	items := float64(int64(n) * w.ItemsPerSample)
	groups := items/float64(d.prof.WorkGroupSize) + float64(w.Kernels)
	ns := items*d.prof.PerItemNs + groups*d.prof.PerGroupNs
	return time.Duration(ns)
}

// utilization returns the fraction of the device's parallel width the
// batch can occupy: small batches under-fill wide devices (§IV-C).
func (d *Device) utilization(w Workload, n int) float64 {
	concurrent := float64(int64(n) * w.AvgLayerWidth)
	u := concurrent / float64(d.prof.ParallelWidth)
	if u > 1 {
		return 1
	}
	if u < 0.01 {
		return 0.01
	}
	return u
}

// rooflineTime returns max(compute, memory) time at full clocks.
func (d *Device) rooflineTime(w Workload, n int, util float64) time.Duration {
	flops := float64(int64(n) * w.FlopsPerSample)
	tComp := flops / (d.prof.PeakGFLOPS * 1e9 * util)

	traffic := float64(int64(n) * (w.SampleBytes + 2*w.ActivationBytes))
	if w.WeightBytes <= d.prof.CacheBytes {
		traffic += float64(w.WeightBytes) // streamed once, then cached
	} else {
		traffic += float64(int64(n)*w.WeightBytes) / d.prof.WeightReuse
	}
	tMem := traffic / (d.prof.MemBandwidthGBs * 1e9)

	secs := tComp
	if tMem > secs {
		secs = tMem
	}
	return time.Duration(secs * float64(time.Second))
}

// boostIntegrate stretches a full-clock duration through the boost ramp
// starting at clock fraction frac0, returning the wall duration and the
// busy credit earned. Devices without boost run 1:1.
func (d *Device) boostIntegrate(work time.Duration, frac0 float64) (wall, credit time.Duration) {
	if !d.prof.HasBoost || frac0 >= 1 {
		return work, work
	}
	f0 := d.prof.IdleClock
	wu := d.prof.WarmupBusy.Seconds()
	k := (1 - f0) / wu
	b0 := (frac0 - f0) / k // current busy credit in seconds
	W := work.Seconds()

	// Phase 1: clocks ramp linearly until credit reaches warm-up.
	tau1 := wu - b0
	cap1 := frac0*tau1 + k*tau1*tau1/2
	var T float64
	if W <= cap1 {
		// Solve (k/2)τ² + frac0·τ − W = 0.
		T = (-frac0 + math.Sqrt(frac0*frac0+2*k*W)) / k
	} else {
		T = tau1 + (W - cap1)
	}
	return time.Duration(T * float64(time.Second)), time.Duration(T * float64(time.Second))
}

// boostStretchOf reports how long a full-clock duration d0 lasts at the
// starting clock fraction, for report breakdown purposes only.
func (d *Device) boostStretchOf(d0 time.Duration, frac0 float64) time.Duration {
	if !d.prof.HasBoost || frac0 <= 0 {
		return d0
	}
	return time.Duration(float64(d0) / frac0)
}

// coolLocked commits the idle gap before now — boost credit and heat
// both decay — and moves lastEnd to now, so the gap is cooled once.
// Every method that moves lastEnd calls it first.
func (d *Device) coolLocked(now time.Duration) {
	if now <= d.lastEnd {
		return
	}
	d.boostBusy = d.cooledBoostLocked(now)
	d.coolHeatLocked(now - d.lastEnd)
	d.lastEnd = now
}

// cooledBoostLocked is the boost credit left after the idle gap before
// now, without storing it.
func (d *Device) cooledBoostLocked(now time.Duration) time.Duration {
	idle := now - d.lastEnd
	if !d.prof.HasBoost || d.boostBusy == 0 || idle <= 0 {
		return d.boostBusy
	}
	f := 1 - idle.Seconds()/d.prof.Cooldown.Seconds()
	if f <= 0 {
		return 0
	}
	return time.Duration(float64(d.boostBusy) * f)
}

// clockFrac returns the clock fraction in [IdleClock, 1] that boost
// credit buys.
func (d *Device) clockFrac(boost time.Duration) float64 {
	if !d.prof.HasBoost {
		return 1
	}
	return d.prof.IdleClock + (1-d.prof.IdleClock)*
		math.Min(1, boost.Seconds()/d.prof.WarmupBusy.Seconds())
}

// State is the device condition a scheduler can probe (the paper's
// "PCIe call to check the state of the discrete GPU", §V-A).
type State struct {
	Warm      bool
	ClockFrac float64
	BusyUntil time.Duration
}

// StateAt probes the device state at virtual time now. The probe is a
// pure read: it cools the idle gap in its answer, not in the device, so
// repeated probes agree. It is also free; schedulers that model probe
// cost should charge Profile.PCIeLatency.
func (d *Device) StateAt(now time.Duration) State {
	d.mu.Lock()
	defer d.mu.Unlock()
	f := d.clockFrac(d.cooledBoostLocked(now))
	return State{Warm: f >= 0.95, ClockFrac: f, BusyUntil: d.busyUntil}
}

// Warm forces the device to full boost clocks (used by experiments that
// start from a warmed-up GPU, footnote 1 of the paper).
func (d *Device) Warm(now time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.boostBusy = d.prof.WarmupBusy
	d.lastEnd = now
	if d.busyUntil < now {
		d.busyUntil = now
	}
}

// Reset returns the device to a cold, idle state at virtual time zero.
func (d *Device) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.busyUntil, d.boostBusy, d.lastEnd = 0, 0, 0
	d.slowdown = 0
	d.heat = 0
	d.govClock, d.govPower = 0, 0
	d.execs, d.busyTotal = 0, 0
}

// Stats returns lifetime execution counters.
func (d *Device) Stats() (execs int64, busy time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.execs, d.busyTotal
}

// PCIeExtraBytes lets a workload charge additional per-batch transfer
// payload (none for the paper's models; hook for future workloads).
func (w Workload) PCIeExtraBytes() int64 { return 0 }
