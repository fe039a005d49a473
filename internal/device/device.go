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
//
// A batch is charged as its OpenCL command sequence (internal/opencl): one
// ExecuteCompute per layer kernel, with a Transfer before and after on a
// discrete device. Those two methods are the whole cost model.
type Device struct {
	prof Profile

	mu        sync.Mutex
	busyUntil time.Duration // virtual time the device becomes free
	boostBusy time.Duration // busy credit accumulated toward full clocks
	lastEnd   time.Duration // virtual time of last execution end
	slowdown  float64       // external interference factor (0 or 1 = none)
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

// Report describes one simulated command: a kernel launch or a transfer.
type Report struct {
	Device string
	Model  string
	Batch  int

	Start      time.Duration // when execution began (after queueing)
	QueueDelay time.Duration
	Transfer   time.Duration // PCIe time of a transfer (zero for unified memory)
	Launch     time.Duration // kernel launch overhead at full clocks
	Compute    time.Duration // a kernel's launch + dispatch + roofline time at actual clocks
	Latency    time.Duration // the command's duration: Transfer or Compute

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

// String summarises the report.
func (r Report) String() string {
	return fmt.Sprintf("%s×%d on %s: latency=%v energy=%.3gJ util=%.2f clock=%.2f",
		r.Model, r.Batch, r.Device, r.Latency, r.EnergyJ(), r.Utilization, r.ClockFrac)
}

// KernelCost is one kernel launch's cost at full clocks, split into the
// terms ExecuteCompute charges before interference and the boost ramp
// stretch it: launch overhead, dispatch, and a roofline whose longer side
// binds.
type KernelCost struct {
	Launch   time.Duration // clEnqueueNDRangeKernel overhead
	Dispatch time.Duration // per-work-item and per-work-group scheduling
	Compute  time.Duration // FLOP time at the achieved utilisation
	Memory   time.Duration // bytes moved / bandwidth, the roofline's partner
	// Utilization is the fraction of the device's parallel width the
	// batch occupies: small batches under-fill wide devices (§IV-C).
	Utilization float64
}

// Roofline returns max(Compute, Memory).
func (c KernelCost) Roofline() time.Duration { return max(c.Compute, c.Memory) }

// KernelCost returns the full-clock cost terms of one launch of kernel w
// over a batch of n samples on this device.
func (p *Profile) KernelCost(w Workload, n int) KernelCost {
	items := float64(int64(n) * w.ItemsPerSample)
	util := min(max(items/float64(p.ParallelWidth), 0.01), 1)
	groups := items/float64(p.WorkGroupSize) + 1

	traffic := float64(int64(n) * 2 * w.ActivationBytes)
	if w.WeightBytes <= p.CacheBytes {
		traffic += float64(w.WeightBytes) // streamed once, then cached
	} else {
		traffic += float64(int64(n)*w.WeightBytes) / p.WeightReuse
	}
	flops := float64(int64(n) * w.FlopsPerSample)
	return KernelCost{
		Launch:      p.KernelLaunch,
		Dispatch:    time.Duration(items*p.PerItemNs + groups*p.PerGroupNs),
		Compute:     time.Duration(flops / (p.PeakGFLOPS * 1e9 * util) * float64(time.Second)),
		Memory:      time.Duration(traffic / (p.MemBandwidthGBs * 1e9) * float64(time.Second)),
		Utilization: util,
	}
}

// ExecuteCompute simulates one kernel launch (no host transfers): launch
// overhead, dispatch, roofline and the boost clock ramp, stretched by any
// interference. It queues behind earlier work on the device; the
// device's boost and queue state advance accordingly. Dynamic energy
// tracks work done (clock-independent); idle power is paid for the full,
// possibly stretched, duration — this is why cold starts always cost
// more Joules (§IV-C, Fig. 4).
func (d *Device) ExecuteCompute(at time.Duration, w Workload, n int) Report {
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

	c := d.prof.KernelCost(w, n)
	warped := time.Duration(float64(c.Launch+c.Dispatch+c.Roofline()) * d.slowdownLocked())
	scaled, credit := d.boostIntegrate(warped, frac0)

	devE := d.prof.IdleWatts*scaled.Seconds() +
		(d.prof.ActiveWatts-d.prof.IdleWatts)*c.Utilization*warped.Seconds()
	rep := Report{
		Device:        d.prof.Name,
		Model:         w.Model,
		Batch:         n,
		Start:         start,
		QueueDelay:    start - at,
		Launch:        c.Launch,
		Compute:       scaled,
		Latency:       scaled,
		DeviceEnergyJ: devE,
		HostEnergyJ:   d.prof.HostWatts * scaled.Seconds(),
		Utilization:   c.Utilization,
		ClockFrac:     frac0,
		StartedWarm:   frac0 >= 0.95,
	}
	d.busyUntil = start + scaled
	d.lastEnd = d.busyUntil
	d.boostBusy += credit
	if d.prof.HasBoost && d.boostBusy > d.prof.WarmupBusy {
		d.boostBusy = d.prof.WarmupBusy
	}
	return rep
}

// Transfer simulates moving bytes between host and device memory over the
// interconnect (direction does not change the cost model): a fixed
// latency plus a size-ramped effective bandwidth, so small transfers are
// disproportionately expensive (§II-A). Unified-memory devices return a
// zero-latency report: clEnqueueMapBuffer is free (§IV-B). During DMA the
// device draws idle power and the host its assist power.
func (d *Device) Transfer(at time.Duration, bytes int64) Report {
	if bytes < 0 {
		panic(fmt.Sprintf("device: negative transfer size %d", bytes))
	}
	d.mu.Lock()
	defer d.mu.Unlock()

	start := at
	if d.busyUntil > start {
		start = d.busyUntil
	}
	var dur time.Duration
	if d.prof.PCIeGBs > 0 && bytes > 0 {
		secs := (float64(bytes) + float64(d.prof.PCIeRampBytes)) / (d.prof.PCIeGBs * 1e9)
		dur = d.prof.PCIeLatency + time.Duration(secs*float64(time.Second))
		d.coolLocked(start) // the idle gap ends here: the device moves lastEnd below
	}
	rep := Report{
		Device:        d.prof.Name,
		Model:         "transfer",
		Start:         start,
		QueueDelay:    start - at,
		Transfer:      dur,
		Latency:       dur,
		DeviceEnergyJ: d.prof.IdleWatts * dur.Seconds(),
		HostEnergyJ:   d.prof.HostWatts * dur.Seconds(),
		ClockFrac:     d.clockFrac(d.boostBusy),
	}
	d.busyUntil = start + dur
	if dur > 0 {
		d.lastEnd = d.busyUntil
	}
	return rep
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

// coolLocked commits the idle gap before now — boost credit decays — and
// moves lastEnd to now, so the gap is cooled once.
// Every method that moves lastEnd calls it first.
func (d *Device) coolLocked(now time.Duration) {
	if now <= d.lastEnd {
		return
	}
	d.boostBusy = d.cooledBoostLocked(now)
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
}
