package device

import (
	"fmt"
	"time"

	"bomw/internal/nn"
)

// This file provides the per-command execution primitives used by the
// simulated OpenCL runtime (internal/opencl): individual kernel launches
// and explicit buffer transfers. The aggregate Execute is the sum of one
// TransferIn, one ExecuteCompute per layer-kernel, and one TransferOut;
// the runtime path decomposes the same physics per command so profiling
// events (CL_PROFILING_COMMAND_*) are meaningful.

// LayerWorkloads splits a network into one Workload per kernel launch
// (each with Kernels = 1), preserving per-layer parallelism so kernel
// utilisation is modelled more precisely than the whole-model average.
func LayerWorkloads(net *nn.Network) []Workload {
	var out []Workload
	shape := net.InputShape()
	inBytes := int64(4)
	for _, d := range shape {
		inBytes *= int64(d)
	}
	for _, l := range net.Layers() {
		outShape := l.OutputShape(shape)
		outBytes := int64(4)
		items := int64(1)
		for _, d := range outShape {
			outBytes *= int64(d)
			items *= int64(d)
		}
		if !isReshape(l) {
			out = append(out, Workload{
				Model:           net.Name() + "/" + l.Name(),
				FlopsPerSample:  l.FlopsPerSample(shape),
				SampleBytes:     0, // no PCIe per kernel; buffers handle it
				OutputBytes:     0,
				WeightBytes:     l.ParamBytes(),
				ActivationBytes: (inBytes + outBytes) / 2,
				ItemsPerSample:  items,
				Kernels:         1,
				AvgLayerWidth:   items,
			})
		}
		shape = outShape
		inBytes = outBytes
	}
	return out
}

// ExecuteCompute simulates one kernel launch (no host transfers): launch
// overhead, dispatch, roofline and the boost clock ramp. It queues behind
// earlier work exactly like Execute.
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

	launch := time.Duration(w.Kernels) * d.prof.KernelLaunch
	util := d.utilization(w, n)
	warped := d.dispatchTime(w, n) + d.rooflineTime(w, n, util)
	stretch := d.slowdownLocked() / (d.thermalFactorLocked() * d.govClockLocked())
	warped = time.Duration(float64(launch+warped) * stretch)
	scaled, credit := d.boostIntegrate(warped, frac0)

	devE := d.prof.IdleWatts*scaled.Seconds() +
		(d.prof.ActiveWatts*d.govPowerLocked()-d.prof.IdleWatts)*util*warped.Seconds()
	rep := Report{
		Device:        d.prof.Name,
		Model:         w.Model,
		Batch:         n,
		Start:         start,
		QueueDelay:    start - at,
		Launch:        launch,
		Compute:       scaled,
		Latency:       scaled,
		DeviceEnergyJ: devE,
		HostEnergyJ:   d.prof.HostWatts * scaled.Seconds(),
		Utilization:   util,
		ClockFrac:     frac0,
		StartedWarm:   frac0 >= 0.95,
	}
	d.busyUntil = start + scaled
	d.lastEnd = d.busyUntil
	d.boostBusy += credit
	if d.prof.HasBoost && d.boostBusy > d.prof.WarmupBusy {
		d.boostBusy = d.prof.WarmupBusy
	}
	d.heatAfterLocked(scaled)
	d.execs++
	d.busyTotal += scaled
	return rep
}

// Transfer simulates moving bytes between host and device memory over the
// interconnect (direction does not change the cost model). Unified-memory
// devices return a zero-latency report: clEnqueueMapBuffer is free
// (§IV-B). During DMA the device draws idle power and the host its assist
// power.
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
