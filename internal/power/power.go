// Package power reproduces the paper's power instrumentation scheme
// (§III-A1): live power readings per hardware component and accurate
// energy accounting over the component set each execution actually uses.
//
// On the paper's testbed the readings come from nvidia-smi (GTX 1080 Ti)
// and Intel Processor Counter Monitor (CPU package, including the iGPU).
// Here, the same interfaces are fed by the device models: every execution
// report a caller records contributes a (start, end, power) interval to a
// Recorder, and sampler types expose nvidia-smi-like and PCM-like views
// over it.
package power

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"bomw/internal/device"
)

// Interval is one span of device activity with its average power draw.
type Interval struct {
	Device string
	Start  time.Duration
	End    time.Duration
	Watts  float64 // average power over the interval, including idle floor
}

// Recorder collects activity intervals per device and answers power and
// energy queries over virtual time. Devices draw their idle power outside
// recorded intervals. Safe for concurrent use.
type Recorder struct {
	mu        sync.Mutex
	idleWatts map[string]float64
	intervals map[string][]Interval
	sorted    map[string]bool
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		idleWatts: map[string]float64{},
		intervals: map[string][]Interval{},
		sorted:    map[string]bool{},
	}
}

// Register declares a device and its idle power floor.
func (r *Recorder) Register(name string, idleWatts float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.idleWatts[name] = idleWatts
}

// Record adds an execution report's device activity to the trace.
func (r *Recorder) Record(rep device.Report) {
	if rep.Latency <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.intervals[rep.Device] = append(r.intervals[rep.Device], Interval{
		Device: rep.Device,
		Start:  rep.Start,
		End:    rep.Start + rep.Latency,
		Watts:  rep.DeviceEnergyJ / rep.Latency.Seconds(),
	})
	r.sorted[rep.Device] = false
}

func (r *Recorder) sortLocked(dev string) []Interval {
	ivs := r.intervals[dev]
	if !r.sorted[dev] {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
		r.sorted[dev] = true
	}
	return ivs
}

// PowerAt returns the instantaneous power draw of a device at virtual
// time t: the active power of any covering interval, otherwise the idle
// floor. Unknown devices read zero (as nvidia-smi would error).
func (r *Recorder) PowerAt(dev string, t time.Duration) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.idleWatts[dev]
	for _, iv := range r.sortLocked(dev) {
		if iv.Start > t {
			break
		}
		if t < iv.End {
			if iv.Watts > w {
				w = iv.Watts
			}
		}
	}
	return w
}

// EnergyBetween integrates a device's energy over [t0, t1): active
// intervals at their recorded power, gaps at the idle floor.
func (r *Recorder) EnergyBetween(dev string, t0, t1 time.Duration) float64 {
	if t1 <= t0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	idle := r.idleWatts[dev]
	total := 0.0
	covered := time.Duration(0)
	for _, iv := range r.sortLocked(dev) {
		s, e := iv.Start, iv.End
		if s < t0 {
			s = t0
		}
		if e > t1 {
			e = t1
		}
		if e <= s {
			continue
		}
		total += iv.Watts * (e - s).Seconds()
		covered += e - s
	}
	total += idle * ((t1 - t0) - covered).Seconds()
	return total
}

// NvidiaSMI mimics the nvidia-smi power-management query interface over a
// recorder (§III-A1). From Kepler onward nvidia-smi reports the board's
// live power draw; PowerDraw is that reading.
type NvidiaSMI struct {
	Rec    *Recorder
	Device string
	Limit  float64 // board power limit (TDP), watts
}

// PowerDraw returns the live board draw at virtual time t.
func (n *NvidiaSMI) PowerDraw(t time.Duration) float64 { return n.Rec.PowerAt(n.Device, t) }

// Query renders an nvidia-smi-style line, e.g. "P0 187.3W / 250W".
func (n *NvidiaSMI) Query(t time.Duration) string {
	w := n.PowerDraw(t)
	state := "P8" // idle performance state
	if w > n.Limit*0.3 {
		state = "P2"
	}
	if w > n.Limit*0.7 {
		state = "P0"
	}
	return fmt.Sprintf("%s %.1fW / %.0fW", state, w, n.Limit)
}

// PCM mimics Intel Processor Counter Monitor's package-power counters:
// the CPU cores and the iGPU live in the same package, so PackagePower is
// their sum (§III-A: L3 and the memory controller are shared).
type PCM struct {
	Rec  *Recorder
	CPU  string
	IGPU string
}

// PackagePower returns the package draw (cores + integrated graphics).
func (p *PCM) PackagePower(t time.Duration) float64 {
	w := p.Rec.PowerAt(p.CPU, t)
	if p.IGPU != "" {
		w += p.Rec.PowerAt(p.IGPU, t)
	}
	return w
}

// PackageEnergy integrates package energy over [t0, t1).
func (p *PCM) PackageEnergy(t0, t1 time.Duration) float64 {
	e := p.Rec.EnergyBetween(p.CPU, t0, t1)
	if p.IGPU != "" {
		e += p.Rec.EnergyBetween(p.IGPU, t0, t1)
	}
	return e
}
