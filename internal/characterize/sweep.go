// Package characterize reproduces the paper's performance
// characterisation (§IV-C, Figs. 3 and 4): sweeps of every workload model
// over every device, batch size and discrete-GPU start state, measuring
// throughput, latency, power and energy — and, on top of those sweeps,
// the labelled dataset that trains the scheduler (§V-B): 21 architectures
// × batch sizes × GPU states with per-policy best-device labels,
// replicated with measurement noise to the paper's ≈1480 samples.
package characterize

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"bomw/internal/device"
	"bomw/internal/nn"
	"bomw/internal/opencl"
)

// PaperBatches returns the sample sizes of Figs. 3-4: powers of two from
// 2 to 256K.
func PaperBatches() []int {
	var out []int
	for n := 2; n <= 256*1024; n *= 2 {
		out = append(out, n)
	}
	return out
}

// Point is one measurement: a model×device×batch×state configuration and
// the metrics the paper plots.
type Point struct {
	Model        string
	Device       string
	Kind         device.Kind
	Batch        int
	GPUWarmStart bool

	Latency        time.Duration // first-batch latency from the given state
	SteadyLatency  time.Duration // per-batch latency once the device is warm
	ThroughputGbps float64       // sustained input throughput (steady state)
	EnergyJ        float64       // Joules for the first batch (Fig. 4)
	AvgPowerW      float64       // average power during the first batch
}

// Sweeper runs characterisation sweeps on a fixed set of device profiles.
type Sweeper struct {
	Profiles []device.Profile
	// Noise is the relative standard deviation of multiplicative
	// measurement noise applied to latency and energy (0 = clean curves
	// for figure generation; the dataset builder uses ≈0.12 to model the
	// run-to-run variance of a real testbed).
	Noise float64
	Seed  int64

	mu sync.Mutex
	// progs holds, per spec name, the kernel pipeline compiled from the
	// spec's outline: a sweep only ever charges (Estimate), and a charge
	// reads shapes, so no weight is built and every measurement of a spec
	// loads the same Program into its fresh runtime.
	progs map[string]*opencl.Program
}

// NewSweeper builds a sweeper over the paper's three devices.
func NewSweeper() *Sweeper {
	return &Sweeper{Profiles: device.DefaultProfiles(), Seed: 1}
}

// programFor returns the cached compiled outline of a spec.
func (s *Sweeper) programFor(spec *nn.Spec) (*opencl.Program, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prog, ok := s.progs[spec.Name]; ok {
		return prog, nil
	}
	net, err := spec.Outline()
	if err != nil {
		return nil, err
	}
	prog, err := opencl.BuildProgram(net)
	if err != nil {
		return nil, err
	}
	if s.progs == nil {
		s.progs = map[string]*opencl.Program{}
	}
	s.progs[spec.Name] = prog
	return prog, nil
}

// steadyRuns is how many consecutive batches the sustained-throughput
// measurement pipelines before reading the steady-state batch time.
const steadyRuns = 3

// Measure runs one configuration from a cold system and returns its
// point. Each call uses fresh devices, matching the paper's methodology
// of controlled per-configuration measurements.
func (s *Sweeper) Measure(spec *nn.Spec, prof device.Profile, batch int, gpuWarm bool, rep int) (Point, error) {
	return s.measure(spec, prof, batch, gpuWarm, rep, nil)
}

// measure is Measure drawing its noise from rng, re-seeded for the
// configuration (the stream rand.NewSource would start); a nil rng is a
// fresh one. A sweep worker passes the one it keeps.
func (s *Sweeper) measure(spec *nn.Spec, prof device.Profile, batch int, gpuWarm bool, rep int, rng *rand.Rand) (Point, error) {
	prog, err := s.programFor(spec)
	if err != nil {
		return Point{}, err
	}
	net := prog.Net
	dev := device.New(prof)
	rt, err := opencl.NewRuntime(dev)
	if err != nil {
		return Point{}, err
	}
	if err := rt.LoadProgram(prog); err != nil {
		return Point{}, err
	}
	if gpuWarm {
		dev.Warm(0)
	}

	first, err := rt.Estimate(prof.Name, net.Name(), batch, 0)
	if err != nil {
		return Point{}, err
	}
	// Sustained throughput: pipeline further batches back-to-back and
	// take the last one's latency, which reflects the warmed device.
	last := first
	for i := 1; i < steadyRuns; i++ {
		last, err = rt.Estimate(prof.Name, net.Name(), batch, last.Completed)
		if err != nil {
			return Point{}, err
		}
	}

	latency := first.Latency()
	steady := last.Latency()
	energy := first.EnergyJ
	if s.Noise > 0 {
		seed := s.Seed ^ hashConfig(spec.Name, prof.Name, batch, gpuWarm, rep)
		if rng == nil {
			rng = rand.New(rand.NewSource(seed))
		} else {
			rng.Seed(seed)
		}
		latency = jitterDuration(rng, latency, s.Noise)
		steady = jitterDuration(rng, steady, s.Noise)
		energy *= jitterFactor(rng, s.Noise)
	}

	p := Point{
		Model:         spec.Name,
		Device:        prof.Name,
		Kind:          prof.Kind,
		Batch:         batch,
		GPUWarmStart:  gpuWarm,
		Latency:       latency,
		SteadyLatency: steady,
		EnergyJ:       energy,
	}
	if steady > 0 {
		p.ThroughputGbps = float64(batch) * float64(net.SampleBytes()) * 8 / steady.Seconds() / 1e9
	}
	if latency > 0 {
		p.AvgPowerW = energy / latency.Seconds()
	}
	return p, nil
}

// Sweep measures every model×device×batch×GPU-state configuration — the
// full grid behind Figs. 3 and 4.
func (s *Sweeper) Sweep(specs []*nn.Spec, batches []int) ([]Point, error) {
	var out []Point
	for _, spec := range specs {
		for _, prof := range s.Profiles {
			states := []bool{false}
			if prof.HasBoost {
				states = []bool{false, true} // idle GTX 1080 Ti vs warmed
			}
			for _, warm := range states {
				for _, n := range batches {
					p, err := s.Measure(spec, prof, n, warm, 0)
					if err != nil {
						return nil, fmt.Errorf("characterize: %s on %s batch %d: %w", spec.Name, prof.Name, n, err)
					}
					out = append(out, p)
				}
			}
		}
	}
	return out, nil
}

func hashConfig(model, dev string, batch int, warm bool, rep int) int64 {
	h := int64(1469598103934665603)
	mix := func(s string) {
		for _, c := range s {
			h ^= int64(c)
			h *= 1099511628211
		}
	}
	mix(model)
	mix(dev)
	h ^= int64(batch) * 2654435761
	if warm {
		h ^= 0x5bf03635
	}
	h ^= int64(rep) * 40503
	return h
}

func jitterFactor(rng *rand.Rand, sd float64) float64 {
	f := 1 + rng.NormFloat64()*sd
	return math.Max(0.5, math.Min(1.5, f))
}

func jitterDuration(rng *rand.Rand, d time.Duration, sd float64) time.Duration {
	return time.Duration(float64(d) * jitterFactor(rng, sd))
}
