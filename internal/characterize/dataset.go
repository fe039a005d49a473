package characterize

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"bomw/internal/device"
	"bomw/internal/nn"
)

// Objective is the scheduling policy dimension of §V-A: the metric the
// device selection optimises.
type Objective int

const (
	// BestThroughput maximises sustained samples/second.
	BestThroughput Objective = iota
	// LowestLatency minimises first-batch completion time from the
	// current device state.
	LowestLatency
	// EnergyEfficiency minimises Joules per batch.
	EnergyEfficiency
)

// Objectives lists all policies.
func Objectives() []Objective {
	return []Objective{BestThroughput, LowestLatency, EnergyEfficiency}
}

// String names the policy as the paper does (Fig. 5).
func (o Objective) String() string {
	switch o {
	case BestThroughput:
		return "best-throughput"
	case LowestLatency:
		return "lowest-latency"
	case EnergyEfficiency:
		return "energy-efficiency"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Features assembles the scheduler's input representation (§V-B): the
// architecture descriptor, the (log₂-scaled) batch size and the probed
// discrete-GPU state.
func Features(desc nn.Descriptor, batch int, gpuWarm bool) []float64 {
	warm := 0.0
	if gpuWarm {
		warm = 1
	}
	f := desc.AppendFeatures(make([]float64, 0, nn.NumFeatures+2))
	return append(f, log2(batch), warm)
}

// DatasetFeatureNames labels Features() columns.
func DatasetFeatureNames() []string {
	return append(nn.FeatureNames(), "log2_batch", "gpu_warm")
}

func log2(n int) float64 {
	v := 0.0
	for m := n; m > 1; m >>= 1 {
		v++
	}
	return v
}

// LabeledSet is the scheduler's training corpus: one row per measured
// configuration with a best-device label for every policy.
type LabeledSet struct {
	FeatureNames []string
	Devices      []string // class index → device name
	Kinds        []device.Kind
	X            [][]float64
	Y            map[Objective][]int
	Models       []string // provenance: the model behind each row
	Batches      []int
	GPUWarm      []bool
}

// Len returns the number of samples.
func (s *LabeledSet) Len() int { return len(s.X) }

// ClassShares returns the label distribution of one objective (the paper
// reports 30/40/30 CPU/GPU/iGPU).
func (s *LabeledSet) ClassShares(o Objective) []float64 {
	counts := make([]float64, len(s.Devices))
	for _, c := range s.Y[o] {
		counts[c]++
	}
	for i := range counts {
		counts[i] /= float64(len(s.Y[o]))
	}
	return counts
}

// BuildDataset measures every spec × batch × GPU-state configuration reps
// times under measurement noise and labels each replica with the
// best device per policy. With the 21 training architectures, the paper's
// batch grid and reps = 2 this lands at ≈1500 samples, matching the
// paper's augmented dataset size (§V-B).
//
// GOMAXPROCS workers measure the configurations; the rows are appended
// in configuration order afterwards. Each measurement seeds its noise
// from its own configuration, so the set does not depend on which worker
// measured what, and an error is the first in configuration order.
func (s *Sweeper) BuildDataset(specs []*nn.Spec, batches []int, reps int) (*LabeledSet, error) {
	if reps <= 0 {
		reps = 1
	}
	set := &LabeledSet{
		FeatureNames: DatasetFeatureNames(),
		Y:            map[Objective][]int{},
	}
	for _, p := range s.Profiles {
		set.Devices = append(set.Devices, p.Name)
		set.Kinds = append(set.Kinds, p.Kind)
	}
	type config struct {
		spec  *nn.Spec
		batch int
		warm  bool
		rep   int
	}
	var configs []config
	for _, spec := range specs {
		for _, batch := range batches {
			for _, warm := range []bool{false, true} {
				for rep := 0; rep < reps; rep++ {
					configs = append(configs, config{spec, batch, warm, rep})
				}
			}
		}
	}

	objectives := Objectives()
	labels := make([]int, len(configs)*len(objectives)) // labels[i*len(objectives)+k]: config i's best device for objective k
	errs := make([]error, len(configs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(configs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(0)) // re-seeded per measurement
			pts := make([]Point, len(s.Profiles))
			for i := int(next.Add(1) - 1); i < len(configs); i = int(next.Add(1) - 1) {
				c := configs[i]
				for di, prof := range s.Profiles {
					if pts[di], errs[i] = s.measure(c.spec, prof, c.batch, c.warm && prof.HasBoost, c.rep, rng); errs[i] != nil {
						break
					}
				}
				if errs[i] == nil {
					for k, o := range objectives {
						labels[i*len(objectives)+k] = bestDevice(pts, o)
					}
				}
			}
		}()
	}
	wg.Wait()

	for i, c := range configs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		set.X = append(set.X, Features(c.spec.Descriptor(), c.batch, c.warm))
		set.Models = append(set.Models, c.spec.Name)
		set.Batches = append(set.Batches, c.batch)
		set.GPUWarm = append(set.GPUWarm, c.warm)
		for k, o := range objectives {
			set.Y[o] = append(set.Y[o], labels[i*len(objectives)+k])
		}
	}
	return set, nil
}

// bestDevice returns the class index of the winning device for a policy.
func bestDevice(pts []Point, o Objective) int {
	best := 0
	for i := 1; i < len(pts); i++ {
		if betterFor(o, pts[i], pts[best]) {
			best = i
		}
	}
	return best
}

func betterFor(o Objective, a, b Point) bool {
	switch o {
	case BestThroughput:
		return a.ThroughputGbps > b.ThroughputGbps
	case LowestLatency:
		return a.Latency < b.Latency
	case EnergyEfficiency:
		return a.EnergyJ < b.EnergyJ
	default:
		return false
	}
}

// IdealAndAchieved looks up, for one configuration, the metric of the
// ideal device and of a chosen device — the quantities behind Fig. 6's
// green/red bars and the "performance loss from wrong predictions".
type ConfigMetrics struct {
	Points []Point // one per device, profile order
}

// MeasureConfig measures all devices for one configuration.
func (s *Sweeper) MeasureConfig(spec *nn.Spec, batch int, gpuWarm bool, rep int) (ConfigMetrics, error) {
	var cm ConfigMetrics
	for _, prof := range s.Profiles {
		p, err := s.Measure(spec, prof, batch, gpuWarm && prof.HasBoost, rep)
		if err != nil {
			return ConfigMetrics{}, err
		}
		cm.Points = append(cm.Points, p)
	}
	return cm, nil
}

// Best returns the winning class index for a policy.
func (cm ConfigMetrics) Best(o Objective) int { return bestDevice(cm.Points, o) }

// MetricOf extracts a policy's scalar metric for a device class; larger
// is better for throughput, smaller for the others.
func (cm ConfigMetrics) MetricOf(o Objective, class int) float64 {
	p := cm.Points[class]
	switch o {
	case BestThroughput:
		return p.ThroughputGbps
	case LowestLatency:
		return p.Latency.Seconds()
	case EnergyEfficiency:
		return p.EnergyJ
	default:
		return 0
	}
}

// LossVersusIdeal returns the relative metric loss of picking class c
// instead of the ideal device (0 = picked the ideal device).
func (cm ConfigMetrics) LossVersusIdeal(o Objective, c int) float64 {
	ideal := cm.Best(o)
	if ideal == c {
		return 0
	}
	iv := cm.MetricOf(o, ideal)
	cv := cm.MetricOf(o, c)
	switch o {
	case BestThroughput:
		if iv <= 0 {
			return 0
		}
		return (iv - cv) / iv
	default:
		if cv <= 0 {
			return 0
		}
		return (cv - iv) / cv
	}
}

// Score grades a device predictor the way §VI does: over every spec ×
// batch × GPU state (idle, then warm), acc is the share of
// configurations where predict names the objective's best device and
// loss the mean LossVersusIdeal of its picks.
func (s *Sweeper) Score(specs []*nn.Spec, batches []int, o Objective, predict func(features []float64) int) (acc, loss float64, err error) {
	correct, total := 0, 0
	for _, spec := range specs {
		for _, b := range batches {
			for _, warm := range []bool{false, true} {
				cm, err := s.MeasureConfig(spec, b, warm, 0)
				if err != nil {
					return 0, 0, err
				}
				pred := predict(Features(spec.Descriptor(), b, warm))
				total++
				if pred == cm.Best(o) {
					correct++
				}
				loss += cm.LossVersusIdeal(o, pred)
			}
		}
	}
	return float64(correct) / float64(total), loss / float64(total), nil
}
