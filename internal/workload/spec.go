// Package workload compiles declarative, seeded workload specifications
// into virtual-clock request traces. Where package trace hand-codes
// three arrival shapes (Poisson, Burst, Diurnal), a workload Spec
// composes them: any number of concurrent clients, each with its own
// interarrival distribution (Poisson/Gamma/Weibull/uniform), a rate
// envelope (constant, diurnal, bursty) modulating it over the span, and
// weighted model/batch mixes — heavy-tailed request populations
// included. Compile expands the spec into one time-ordered trace.Trace,
// so the output feeds everything that already consumes traces:
// Scheduler.Replay, core.Play and the cluster tier.
//
// Everything is deterministic in Spec.Seed: the same spec and seed
// produce byte-identical traces, which is what makes the MLPerf-style
// scenario reports (internal/workload/scenario) reproducible.
package workload

import (
	"errors"
	"fmt"
	"math"
)

// Dist names an interarrival distribution.
type Dist string

// Interarrival distributions. Shape is ignored by poisson and uniform;
// gamma and weibull use it to trade regularity against burstiness while
// Rate always fixes the mean: shape 1 recovers the exponential, shape >1
// is more regular than Poisson (CV < 1), shape <1 is burstier (CV > 1,
// the heavy-tailed regime).
const (
	DistPoisson Dist = "poisson"
	DistGamma   Dist = "gamma"
	DistWeibull Dist = "weibull"
	DistUniform Dist = "uniform"
)

// Envelope kinds.
const (
	EnvConstant = "constant"
	EnvDiurnal  = "diurnal"
	EnvBursty   = "bursty"
)

// Typed validation errors. ParseSpec and Compile wrap these with the
// offending client/field, so callers can branch with errors.Is while
// users still see what exactly is wrong.
var (
	// ErrNoClients rejects a spec without clients.
	ErrNoClients = errors.New("workload: spec needs at least one client")
	// ErrBadHorizon rejects a non-positive or non-finite horizon.
	ErrBadHorizon = errors.New("workload: horizon must be positive and finite")
	// ErrBadRate rejects NaN, infinite, zero or negative rates.
	ErrBadRate = errors.New("workload: rate must be positive and finite")
	// ErrBadShape rejects NaN, infinite, zero or negative shapes.
	ErrBadShape = errors.New("workload: shape must be positive and finite")
	// ErrUnknownDist rejects an interarrival distribution that is not
	// poisson, gamma, weibull or uniform.
	ErrUnknownDist = errors.New("workload: unknown interarrival distribution")
	// ErrUnknownEnvelope rejects a rate-envelope kind that is not
	// constant, diurnal or bursty.
	ErrUnknownEnvelope = errors.New("workload: unknown rate envelope")
	// ErrBadEnvelope rejects envelope parameters outside their domain.
	ErrBadEnvelope = errors.New("workload: bad envelope parameters")
	// ErrBadMix rejects empty mixes, non-finite or negative weights, and
	// mixes whose weights sum to zero.
	ErrBadMix = errors.New("workload: mix needs finite non-negative weights with a positive sum")
	// ErrBadBatch rejects non-positive batch sizes.
	ErrBadBatch = errors.New("workload: batch sizes must be positive")
	// ErrBadWindow rejects a client window outside the spec horizon.
	ErrBadWindow = errors.New("workload: client start/stop must satisfy 0 ≤ start < stop ≤ horizon")
	// ErrEmptyTrace reports that a valid spec generated no events (rates
	// too low for the horizon).
	ErrEmptyTrace = errors.New("workload: spec generated no events")
	// ErrTooManyEvents caps compilation: the spec's rates × horizon
	// exceed MaxCompiledEvents.
	ErrTooManyEvents = errors.New("workload: spec exceeds the compiled-event cap")
)

// MaxCompiledEvents bounds one Compile, so a mistyped rate or horizon
// fails fast with ErrTooManyEvents instead of exhausting memory.
const MaxCompiledEvents = 4 << 20

// Arrival is one client's interarrival process. Rate is the mean request
// rate in requests per virtual second at envelope factor 1; Shape tunes
// the gamma/weibull coefficient of variation.
type Arrival struct {
	Dist  Dist    `json:"dist"`
	Rate  float64 `json:"rate"`
	Shape float64 `json:"shape,omitempty"`
}

// Envelope modulates a client's rate over the span with a factor in
// (0, Gain]: the generator divides each interarrival draw by the factor
// at the current virtual time.
//
//   - constant (or empty): factor 1 always.
//   - diurnal: a sinusoid between Floor (valley multiplier, in (0,1])
//     and 1 with the given period — Rate is the peak rate.
//   - bursty: factor Gain (≥1) during the first BurstS seconds of every
//     PeriodS window, 1 otherwise — Rate is the base rate.
type Envelope struct {
	Kind    string  `json:"kind,omitempty"`
	PeriodS float64 `json:"period_s,omitempty"`
	Floor   float64 `json:"floor,omitempty"`
	BurstS  float64 `json:"burst_s,omitempty"`
	Gain    float64 `json:"gain,omitempty"`
}

// ModelMix is one weighted entry of a client's model population.
type ModelMix struct {
	Model  string  `json:"model"`
	Weight float64 `json:"weight"`
}

// BatchMix is one weighted entry of a client's batch-size population.
// Heavy-tailed request mixes are expressed here: many small batches with
// large weights, a few huge batches with small ones.
type BatchMix struct {
	Batch  int     `json:"batch"`
	Weight float64 `json:"weight"`
}

// Client is one concurrent traffic source: its own arrival process,
// envelope, mixes and active window within the spec horizon.
type Client struct {
	Name     string     `json:"name,omitempty"`
	Arrival  Arrival    `json:"arrival"`
	Envelope Envelope   `json:"envelope,omitempty"`
	Models   []ModelMix `json:"models"`
	Batches  []BatchMix `json:"batches"`
	// StartS/StopS bound the client's active window in virtual seconds
	// from the trace origin; StopS 0 means the spec horizon.
	StartS float64 `json:"start_s,omitempty"`
	StopS  float64 `json:"stop_s,omitempty"`
}

// Spec is a complete multi-client workload description.
type Spec struct {
	// Seed drives every random draw; the same spec and seed compile to
	// an identical trace.
	Seed int64 `json:"seed"`
	// HorizonS is the generation span in virtual seconds.
	HorizonS float64 `json:"horizon_s"`
	// MaxEvents optionally truncates the merged trace to its first N
	// events (0 = unlimited up to MaxCompiledEvents).
	MaxEvents int      `json:"max_events,omitempty"`
	Clients   []Client `json:"clients"`
}

func finitePositive(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v > 0
}

func (a Arrival) validate() error {
	switch a.Dist {
	case DistPoisson, DistUniform:
	case DistGamma, DistWeibull:
		if !finitePositive(a.Shape) {
			return fmt.Errorf("%w: %s shape %v", ErrBadShape, a.Dist, a.Shape)
		}
	default:
		return fmt.Errorf("%w: %q (want poisson, gamma, weibull or uniform)", ErrUnknownDist, a.Dist)
	}
	if !finitePositive(a.Rate) {
		return fmt.Errorf("%w: got %v", ErrBadRate, a.Rate)
	}
	return nil
}

func (e Envelope) validate() error {
	switch e.Kind {
	case "", EnvConstant:
		return nil
	case EnvDiurnal:
		if !finitePositive(e.PeriodS) {
			return fmt.Errorf("%w: diurnal period %v", ErrBadEnvelope, e.PeriodS)
		}
		if !finitePositive(e.Floor) || e.Floor > 1 {
			return fmt.Errorf("%w: diurnal floor %v not in (0,1]", ErrBadEnvelope, e.Floor)
		}
		return nil
	case EnvBursty:
		if !finitePositive(e.PeriodS) || !finitePositive(e.BurstS) || e.BurstS > e.PeriodS {
			return fmt.Errorf("%w: bursty burst %vs of period %vs", ErrBadEnvelope, e.BurstS, e.PeriodS)
		}
		if math.IsNaN(e.Gain) || math.IsInf(e.Gain, 0) || e.Gain < 1 {
			return fmt.Errorf("%w: bursty gain %v must be ≥ 1 and finite", ErrBadEnvelope, e.Gain)
		}
		return nil
	default:
		return fmt.Errorf("%w: %q (want constant, diurnal or bursty)", ErrUnknownEnvelope, e.Kind)
	}
}

// peak returns the envelope's maximum factor — the worst-case rate
// multiplier, used to bound the compiled event count.
func (e Envelope) peak() float64 {
	if e.Kind == EnvBursty {
		return e.Gain
	}
	return 1
}

// factor evaluates the envelope at virtual time t (seconds from the
// client's start).
func (e Envelope) factor(t float64) float64 {
	switch e.Kind {
	case EnvDiurnal:
		phase := 2 * math.Pi * t / e.PeriodS
		return e.Floor + (1-e.Floor)*(0.5+0.5*math.Sin(phase))
	case EnvBursty:
		if math.Mod(t, e.PeriodS) < e.BurstS {
			return e.Gain
		}
		return 1
	default:
		return 1
	}
}

func validateWeights[T any](mix []T, weight func(T) float64) error {
	if len(mix) == 0 {
		return fmt.Errorf("%w: mix is empty", ErrBadMix)
	}
	sum := 0.0
	for i, m := range mix {
		w := weight(m)
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return fmt.Errorf("%w: entry %d weight %v", ErrBadMix, i, w)
		}
		sum += w
	}
	if sum <= 0 {
		return fmt.Errorf("%w: weights sum to %v", ErrBadMix, sum)
	}
	return nil
}

func (c Client) validate(horizon float64) error {
	if err := c.Arrival.validate(); err != nil {
		return err
	}
	if err := c.Envelope.validate(); err != nil {
		return err
	}
	if err := validateWeights(c.Models, func(m ModelMix) float64 { return m.Weight }); err != nil {
		return fmt.Errorf("models: %w", err)
	}
	for i, m := range c.Models {
		if m.Model == "" {
			return fmt.Errorf("models: %w: entry %d has no model name", ErrBadMix, i)
		}
	}
	if err := validateWeights(c.Batches, func(b BatchMix) float64 { return b.Weight }); err != nil {
		return fmt.Errorf("batches: %w", err)
	}
	for i, b := range c.Batches {
		if b.Batch <= 0 {
			return fmt.Errorf("%w: entry %d batch %d", ErrBadBatch, i, b.Batch)
		}
	}
	start, stop := c.window(horizon)
	if math.IsNaN(c.StartS) || math.IsNaN(c.StopS) || start < 0 || stop <= start || stop > horizon {
		return fmt.Errorf("%w: start %vs stop %vs horizon %vs", ErrBadWindow, c.StartS, c.StopS, horizon)
	}
	return nil
}

// window resolves the client's active [start, stop) in seconds.
func (c Client) window(horizon float64) (start, stop float64) {
	start, stop = c.StartS, c.StopS
	if stop == 0 {
		stop = horizon
	}
	return start, stop
}

// Validate checks the whole spec, wrapping the typed errors above with
// the offending client.
func (s Spec) Validate() error {
	if !finitePositive(s.HorizonS) {
		return fmt.Errorf("%w: got %v", ErrBadHorizon, s.HorizonS)
	}
	if len(s.Clients) == 0 {
		return ErrNoClients
	}
	if s.MaxEvents < 0 {
		return fmt.Errorf("workload: max_events must be non-negative, got %d", s.MaxEvents)
	}
	for i, c := range s.Clients {
		if err := c.validate(s.HorizonS); err != nil {
			return fmt.Errorf("workload: client %d (%s): %w", i, c.label(i), err)
		}
	}
	return nil
}

// label names a client for error messages.
func (c Client) label(i int) string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("client%d", i)
}

// expectedEvents bounds the spec's event count at peak envelope factor,
// for the ErrTooManyEvents guard.
func (s Spec) expectedEvents() float64 {
	total := 0.0
	for _, c := range s.Clients {
		start, stop := c.window(s.HorizonS)
		total += c.Arrival.Rate * c.Envelope.peak() * (stop - start)
	}
	return total
}
