// Package scenario implements the four MLPerf Inference scenarios —
// SingleStream, MultiStream, Server and Offline — as first-class harness
// modes over this repo's serving stack, so "how fast is bomw" has the
// industry-standard shape of an answer: per-scenario latency percentiles
// (p50/p90/p99), SLO attainment and max sustainable rate, not a single
// req/s number.
//
// Two execution modes share one Report shape:
//
//   - The virtual mode (Run over a Backend) replays queries on the
//     virtual clock through the scheduler's Estimate/Observe path —
//     sequential, seeded and fully deterministic: the same Params and
//     seed produce a byte-identical report, which is what the golden
//     tests pin. NewSchedulerBackend wraps one node; NewFleetBackend
//     wraps N scheduler replicas behind least-outstanding routing.
//
//   - The live mode (RunLive over a core.Submitter) drives a real
//     core.Pipeline, core.Node or cluster.Cluster: the Server scenario's
//     arrivals go through core.Play, the open loop the library's own
//     trace replays use, so admission control, live batching, shedding,
//     deadline culling and failover are all in the loop. Every query
//     lands in one outcome of core.ReplayResult's ledger. Latencies are
//     still measured on the target's virtual clock, but goroutine
//     interleaving makes live reports statistical rather than
//     byte-stable.
//
// The Server scenario additionally has a binary-search driver
// (FindMaxRate) that finds the highest offered rate whose report still
// meets a target SLO attainment — MLPerf's "max sustainable rate under
// latency bound" headline figure.
package scenario

import (
	"fmt"
	"math"
	"time"

	"bomw/internal/core"
	"bomw/internal/workload"
)

// Kind names one MLPerf Inference scenario.
type Kind string

// The four MLPerf Inference scenarios.
const (
	// SingleStream issues one single-sample query at a time, each after
	// the previous completes — the interactive latency scenario. Metric:
	// p90 latency.
	SingleStream Kind = "single-stream"
	// MultiStream issues one query of Batch samples at a time (the N
	// camera streams of one frame). Metric: p99 query latency.
	MultiStream Kind = "multi-stream"
	// Server offers queries on a Poisson (or full workload-spec) arrival
	// process at a target rate with a latency SLO. Metrics: p99 latency
	// and SLO attainment; FindMaxRate turns them into max-rate-under-SLO.
	Server Kind = "server"
	// Offline issues every query at time zero and drains the backlog —
	// the pure-throughput scenario. Metric: samples/second.
	Offline Kind = "offline"
)

// Kinds lists the scenarios in report order.
func Kinds() []Kind { return []Kind{SingleStream, MultiStream, Server, Offline} }

// ParseKind resolves a CLI scenario name.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "single-stream", "singlestream":
		return SingleStream, nil
	case "multi-stream", "multistream":
		return MultiStream, nil
	case "server":
		return Server, nil
	case "offline":
		return Offline, nil
	default:
		return "", fmt.Errorf("scenario: unknown scenario %q (want single-stream, multi-stream, server or offline)", s)
	}
}

// Params configures one scenario run.
type Params struct {
	Kind   Kind
	Model  string
	Policy core.Policy
	// Queries is the query count (per-scenario default 256).
	Queries int
	// Batch is the samples per query: 1 for SingleStream, the stream
	// count for MultiStream (default 8), the chunk size Offline issues
	// its backlog in (default 64).
	Batch int
	// TargetRate is the Server scenario's offered rate (queries/second).
	TargetRate float64
	// SLO is the Server scenario's per-query latency bound.
	SLO time.Duration
	// Seed drives the arrival process (and nothing else — execution is
	// deterministic given the arrivals).
	Seed int64
	// Workload optionally replaces the Server scenario's default
	// single-client Poisson arrivals with a full multi-client spec;
	// model/batch mixes then come from the spec, not Model/Batch.
	Workload *workload.Spec
}

func (p Params) withDefaults() Params {
	if p.Queries <= 0 {
		p.Queries = 256
	}
	if p.Batch <= 0 {
		switch p.Kind {
		case MultiStream:
			p.Batch = 8
		case Offline:
			p.Batch = 64
		default:
			p.Batch = 1
		}
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

func (p Params) validate() error {
	switch p.Kind {
	case SingleStream, MultiStream, Server, Offline:
	default:
		return fmt.Errorf("scenario: unknown scenario kind %q", p.Kind)
	}
	if p.Model == "" && p.Workload == nil {
		return fmt.Errorf("scenario: params need a model")
	}
	if p.Kind == Server {
		if p.Workload == nil && !(p.TargetRate > 0 && !math.IsInf(p.TargetRate, 0)) {
			return fmt.Errorf("scenario: server scenario needs a positive target rate")
		}
		if p.SLO <= 0 {
			return fmt.Errorf("scenario: server scenario needs a positive SLO")
		}
	}
	return nil
}

// serverTrace compiles the Server scenario's arrival stream: the
// explicit workload spec when given, else a single Poisson client at
// TargetRate issuing Queries queries of Model×Batch.
func (p Params) serverTrace() (spec workload.Spec, err error) {
	if p.Workload != nil {
		return *p.Workload, nil
	}
	return workload.Spec{
		Seed: p.Seed,
		// Generous horizon, hard event cap: ≈Queries arrivals at
		// TargetRate regardless of draw luck.
		HorizonS:  2*float64(p.Queries)/p.TargetRate + 1,
		MaxEvents: p.Queries,
		Clients: []workload.Client{{
			Name:    "server",
			Arrival: workload.Arrival{Dist: workload.DistPoisson, Rate: p.TargetRate},
			Models:  []workload.ModelMix{{Model: p.Model, Weight: 1}},
			Batches: []workload.BatchMix{{Batch: p.Batch, Weight: 1}},
		}},
	}, nil
}

// Percentiles summarises a latency population in microseconds.
type Percentiles struct {
	MeanUS int64 `json:"mean_us"`
	P50US  int64 `json:"p50_us"`
	P90US  int64 `json:"p90_us"`
	P99US  int64 `json:"p99_us"`
	MaxUS  int64 `json:"max_us"`
}

// Report is one scenario outcome — the JSON document loadgen emits and
// the golden tests pin byte-for-byte (virtual mode).
type Report struct {
	Scenario string `json:"scenario"`
	Target   string `json:"target"`
	Model    string `json:"model,omitempty"`
	Policy   string `json:"policy"`
	Seed     int64  `json:"seed"`

	Queries int   `json:"queries"` // queries that completed successfully
	Samples int64 `json:"samples"`
	Dropped int   `json:"dropped"` // shed at admission (live mode only)
	Expired int   `json:"expired"` // culled past their SLO (live mode only)
	Failed  int   `json:"failed"`  // execution errors (live mode only)

	MakespanUS  int64       `json:"makespan_us"`
	Latency     Percentiles `json:"latency"`
	QPS         float64     `json:"qps"`
	SamplesPerS float64     `json:"samples_per_s"`
	EnergyJ     float64     `json:"energy_j"`

	// Server scenario only.
	TargetRate float64 `json:"target_rate,omitempty"`
	SLOMS      float64 `json:"slo_ms,omitempty"`
	// Attainment is in-SLO completions over offered queries; dropped,
	// expired and failed queries count as misses.
	Attainment float64 `json:"attainment,omitempty"`

	PerDevice map[string]int `json:"per_device,omitempty"`
}

// round3 stabilises derived float fields for byte-stable reports.
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// report renders the ledger a scenario filled — one ReplayResult.Add
// per completed query, plus the live runs' misses — in the Report shape.
func report(res core.ReplayResult, kind Kind, target string, p Params) Report {
	r := Report{
		Scenario:   string(kind),
		Target:     target,
		Model:      p.Model,
		Policy:     p.Policy.String(),
		Seed:       p.Seed,
		Queries:    res.Requests,
		Samples:    res.TotalSamples,
		Dropped:    res.Dropped,
		Expired:    res.Expired,
		Failed:     res.Failed,
		MakespanUS: res.Makespan.Microseconds(),
		EnergyJ:    round3(res.TotalEnergyJ),
		PerDevice:  res.PerDevice,
	}
	if res.Requests == 0 {
		return r
	}
	r.Latency = Percentiles{
		MeanUS: res.AvgLatency().Microseconds(),
		P50US:  res.Percentile(50).Microseconds(),
		P90US:  res.Percentile(90).Microseconds(),
		P99US:  res.Percentile(99).Microseconds(),
		MaxUS:  res.MaxLatency.Microseconds(),
	}
	if res.Makespan > 0 {
		r.QPS = round3(float64(res.Requests) / res.Makespan.Seconds())
		r.SamplesPerS = round3(res.SamplesPerSecond())
	}
	return r
}

// serverReport is report plus the Server scenario's fields: the offered
// rate, the SLO and attainment over the offered queries.
func serverReport(res core.ReplayResult, target string, p Params, offered int) Report {
	r := report(res, Server, target, p)
	r.TargetRate = round3(p.TargetRate)
	r.SLOMS = round3(float64(p.SLO) / float64(time.Millisecond))
	if offered > 0 {
		r.Attainment = round3(float64(res.WithinSLO(p.SLO)) / float64(offered))
	}
	return r
}
