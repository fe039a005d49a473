package scenario

import (
	"fmt"
	"time"

	"bomw/internal/core"
	"bomw/internal/workload"
)

// Run executes one scenario on a virtual-mode backend and returns its
// report. Execution is sequential on the virtual clock and fully
// deterministic in (Params, backend construction): the golden tests pin
// the serialised output byte-for-byte.
func Run(b Backend, p Params) (Report, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return Report{}, err
	}
	b.Reset()
	switch p.Kind {
	case SingleStream, MultiStream:
		return runStream(b, p)
	case Offline:
		return runOffline(b, p)
	case Server:
		return runServer(b, p)
	}
	return Report{}, fmt.Errorf("scenario: unknown scenario kind %q", p.Kind)
}

// runStream is SingleStream and MultiStream: issue one query of p.Batch
// samples, wait for it, issue the next. The virtual clock advances to
// each completion, so latency is pure service time — no queueing by
// construction.
func runStream(b Backend, p Params) (Report, error) {
	var res core.ReplayResult
	clock := time.Duration(0)
	for q := 0; q < p.Queries; q++ {
		ex, err := b.Run(p.Model, p.Batch, p.Policy, clock)
		if err != nil {
			return Report{}, fmt.Errorf("scenario %s query %d: %w", p.Kind, q, err)
		}
		res.Add(1, p.Batch, ex.Completed-clock, ex.Completed, ex.EnergyJ, ex.Device)
		clock = ex.Completed
	}
	return report(res, p.Kind, b.Name(), p), nil
}

// runOffline issues the whole backlog at t=0; the device busy horizon
// provides the queueing, and samples/s over the makespan is the metric.
func runOffline(b Backend, p Params) (Report, error) {
	var res core.ReplayResult
	for q := 0; q < p.Queries; q++ {
		ex, err := b.Run(p.Model, p.Batch, p.Policy, 0)
		if err != nil {
			return Report{}, fmt.Errorf("scenario offline query %d: %w", q, err)
		}
		res.Add(1, p.Batch, ex.Completed, ex.Completed, ex.EnergyJ, ex.Device)
	}
	return report(res, Offline, b.Name(), p), nil
}

// runServer replays the compiled arrival stream (Poisson by default, or
// the caller's workload spec) at its virtual timestamps. Latency is
// arrival-to-completion, so queueing delay under overload shows up in
// the percentiles, and attainment counts queries finishing inside SLO.
func runServer(b Backend, p Params) (Report, error) {
	spec, err := p.serverTrace()
	if err != nil {
		return Report{}, err
	}
	tr, err := workload.Compile(spec)
	if err != nil {
		return Report{}, fmt.Errorf("scenario server: compiling arrivals: %w", err)
	}
	var res core.ReplayResult
	for i, ev := range tr {
		ex, err := b.Run(ev.Model, ev.Batch, p.Policy, ev.At)
		if err != nil {
			return Report{}, fmt.Errorf("scenario server query %d: %w", i, err)
		}
		res.Add(1, ev.Batch, ex.Completed-ev.At, ex.Completed, ex.EnergyJ, ex.Device)
	}
	return serverReport(res, b.Name(), p, len(tr)), nil
}
