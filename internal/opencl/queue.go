package opencl

import (
	"time"

	"bomw/internal/device"
)

// Event records the lifetime of one enqueued command, in the style of
// clGetEventProfilingInfo (QUEUED / START / END).
type Event struct {
	Name   string
	Queued time.Duration
	Start  time.Duration
	End    time.Duration
	Report device.Report
}

// Duration returns the command's execution time (START to END).
func (e *Event) Duration() time.Duration { return e.End - e.Start }

// queue is the in-order command queue of one batch on one device: each
// command starts once its predecessor ended, never before the batch was
// submitted at at. It keeps what the batch is charged as it goes — the
// latest end and the energy, summed in enqueue order from zero — and
// records each command's Event only when log is set (Runtime.Profile).
type queue struct {
	at, last time.Duration
	energyJ  float64
	log      *[]Event
}

// next is the earliest start of the next command.
func (q *queue) next() time.Duration { return max(q.at, q.last) }

func (q *queue) push(name string, rep device.Report) {
	end := rep.Start + rep.Latency
	if end > q.last {
		q.last = end
	}
	q.energyJ += rep.EnergyJ()
	if q.log != nil {
		*q.log = append(*q.log, Event{Name: name, Queued: q.at, Start: rep.Start, End: end, Report: rep})
	}
}

func max(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
