package opencl

import (
	"fmt"
	"time"

	"bomw/internal/device"
)

// MemFlag mirrors the cl_mem_flags subset the paper's implementation uses.
type MemFlag int

const (
	// ReadWrite buffers hold activations.
	ReadWrite MemFlag = iota
	// ReadOnly buffers hold inputs and weights.
	ReadOnly
	// WriteOnly buffers hold results.
	WriteOnly
)

// Buffer is a device memory object. On unified-memory devices the host
// slice *is* the device memory (clEnqueueMapBuffer zero-copy, §IV-B); on
// discrete devices writes and reads cross the PCIe model. Data is staged
// in a page-locked fashion: the runtime copies into the buffer's backing
// store once, as the paper copies into page-locked buffers to avoid page
// swapping during DMA.
type Buffer struct {
	Flags MemFlag
	data  []float32
}

// CreateBuffer allocates a buffer of n float32 elements.
func (c *Context) CreateBuffer(flags MemFlag, n int) (*Buffer, error) {
	if n <= 0 {
		return nil, fmt.Errorf("opencl: buffer size must be positive, got %d", n)
	}
	return &Buffer{Flags: flags, data: make([]float32, n)}, nil
}

// Len returns the buffer length in elements.
func (b *Buffer) Len() int { return len(b.data) }

// Bytes returns the buffer size in bytes.
func (b *Buffer) Bytes() int64 { return int64(len(b.data)) * 4 }

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

// Queue is an in-order command queue bound to one device, with profiling
// always enabled.
type Queue struct {
	Dev    *ClDevice
	events []*Event
	buf    []Event // reserved backing for events; see Reserve
	last   time.Duration
}

// NewQueue creates an empty command queue for a device.
func NewQueue(d *ClDevice) *Queue { return &Queue{Dev: d} }

// Reserve pre-allocates backing storage for n events in one block. A
// caller that knows its command count up front (the runtime enqueues
// write + kernels + read per batch) trades one allocation for n — on the
// serving hot path the profiling log is most of the per-batch garbage.
// Events beyond the reservation fall back to individual allocations.
func (q *Queue) Reserve(n int) {
	if cap(q.buf)-len(q.buf) < n {
		q.buf = make([]Event, 0, n)
	}
	if q.events == nil && cap(q.events) < n {
		q.events = make([]*Event, 0, n)
	}
}

// Events returns the profiling log of all commands in enqueue order.
func (q *Queue) Events() []*Event { return q.events }

// Last returns the completion time of the most recent command.
func (q *Queue) Last() time.Duration { return q.last }

func (q *Queue) push(name string, queued time.Duration, rep device.Report) *Event {
	var ev *Event
	if len(q.buf) < cap(q.buf) {
		q.buf = q.buf[:len(q.buf)+1]
		ev = &q.buf[len(q.buf)-1]
	} else {
		ev = new(Event)
	}
	*ev = Event{
		Name:   name,
		Queued: queued,
		Start:  rep.Start,
		End:    rep.Start + rep.Latency,
		Report: rep,
	}
	q.events = append(q.events, ev)
	if ev.End > q.last {
		q.last = ev.End
	}
	return ev
}

// EnqueueWriteBuffer copies host data into a buffer at virtual time at,
// charging a PCIe transfer on discrete devices and nothing on unified
// memory.
func (q *Queue) EnqueueWriteBuffer(at time.Duration, buf *Buffer, data []float32) (*Event, error) {
	if len(data) > len(buf.data) {
		return nil, fmt.Errorf("opencl: write of %d elements into buffer of %d", len(data), len(buf.data))
	}
	copy(buf.data, data)
	rep := q.Dev.Sim.Transfer(max(at, q.last), int64(len(data))*4)
	return q.push("clEnqueueWriteBuffer", at, rep), nil
}

// EnqueueReadBuffer copies a buffer back to host memory.
func (q *Queue) EnqueueReadBuffer(at time.Duration, buf *Buffer, out []float32) (*Event, error) {
	if len(out) > len(buf.data) {
		return nil, fmt.Errorf("opencl: read of %d elements from buffer of %d", len(out), len(buf.data))
	}
	copy(out, buf.data)
	rep := q.Dev.Sim.Transfer(max(at, q.last), int64(len(out))*4)
	return q.push("clEnqueueReadBuffer", at, rep), nil
}

// EnqueueMapBuffer maps a buffer into host address space. On unified
// memory this is free (the paper's clEnqueueMapBuffer path); on discrete
// devices it degenerates to a transfer of the full buffer, as the OpenCL
// spec requires the mapped region to be coherent.
func (q *Queue) EnqueueMapBuffer(at time.Duration, buf *Buffer) ([]float32, *Event) {
	var rep device.Report
	if q.Dev.UnifiedMemory() {
		rep = device.Report{Device: q.Dev.Name(), Model: "map", Start: max(at, q.last)}
	} else {
		rep = q.Dev.Sim.Transfer(max(at, q.last), buf.Bytes())
	}
	return buf.data, q.push("clEnqueueMapBuffer", at, rep)
}

// EnqueueNDRangeKernel launches a compiled kernel over a batch of n
// samples: time and energy are charged by the device model. The math is
// not part of the launch — the runtime runs the network's plan once per
// batch on the device's host pool.
func (q *Queue) EnqueueNDRangeKernel(at time.Duration, k *Kernel, n int) *Event {
	return q.push(k.event, at, q.Dev.Sim.ExecuteCompute(max(at, q.last), k.Workload, n))
}

// Finish blocks (in virtual time) until all enqueued commands complete,
// returning the completion timestamp — the clFinish the paper's kernels
// synchronise with.
func (q *Queue) Finish(at time.Duration) time.Duration { return max(at, q.last) }

// EnergyJ sums the energy of all commands in the queue's log.
func (q *Queue) EnergyJ() float64 {
	var e float64
	for _, ev := range q.events {
		e += ev.Report.EnergyJ()
	}
	return e
}

func max(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
