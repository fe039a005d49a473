package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"bomw/internal/core"
	"bomw/internal/nn"
	"bomw/internal/server"
	"bomw/internal/tensor"
)

// The traced run may not instrument the program, so the trace is an
// onion: for every traced request the harness issues the same request
// once at each depth of the serving path — loopback round trip,
// Server.ServeHTTP, Cluster.Submit+Wait, node-0 Pipeline.Submit+Wait,
// Runtime.Classify, Network.Forward, then the model's kernels one by
// one — serially, from one caller. Each call is one span whose parent
// is the next-outer depth. A depth's self time is its duration minus
// its child's, so the self times add up to the round trip.

// maxTraced bounds the span file; medians need no more.
const maxTraced = 2000

type span struct {
	ID     int    `json:"id"` // the traced request all depths of one onion share
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

type tracer struct {
	began   time.Time
	spans   []span
	us      map[string][]float64 // span name → duration per traced request
	mallocs map[string][]float64
	kb      map[string][]float64
	kernel  map[string]float64 // kernel time of the request being traced, by kind
	failed  int
}

func newTracer() *tracer {
	return &tracer{
		began:   time.Now(),
		us:      map[string][]float64{},
		mallocs: map[string][]float64{},
		kb:      map[string][]float64{},
		kernel:  map[string]float64{},
	}
}

func (t *tracer) add(id int, name, parent string, start, end time.Time) float64 {
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent,
		Start: int64(start.Sub(t.began)), End: int64(end.Sub(t.began))})
	return float64(end.Sub(start)) / 1e3
}

// depth times one call into a layer, with the allocations it caused
// (read outside the timed region: ReadMemStats stops the world).
func (t *tracer) depth(id int, name, parent string, call func() bool) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	ok := call()
	end := time.Now()
	runtime.ReadMemStats(&after)
	if !ok {
		t.failed++
	}
	t.us[name] = append(t.us[name], t.add(id, name, parent, start, end))
	t.mallocs[name] = append(t.mallocs[name], float64(after.Mallocs-before.Mallocs))
	t.kb[name] = append(t.kb[name], float64(after.TotalAlloc-before.TotalAlloc)/1e3)
}

// quick times a call that is not a depth of the onion.
func (t *tracer) quick(name string, call func()) {
	start := time.Now()
	call()
	t.us[name] = append(t.us[name], float64(time.Since(start))/1e3)
}

// kernels is the innermost depth: the model's layers unrolled into the
// tensor calls Dense.Forward, Conv.Forward and MaxPool.Forward make.
func (t *tracer) kernels(id int, net *nn.Network, pool *tensor.Pool, in *tensor.Tensor) *tensor.Tensor {
	call := func(kind string, fn func()) {
		start := time.Now()
		fn()
		t.kernel[kind] += t.add(id, kind, "tensor.kernels", start, time.Now())
	}
	x := in
	for _, layer := range net.Layers() {
		switch l := layer.(type) {
		case *nn.Dense:
			var wt *tensor.Tensor
			call("tensor.transpose", func() { wt = tensor.Transpose(l.W) })
			call("tensor.matmul", func() { x = tensor.MatMul(pool, x, wt) })
			call("tensor.activation", func() { tensor.AddBiasRows(pool, x, l.B); l.Act.Apply(pool, x) })
		case *nn.Conv:
			call("tensor.conv", func() { x = tensor.Conv2D(pool, tensor.Pad2D(x, l.Pad), l.Filters, l.Bias) })
			call("tensor.activation", func() { l.Act.Apply(pool, x) })
		case *nn.MaxPool:
			call("tensor.conv", func() { x = tensor.MaxPool2D(pool, x, l.K) })
		default:
			x = layer.Forward(pool, x) // Flatten is a reshape, not a kernel
		}
	}
	return x
}

var kernelKinds = []string{"tensor.transpose", "tensor.matmul", "tensor.conv", "tensor.activation"}

// traceOnions traces requests until the budget or maxTraced is spent.
func traceOnions(w workload, s *stack, inputs []input, budget time.Duration) (*tracer, error) {
	sched := s.sched
	fleet := s.api.Cluster()
	pipe := s.api.Pipeline()
	clock := fleet.Clock()
	net, err := sched.Dispatcher().Network(w.model)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	batch := w.samples * w.requestsPerOp()

	// What the inner depths run on: one request's tensor, or for the
	// burst workload the 64 one-sample requests as the one batch the
	// pipeline's size trigger makes of them.
	inner := inputs
	if w.burst > 0 {
		var flat []float32
		var want []int
		for j := 0; j < w.burst; j++ {
			in := inputs[j%len(inputs)]
			flat = append(flat, in.tensor.Data()...)
			want = append(want, in.want...)
		}
		inner = []input{{tensor: tensor.FromSlice(flat, append([]int{batch}, net.InputShape()...)...), want: want}}
	}
	futures := make([]*core.Future, w.burst)

	viaFleet := func(r core.PipelineRequest) (*core.Future, error) { return fleet.Submit(ctx, r) }
	viaPipe := func(r core.PipelineRequest) (*core.Future, error) { return pipe.Submit(ctx, r) }

	t := newTracer()
	deadline := time.Now().Add(budget)
	for id := 0; id < maxTraced && (id == 0 || time.Now().Before(deadline)); id++ {
		in := &inputs[id%len(inputs)]
		deep := &inner[id%len(inner)]
		// submitWait is the workload's operation from the library side:
		// one request, or one burst, submitted and waited for.
		submitWait := func(submit submitFunc) bool {
			return submitBurst(ctx, id, w.model, inputs, futures, submit).ok == w.burst
		}
		libraryParent := ""
		if w.burst == 0 {
			submitWait = func(submit submitFunc) bool {
				fut, err := submit(core.PipelineRequest{Model: w.model, Input: in.tensor})
				if err != nil {
					return false
				}
				c, err := fut.Wait(ctx)
				return err == nil && c.Err == nil && sameClasses(c.Classes, in.want)
			}
			libraryParent = "server.serve"

			var out []byte
			t.depth(id, "http.roundtrip", "", func() bool {
				out, err = s.post(in.body)
				return err == nil
			})
			if _, ok := checkResponse(out, in.want); !ok {
				t.failed++
			}
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(in.body))
			t.depth(id, "server.serve", "http.roundtrip", func() bool {
				s.api.ServeHTTP(rec, req)
				return rec.Code == http.StatusOK
			})
			if _, ok := checkResponse(rec.Body.Bytes(), in.want); !ok {
				t.failed++
			}
			t.quick("server.decode", func() {
				var req server.ClassifyRequest
				_ = json.NewDecoder(bytes.NewReader(in.body)).Decode(&req)
			})
		}
		t.depth(id, "cluster.submit_wait", libraryParent, func() bool { return submitWait(viaFleet) })
		t.depth(id, "core.submit_wait", "cluster.submit_wait", func() bool { return submitWait(viaPipe) })

		var dec core.Decision
		t.quick("core.select", func() { dec, err = sched.Select(w.model, batch, core.BestThroughput, clock()) })
		if err != nil {
			return nil, err
		}
		t.quick("core.select_cached", func() { _, _ = sched.SelectCached(w.model, batch, core.BestThroughput, clock()) })
		t.quick("core.feasible", func() { _, _, _ = sched.FeasibleWithin(w.model, batch, 50*time.Millisecond, clock()) })
		t.quick("opencl.estimate", func() { _, _ = sched.Runtime().Estimate(dec.Device, w.model, batch, clock()) })

		t.depth(id, "opencl.classify", "core.submit_wait", func() bool {
			res, err := sched.Runtime().Classify(dec.Device, w.model, deep.tensor, clock())
			return err == nil && sameClasses(res.Classes, deep.want)
		})
		dev, err := sched.Runtime().Context().DeviceByName(dec.Device)
		if err != nil {
			return nil, err
		}
		var out *tensor.Tensor
		t.depth(id, "nn.forward", "opencl.classify", func() bool {
			out = net.Forward(dev.Pool, deep.tensor)
			return true
		})
		if !sameClasses(tensor.Argmax(out), deep.want) {
			t.failed++
		}
		for k := range t.kernel {
			delete(t.kernel, k)
		}
		t.depth(id, "tensor.kernels", "nn.forward", func() bool {
			out = t.kernels(id, net, dev.Pool, deep.tensor)
			return true
		})
		if !sameClasses(tensor.Argmax(out), deep.want) {
			t.failed++
		}
		for _, kind := range kernelKinds {
			t.us[kind] = append(t.us[kind], t.kernel[kind])
		}
	}
	return t, nil
}

// onionChain is the order of depths, outermost first, with the metric
// prefix each reports under.
var onionChain = []struct{ span, layer, total string }{
	{"http.roundtrip", "http", "http.roundtrip_us"},
	{"server.serve", "server", "server.serve_us"},
	{"cluster.submit_wait", "cluster", "cluster.submit_wait_us"},
	{"core.submit_wait", "core", "core.submit_wait_us"},
	{"opencl.classify", "opencl", "opencl.classify_us"},
	{"nn.forward", "nn", "nn.forward_us"},
	{"tensor.kernels", "tensor", "tensor.kernels_us"},
}

// layerValues reduces the spans to the per-layer figures. A depth's
// time is the fastest of its traced calls — interference only ever
// lengthens a call, and on a noisy day the medians of two 60 ms depths
// differ by more than the thin layer between them costs — and self = a
// depth's time minus its child's, so that the self times plus
// tensor.kernels_us equal the outermost depth exactly. Allocation
// counts barely vary, so they are medians (which shrug off a background
// goroutine's allocation); a layer's figure is likewise its depth's
// minus its child's, except nn's, which include the kernels Forward
// calls. Depths a workload does not pass through (http and server on
// the burst workload) read 0.
func (t *tracer) layerValues(values map[string]float64) (outermostUS float64) {
	fastest := func(name string) float64 {
		if len(t.us[name]) == 0 {
			return 0
		}
		return bestWindow(t.us[name], false)
	}
	for i, d := range onionChain {
		total := fastest(d.span)
		values[d.total] = total
		if outermostUS == 0 {
			outermostUS = total
		}
		if i == len(onionChain)-1 {
			break
		}
		child := onionChain[i+1].span
		if len(t.us[d.span]) == 0 {
			values[d.layer+".self_us"] = 0
			values[d.layer+".allocs_per_op"] = 0
			values[d.layer+".alloc_kb_per_op"] = 0
			continue
		}
		values[d.layer+".self_us"] = total - fastest(child)
		childAllocs, childKB := median(t.mallocs[child]), median(t.kb[child])
		if d.layer == "nn" {
			childAllocs, childKB = 0, 0
		}
		values[d.layer+".allocs_per_op"] = median(t.mallocs[d.span]) - childAllocs
		values[d.layer+".alloc_kb_per_op"] = median(t.kb[d.span]) - childKB
	}
	for _, kind := range kernelKinds {
		values[kind+"_us"] = fastest(kind)
	}
	values["server.decode_us"] = fastest("server.decode")
	values["core.select_us"] = fastest("core.select")
	values["core.select_cached_us"] = fastest("core.select_cached")
	values["core.feasible_us"] = fastest("core.feasible")
	values["opencl.estimate_us"] = fastest("opencl.estimate")
	values["trace.requests"] = float64(len(t.us["tensor.kernels"]))
	return outermostUS
}
