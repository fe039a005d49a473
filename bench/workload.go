package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"bomw/internal/core"
	"bomw/internal/server"
	"bomw/internal/tensor"
)

// workload is one closed-loop traffic shape. An HTTP workload posts one
// classify request per operation; the library workload (burst > 0)
// submits a burst of single-sample requests straight to the fleet and
// waits for all of them, so an operation is a burst.
type workload struct {
	name    string
	why     string
	model   string
	samples int // samples per request
	clients int // closed-loop callers (≤ 2: one per CPU)
	burst   int // requests per operation; 0 for the HTTP workloads
	// procs is the GOMAXPROCS of the run: both of the box's CPUs for
	// the HTTP workloads, whose time is arithmetic. The library
	// workload gets one: its 1.3 µs per request are goroutine hand-offs,
	// and across two vCPUs a hand-off is a futex wake of a halted vCPU
	// — the hypervisor's cost, not the program's, and the one figure
	// that did not repeat on a shared host (README.md, "One CPU for
	// lib_simple_burst").
	procs int
}

var workloads = []workload{
	{
		name: "http_mnist_b1", model: "mnist-small", samples: 1, clients: 1, procs: 2,
		why: "POST /v1/classify, mnist-small, 1 sample, 1 client: the path users hit; nn.Forward at batch 1 is ~90% of it",
	},
	{
		name: "http_mnist_b64", model: "mnist-small", samples: 64, clients: 2, procs: 2,
		why: "same model, 64 samples per request, 2 clients: MatMul at m=64 plus a 295 KB JSON decode; shows a kernel or codec change that helps b1 and costs b64",
	},
	{
		name: "http_cnn_b8", model: "mnist-cnn", samples: 8, clients: 2, procs: 2,
		why: "mnist-cnn, 8 samples, 2 clients: Conv2D/Pad2D/MaxPool2D are ~97%; bypasses dense-layer and codec work, exercises conv work",
	},
	{
		name: "lib_simple_burst", model: "simple", samples: 1, clients: 1, burst: 64, procs: 1,
		why: "no HTTP, one CPU: bursts of 64 one-sample simple requests through Cluster.Submit; all router, batcher, scheduler and runtime bookkeeping, no math",
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// requestsPerOp is how many requests one operation sends.
func (w workload) requestsPerOp() int {
	if w.burst > 0 {
		return w.burst
	}
	return 1
}

// distinctInputs is how many different requests a run cycles through.
const distinctInputs = 32

// input is one generated request in every form the harness needs it:
// the tensor the library layers take, the JSON body the server takes,
// and the labels the reference computed for it.
type input struct {
	tensor *tensor.Tensor
	body   []byte
	want   []int
}

// generateInputs draws the run's requests from the seed. Every element
// is k/1000 with k in 1..999: an all-zero input takes MatMul's av == 0
// skip and reads ten times too fast.
func generateInputs(seed int64, w workload, shape []int) []input {
	rng := rand.New(rand.NewSource(seed))
	per := 1
	for _, d := range shape {
		per *= d
	}
	inputs := make([]input, distinctInputs)
	for i := range inputs {
		flat := make([]float32, 0, w.samples*per)
		samples := make([][]float32, w.samples)
		for s := range samples {
			for e := 0; e < per; e++ {
				flat = append(flat, float32(1+rng.Intn(999))/1000)
			}
			samples[s] = flat[s*per : (s+1)*per]
		}
		inputs[i] = input{
			tensor: tensor.FromSlice(flat, append([]int{w.samples}, shape...)...),
			body:   classifyBody(w.model, samples),
		}
	}
	return inputs
}

// classifyBody encodes a /v1/classify request by hand, so the body's
// bytes depend only on the samples.
func classifyBody(model string, samples [][]float32) []byte {
	b := append([]byte(`{"model":`), strconv.Quote(model)...)
	b = append(b, `,"samples":[`...)
	for i, s := range samples {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range s {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, float64(v), 'g', -1, 32)
		}
		b = append(b, ']')
	}
	return append(b, `]}`...)
}

// labelInputs is the correctness oracle: the reference labels come from
// the model's own network run on the serial pool, outside every layer
// under test.
func labelInputs(sched *core.Scheduler, w workload, inputs []input) error {
	net, err := sched.Dispatcher().Network(w.model)
	if err != nil {
		return err
	}
	for i := range inputs {
		inputs[i].want = net.Classify(tensor.Serial, inputs[i].tensor)
	}
	return nil
}

func sameClasses(got, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// opResult is what one operation reports: how many of its requests
// came back with the right labels, and the batching wait they paid.
type opResult struct {
	ok     int
	waitUS int64
}

// operation runs the seq-th operation of one client.
type operation func(seq int) opResult

// submitFunc admits one request at some depth of the library path:
// Cluster.Submit or a node's Pipeline.Submit.
type submitFunc func(core.PipelineRequest) (*core.Future, error)

// checkResponse decodes a /v1/classify reply and holds its classes
// against the reference.
func checkResponse(body []byte, want []int) (server.ClassifyResponse, bool) {
	var resp server.ClassifyResponse
	ok := json.Unmarshal(body, &resp) == nil && sameClasses(resp.Classes, want)
	return resp, ok
}

// newOperation binds a workload to a running stack.
func newOperation(w workload, s *stack, inputs []input) operation {
	if w.burst == 0 {
		return func(seq int) opResult {
			in := &inputs[seq%len(inputs)]
			out, err := s.post(in.body)
			if err != nil {
				return opResult{}
			}
			resp, ok := checkResponse(out, in.want)
			if !ok {
				return opResult{}
			}
			return opResult{ok: 1, waitUS: resp.WaitUS}
		}
	}
	fleet := s.api.Cluster()
	futures := make([]*core.Future, w.burst)
	ctx := context.Background()
	submit := func(req core.PipelineRequest) (*core.Future, error) { return fleet.Submit(ctx, req) }
	return func(seq int) opResult {
		return submitBurst(ctx, seq, w.model, inputs, futures, submit)
	}
}

// submitBurst sends len(futures) one-sample requests through submit
// and waits for every future. A refused submit or an unresolved future
// is a failed request.
func submitBurst(ctx context.Context, seq int, model string, inputs []input, futures []*core.Future, submit submitFunc) opResult {
	base := seq * len(futures)
	for j := range futures {
		fut, err := submit(core.PipelineRequest{
			Model:    model,
			Input:    inputs[(base+j)%len(inputs)].tensor,
			Deadline: -1,
		})
		if err != nil {
			fut = nil
		}
		futures[j] = fut
	}
	var res opResult
	for j, fut := range futures {
		if fut == nil {
			continue
		}
		c, err := fut.Wait(ctx)
		if err == nil && c.Err == nil && sameClasses(c.Classes, inputs[(base+j)%len(inputs)].want) {
			res.ok++
			res.waitUS += c.Wait.Microseconds()
		}
	}
	return res
}
