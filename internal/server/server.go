// Package server exposes the adaptive scheduler as an HTTP inference
// service — the deployable form of the paper's Fig. 5 system. Clients
// POST classification batches and the service answers with the real
// class labels, the device the scheduler selected, and the simulated
// latency/energy cost; models can be added at run time (§V-A: "it is
// also typical to dynamically add models"), and device and scheduler
// state are observable.
//
// Endpoints:
//
//	POST /v1/classify   {"model","policy","samples":[[...]],"timeout_ms":50}
//	POST /v1/models     {"name","kind","input_shape",...}  (load a model)
//	GET  /v1/models     list loaded models
//	GET  /v1/devices    device names, kinds and probe state (node0)
//	GET  /v1/stats      scheduler decision statistics (node0)
//	GET  /v1/pipeline   serving-pipeline statistics (node0)
//	GET  /v1/cluster    fleet-wide routing, serving and chaos statistics
//	GET  /v1/nodes      per-node state, load and health
//	POST /v1/nodes      {"node","action":"drain|evict|readmit|kill"}
//
// Classification requests flow through the concurrent serving pipeline
// (admission → live batching → per-device worker queues): concurrent
// clients posting the same model aggregate into one device batch, a full
// admission queue sheds load with 503, and the request's context bounds
// its time in the system. A request may carry a latency SLO
// ("timeout_ms"): admission rejects it with 504/"deadline_infeasible"
// when no device is predicted to make the deadline, and an admitted
// request whose deadline passes before execution is culled and answered
// 504/"deadline_exceeded" — doomed work never reaches a device. Virtual
// time is mapped to wall-clock time since the server started, so the GPU
// warms and cools as real seconds pass.
//
// The server always serves through the cluster tier (internal/cluster):
// a single-node server is a one-node fleet. NewCluster replicates the
// scheduler into N nodes behind a routing policy; /v1/classify then
// routes each request among the nodes ready at that moment, with
// failover; /v1/cluster (read-only) and /v1/nodes (where the operator
// drains, evicts, readmits or kills a node) expose the fleet, and the
// node0-scoped endpoints (/v1/stats, /v1/devices,
// /v1/pipeline, /v1/decisions) keep their single-box semantics.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"bomw/internal/cluster"
	"bomw/internal/core"
	"bomw/internal/nn"
	"bomw/internal/tensor"
)

// Server is the HTTP facade over a fleet of scheduler nodes. sched and
// pipe are node0's — the template scheduler and its pipeline — serving
// the single-box observability endpoints; classification routes through
// the fleet.
type Server struct {
	sched *core.Scheduler
	pipe  *core.Pipeline
	fleet *cluster.Cluster
	nodes []*core.Node
	clock core.Clock // the fleet's clock: wall time since the server was created
	mux   *http.ServeMux

	mu   sync.Mutex // one POST /v1/models at a time
	seed int64
}

// New wraps a scheduler with a default serving pipeline — a one-node
// fleet. seed drives the weight initialisation of models loaded through
// the API.
func New(sched *core.Scheduler, seed int64) *Server {
	return NewWithConfig(sched, seed, core.PipelineConfig{})
}

// NewWithConfig wraps a scheduler with an explicitly configured serving
// pipeline (cfg.Clock is overridden to the server's virtual clock) — a
// one-node fleet.
func NewWithConfig(sched *core.Scheduler, seed int64, cfg core.PipelineConfig) *Server {
	s, err := NewCluster(sched, seed, cfg, 1, cluster.Config{})
	if err != nil {
		// Unreachable: a one-node fleet needs no replication and the
		// template node cannot collide with itself.
		panic(err)
	}
	return s
}

// NewCluster stands up an n-node fleet: node0 serves on sched itself and
// nodes 1..n-1 on Scheduler.Replica copies (shared trained classifiers,
// fresh devices), all pipelines on the server's virtual clock, behind
// ccfg.Policy (default round-robin). Every model the template loaded with
// this seed is registered with each node, not rebuilt: the fleet serves
// from one copy of the weights.
func NewCluster(sched *core.Scheduler, seed int64, cfg core.PipelineConfig, n int, ccfg cluster.Config) (*Server, error) {
	s := &Server{sched: sched, clock: core.WallClock(), seed: seed}
	ccfg.Clock = s.clock
	fleet, nodes, err := cluster.Build(sched, n, seed, cfg, ccfg)
	if err != nil {
		return nil, err
	}
	s.fleet = fleet
	s.nodes = nodes
	s.pipe = nodes[0].Pipeline
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/classify", s.handleClassify)
	s.mux.HandleFunc("/v1/models", s.handleModels)
	s.mux.HandleFunc("/v1/devices", s.handleDevices)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/decisions", s.handleDecisions)
	s.mux.HandleFunc("/v1/pipeline", s.handlePipeline)
	s.mux.HandleFunc("/v1/cluster", s.handleCluster)
	s.mux.HandleFunc("/v1/nodes", s.handleNodes)
	sched.EnableAudit(1024)
	return s, nil
}

// Pipeline exposes node0's serving pipeline.
func (s *Server) Pipeline() *core.Pipeline { return s.pipe }

// Cluster exposes the serving fleet.
func (s *Server) Cluster() *cluster.Cluster { return s.fleet }

// Nodes exposes the fleet's nodes in index order (node0 first).
func (s *Server) Nodes() []*core.Node { return s.nodes }

// Close drains the fleet: admission stops (new classification requests
// get 503), open batches flush, and in-flight work completes on every
// node. Call after http.Server.Shutdown so drained handlers have no
// successor.
func (s *Server) Close() { s.fleet.Close() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// httpErrorReason is httpError plus a machine-readable "reason" field —
// clients distinguishing deadline_infeasible (never admitted, retrying
// is pointless until load drops) from deadline_exceeded (admitted but
// culled) key off it rather than parsing the message.
func httpErrorReason(w http.ResponseWriter, code int, reason, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{
		"error":  fmt.Sprintf(format, args...),
		"reason": reason,
	})
}

// methodNotAllowed answers 405 with the Allow header RFC 9110 §15.5.6
// requires; allow is the header's value, "GET, POST" for both.
func methodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	httpError(w, http.StatusMethodNotAllowed, "%s required", strings.ReplaceAll(allow, ", ", " or "))
}

// maxControlBody bounds the body of the control-plane POSTs
// (/v1/models, /v1/nodes), each a small JSON object.
const maxControlBody = 1 << 20

// decodeBody unmarshals the whole body of a control-plane POST into v —
// a body over maxControlBody is a 413, bytes after the object a 400 —
// and reports whether it did; when not, the error, which names what,
// is already written.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v interface{}) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxControlBody))
	if err != nil {
		httpError(w, bodyErrorStatus(err), "reading %s: %v", what, err)
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		httpError(w, http.StatusBadRequest, "decoding %s: %v", what, err)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// retryAfter converts a backlog estimate into a Retry-After hint:
// ceiling seconds clamped to [1, 30] — at least one second so shed
// clients always back off, at most thirty so a transient spike cannot
// park them for minutes.
func retryAfter(backlog time.Duration) string {
	secs := int64((backlog + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return strconv.FormatInt(secs, 10)
}

// ---- /v1/classify ------------------------------------------------------

// ClassifyRequest is the POST /v1/classify payload. It is the type
// clients encode with; the server reads the same JSON with its own
// single-pass decoder (decodeClassify), which takes exactly what
// json.Unmarshal into this struct takes — keys in any case, the last of
// a repeated key, unknown fields skipped, null for "absent" on any of
// the four fields — and differs in one place: a null where a sample or
// a sample value is expected is a 400 that names the sample, where
// Unmarshal would leave a 0. null is what JavaScript's JSON.stringify
// writes for NaN and Infinity, and a client's numeric bug should not be
// answered with a label.
type ClassifyRequest struct {
	Model   string      `json:"model"`
	Policy  string      `json:"policy"` // best-throughput | lowest-latency | energy-efficiency
	Samples [][]float32 `json:"samples"`
	// TimeoutMS is the request's latency SLO in milliseconds, measured
	// from admission. Positive values enable deadline enforcement
	// (admission-control rejection, pre-execution culling); 0 uses the
	// server's default SLO; negative opts out of any SLO.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// ClassifyResponse is the POST /v1/classify reply.
type ClassifyResponse struct {
	Model     string  `json:"model"`
	Device    string  `json:"device"`
	Policy    string  `json:"policy"`
	GPUWarm   bool    `json:"gpu_warm"`
	Spilled   bool    `json:"spilled"`
	Classes   []int   `json:"classes"`
	LatencyUS int64   `json:"latency_us"`
	EnergyJ   float64 `json:"energy_j"`
	// BatchSize is the aggregated live batch this request was served in
	// (≥ the request's own sample count when concurrent requests merged).
	BatchSize int `json:"batch_size"`
	// WaitUS is the aggregation delay the request paid before dispatch.
	WaitUS int64 `json:"wait_us"`
}

func parsePolicy(s string) (core.Policy, error) {
	switch s {
	case "best-throughput", "":
		return core.BestThroughput, nil
	case "lowest-latency":
		return core.LowestLatency, nil
	case "energy-efficiency":
		return core.EnergyEfficiency, nil
	default:
		return 0, fmt.Errorf("unknown policy %q", s)
	}
}

// maxClassifyBody bounds a /v1/classify body: room for some nine hundred
// cifar-10 images at eleven bytes a value, the largest sample any loaded
// model takes.
const maxClassifyBody = 32 << 20

// maxPooledBody is the largest body buffer bodyPool keeps: room for a
// batch of two hundred mnist images, so steady traffic reuses its
// buffers and one 32 MiB request does not pin 32 MiB for good.
const maxPooledBody = 1 << 20

// bodyPool holds /v1/classify body buffers between requests. A handler
// owns its buffer from readClassifyBody to releaseBody, and
// decodeClassify leaves nothing pointing into it.
var bodyPool = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

// releaseBody gives a body buffer back once its request is decoded.
func releaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// sampleBuf is a /v1/classify request's decoded samples: the backing the
// decoder fills. A handler owns one from decoding until Submit refuses
// the request or Wait returns its completion — core.PipelineRequest.Input
// is read until then and never after — and recycles it at either point.
// A handler whose Wait is abandoned leaves its samples to the GC: the
// pipeline may still be reading them.
type sampleBuf struct {
	flat []float32
}

// samplePool holds decoded samples between requests.
var samplePool = sync.Pool{New: func() interface{} { return new(sampleBuf) }}

// releaseSamples gives decoded samples back once nothing reads them,
// keeping no more of them than bodyPool keeps of a body.
func releaseSamples(s *sampleBuf) {
	if 4*cap(s.flat) <= maxPooledBody {
		samplePool.Put(s)
	}
}

// readClassifyBody reads the whole request body, at most maxClassifyBody
// bytes of it, into a pooled buffer, sized by Content-Length when the
// client declared one (plus the spare bytes.MinRead that ReadFrom wants
// before it will find EOF without growing), but to no more than a
// pooled buffer may hold: a client that declares 32 MiB and sends
// twelve bytes costs at most maxPooledBody, and a body that really is
// larger grows the buffer as it arrives. The caller releases it.
func readClassifyBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, error) {
	if r.ContentLength > maxClassifyBody {
		return nil, &http.MaxBytesError{Limit: maxClassifyBody}
	}
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if r.ContentLength > 0 {
		// Double as Grow would, but never past what bodyPool keeps.
		if want := int(min(r.ContentLength+bytes.MinRead, maxPooledBody)); buf.Cap() < want {
			buf = bytes.NewBuffer(make([]byte, 0, min(max(want, 2*buf.Cap()), maxPooledBody)))
		}
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxClassifyBody)); err != nil {
		releaseBody(buf)
		return nil, err
	}
	return buf, nil
}

// bodyErrorStatus maps a body read error to its status: 413 when the
// body ran over its cap, 400 otherwise.
func bodyErrorStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	body, err := readClassifyBody(w, r)
	if err != nil {
		httpError(w, bodyErrorStatus(err), "reading request: %v", err)
		return
	}
	smp := samplePool.Get().(*sampleBuf)
	recycle := true // until the pipeline may still be reading smp
	defer func() {
		if recycle {
			releaseSamples(smp)
		}
	}()
	req, err := decodeClassify(body.Bytes(), smp.flat)
	releaseBody(body)
	smp.flat = req.flat // keep a backing the decoder had to grow
	if err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	pol, err := parsePolicy(req.policy)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.rows == 0 {
		httpError(w, http.StatusBadRequest, "no samples")
		return
	}
	spec, err := s.sched.Dispatcher().Spec(req.model)
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	// The decoded values are the model's input tensor once every sample
	// has the model's width.
	per := 1
	for _, d := range spec.InputShape {
		per *= d
	}
	if i, n, wrong := req.wrongRow(per); wrong {
		httpError(w, http.StatusBadRequest, "sample %d has %d values, model %s needs %d", i, n, req.model, per)
		return
	}
	shape := append([]int{req.rows}, spec.InputShape...)
	in := tensor.FromSlice(req.flat, shape...)

	// Hand the request to the routing tier and wait on its future. The
	// router picks a node per the active policy and fails over past shed
	// or down nodes; the request context bounds the whole stay: client
	// disconnects abandon the wait and the serving pipeline culls the
	// request at the next stage boundary instead of executing it.
	var deadline time.Duration
	switch {
	case req.timeoutMS > 0:
		deadline = time.Duration(req.timeoutMS) * time.Millisecond
	case req.timeoutMS < 0:
		deadline = -1 // explicit SLO opt-out
	}
	fut, err := s.fleet.Submit(r.Context(), core.PipelineRequest{
		Model:    req.model,
		Policy:   pol,
		Input:    in,
		Deadline: deadline,
	})
	switch {
	case errors.Is(err, cluster.ErrNoHealthyNodes):
		// The mass-eviction wedge: every node is evicted, not Ready or
		// inside a down window. The back-off hint is the soonest
		// readmission the fleet can predict — the next chaos-window
		// recovery when chaos is scripted, else a floor covering the
		// recovery prober, whose device readmission makes a node Ready.
		w.Header().Set("Retry-After", retryAfter(s.fleet.ReadmissionHint()))
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, core.ErrAdmissionFull), errors.Is(err, core.ErrPipelineClosed),
		errors.Is(err, core.ErrNodeDraining), errors.Is(err, core.ErrNodeDown):
		// Load shedding / no capacity: every node the policy offered shed
		// or is down. The back-off hint scales with the fleet's actual
		// backlog instead of a fixed guess, so clients retry sooner on a
		// momentary spike and later under sustained saturation.
		w.Header().Set("Retry-After", retryAfter(s.fleet.QueueDelay()))
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, core.ErrDeadlineInfeasible):
		// Admission control: no device is predicted to make the SLO
		// under current load — rejected before any queueing.
		httpErrorReason(w, http.StatusGatewayTimeout, "deadline_infeasible", "%v", err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c, err := fut.Wait(r.Context())
	if err != nil {
		// The client went away or its own context deadline fired; the
		// pipeline will cull the abandoned request before execution, or
		// is executing it and reading its samples now.
		recycle = false
		httpError(w, http.StatusGatewayTimeout, "%v", err)
		return
	}
	switch {
	case errors.Is(c.Err, core.ErrDeadlineExceeded):
		// Admitted but the SLO passed before execution: culled, never run.
		httpErrorReason(w, http.StatusGatewayTimeout, "deadline_exceeded", "%v", c.Err)
		return
	case c.Err != nil:
		httpError(w, http.StatusInternalServerError, "%v", c.Err)
		return
	}
	writeJSON(w, ClassifyResponse{
		Model:     req.model,
		Device:    c.Decision.Device,
		Policy:    c.Decision.Policy.String(),
		GPUWarm:   c.Decision.GPUWarm,
		Spilled:   c.Decision.Spilled,
		Classes:   c.Classes,
		LatencyUS: c.Latency.Microseconds(),
		EnergyJ:   c.EnergyJ,
		BatchSize: c.BatchSize,
		WaitUS:    c.Wait.Microseconds(),
	})
}

// ---- /v1/models --------------------------------------------------------

// ModelSpec is the JSON shape of an architecture (POST /v1/models).
type ModelSpec struct {
	Name          string `json:"name"`
	Kind          string `json:"kind"` // "ffnn" | "cnn"
	InputShape    []int  `json:"input_shape"`
	Hidden        []int  `json:"hidden"`
	Classes       int    `json:"classes"`
	Activation    string `json:"activation"` // default "relu"
	VGGBlocks     int    `json:"vgg_blocks,omitempty"`
	ConvsPerBlock int    `json:"convs_per_block,omitempty"`
	Filters       int    `json:"filters,omitempty"`
	FilterSize    int    `json:"filter_size,omitempty"`
	PoolSize      int    `json:"pool_size,omitempty"`
	SamePad       bool   `json:"same_pad,omitempty"`
}

// ToSpec converts the JSON form into a validated nn.Spec. The wire shape
// is nn's canonical spec JSON, so decoding goes through one codec.
func (m ModelSpec) ToSpec() (*nn.Spec, error) {
	raw, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	return nn.ParseSpecJSON(raw)
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, map[string]interface{}{"models": s.sched.Dispatcher().Models()})
	case http.MethodPost:
		var m ModelSpec
		if !decodeBody(w, r, "model spec", &m) {
			return
		}
		spec, err := m.ToSpec()
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		// All nodes or none: a model some nodes have and others lack
		// could never be completed, every retry stopping at the first
		// node that has it.
		for _, nd := range s.nodes {
			if _, err := nd.Scheduler().Dispatcher().Spec(spec.Name); err == nil {
				httpError(w, http.StatusConflict, "model %q already loaded on %s", spec.Name, nd.Name())
				return
			}
		}
		// Built once and registered with every node, so the router can
		// place the model anywhere and the fleet answers identically
		// regardless of routing — from one copy of the weights.
		net, err := spec.Build(s.seed)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		for _, nd := range s.nodes {
			if err := nd.Scheduler().Dispatcher().Register(spec, s.seed, net); err != nil {
				httpError(w, http.StatusConflict, "loading on %s: %v", nd.Name(), err)
				return
			}
		}
		// Content-Type must be set before WriteHeader — headers written
		// after the status line are silently dropped.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		_ = json.NewEncoder(w).Encode(map[string]string{"loaded": spec.Name})
	default:
		methodNotAllowed(w, "GET, POST")
	}
}

// ---- /v1/devices and /v1/stats ------------------------------------------

// DeviceStatus is one entry of GET /v1/devices.
type DeviceStatus struct {
	Name        string  `json:"name"`
	Warm        bool    `json:"warm"`
	ClockFrac   float64 `json:"clock_frac"`
	BusyMicros  int64   `json:"busy_us"`
	Slowdown    float64 `json:"observed_slowdown"`
	Degraded    bool    `json:"degraded"`
	Quarantined bool    `json:"quarantined"`
}

func (s *Server) handleDevices(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	now := s.clock.Now()
	quarantined := map[string]bool{}
	for _, name := range s.sched.Quarantined() {
		quarantined[name] = true
	}
	var out []DeviceStatus
	for _, name := range s.sched.Devices() {
		st, err := s.sched.Runtime().State(name, now)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		slow, degraded := s.sched.DeviceHealth(name)
		busy := st.BusyUntil - now
		if busy < 0 {
			busy = 0
		}
		out = append(out, DeviceStatus{
			Name:        name,
			Warm:        st.Warm,
			ClockFrac:   st.ClockFrac,
			BusyMicros:  busy.Microseconds(),
			Slowdown:    slow,
			Degraded:    degraded,
			Quarantined: quarantined[name],
		})
	}
	writeJSON(w, map[string]interface{}{"devices": out})
}

// handleDecisions exposes the scheduler's decision audit trail
// (GET /v1/decisions?n=50).
func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	n := 50
	if raw := r.URL.Query().Get("n"); raw != "" {
		// strconv.Atoi rejects trailing junk ("50abc"), which Sscanf's
		// %d would silently accept.
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			httpError(w, http.StatusBadRequest, "invalid n %q", raw)
			return
		}
		n = v
	}
	w.Header().Set("Content-Type", "application/json")
	if err := s.sched.WriteAuditJSON(w, n); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
	}
}

// handlePipeline exposes serving-pipeline statistics: admission totals,
// load shed, batch flush triggers and live per-device queue depths.
func (s *Server) handlePipeline(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	writeJSON(w, s.pipe.Stats())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodNotAllowed(w, http.MethodGet)
		return
	}
	st := s.sched.Stats()
	perPolicy := map[string]int{}
	for pol, n := range st.PerPolicy {
		perPolicy[pol.String()] = n
	}
	pst := s.pipe.Stats()
	writeJSON(w, map[string]interface{}{
		"decisions":    st.Decisions,
		"spills":       st.Spills,
		"per_device":   st.PerDevice,
		"per_policy":   perPolicy,
		"quarantines":  st.Quarantines,
		"readmissions": st.Readmissions,
		"quarantined":  st.Quarantined,
		"uptime_us":    s.clock.Now().Microseconds(),
		// Deadline/overload posture: what admission control rejected
		// and what was culled.
		"slo": map[string]int64{
			"infeasible": pst.Infeasible,
			"culled":     pst.Cancelled,
			"expired":    pst.Expired,
		},
	})
}
