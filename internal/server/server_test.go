package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bomw/internal/core"
	"bomw/internal/models"
	"bomw/internal/nn"
)

var (
	srvOnce sync.Once
	srv     *httptest.Server
	srvErr  error
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srvOnce.Do(func() {
		sched, err := core.New(core.Config{
			TrainModels: models.PaperModels(),
			Batches:     []int{8, 512, 8192, 65536},
			Reps:        1,
		})
		if err != nil {
			srvErr = err
			return
		}
		for _, m := range []*nn.Spec{models.Simple(), models.MnistSmall()} {
			if err := sched.LoadModel(m, 1); err != nil {
				srvErr = err
				return
			}
		}
		srv = httptest.NewServer(New(sched, 1))
	})
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	return srv
}

var modelSeq atomic.Int64

// freshModelName names a model no earlier load into a shared fixture
// used: loads are permanent, so a fixed name would conflict (409) the
// second time a test runs in one process (go test -count=2).
func freshModelName(base string) string {
	return fmt.Sprintf("%s-%d", base, modelSeq.Add(1))
}

func post(t *testing.T, url string, body interface{}) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode(t *testing.T, resp *http.Response, v interface{}) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestClassifyEndpoint(t *testing.T) {
	ts := testServer(t)
	samples := make([][]float32, 4)
	for i := range samples {
		samples[i] = []float32{0.1, 0.2, 0.3, 0.4}
	}
	resp := post(t, ts.URL+"/v1/classify", ClassifyRequest{
		Model: "simple", Policy: "lowest-latency", Samples: samples,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out ClassifyResponse
	decode(t, resp, &out)
	if len(out.Classes) != 4 {
		t.Fatalf("classes = %v", out.Classes)
	}
	if out.Device == "" || out.LatencyUS <= 0 || out.EnergyJ <= 0 {
		t.Fatalf("degenerate response: %+v", out)
	}
	if out.Policy != "lowest-latency" {
		t.Fatalf("policy echoed as %q", out.Policy)
	}
}

func TestClassifyErrors(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		body interface{}
		want int
	}{
		{ClassifyRequest{Model: "simple", Samples: nil}, http.StatusBadRequest},
		{ClassifyRequest{Model: "nope", Samples: [][]float32{{1, 2, 3, 4}}}, http.StatusNotFound},
		{ClassifyRequest{Model: "simple", Policy: "weird", Samples: [][]float32{{1, 2, 3, 4}}}, http.StatusBadRequest},
		{ClassifyRequest{Model: "simple", Samples: [][]float32{{1, 2}}}, http.StatusBadRequest}, // wrong width
	}
	for i, c := range cases {
		resp := post(t, ts.URL+"/v1/classify", c.body)
		if resp.StatusCode != c.want {
			t.Fatalf("case %d: status %d, want %d", i, resp.StatusCode, c.want)
		}
		resp.Body.Close()
	}
	// GET not allowed.
	resp, err := http.Get(ts.URL + "/v1/classify")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET classify status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestDynamicModelLoading(t *testing.T) {
	ts := testServer(t)
	spec := ModelSpec{
		Name:       freshModelName("live-ffnn"),
		Kind:       "ffnn",
		InputShape: []int{16},
		Hidden:     []int{32, 16},
		Classes:    4,
	}
	resp := post(t, ts.URL+"/v1/models", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("load status %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Duplicate load conflicts.
	resp = post(t, ts.URL+"/v1/models", spec)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate load status %d", resp.StatusCode)
	}
	resp.Body.Close()
	// The new model is listed and classifiable immediately (§V-A).
	var list struct {
		Models []string `json:"models"`
	}
	getResp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, getResp, &list)
	found := false
	for _, m := range list.Models {
		if m == spec.Name {
			found = true
		}
	}
	if !found {
		t.Fatalf("%s missing from %v", spec.Name, list.Models)
	}
	sample := make([]float32, 16)
	resp = post(t, ts.URL+"/v1/classify", ClassifyRequest{
		Model: spec.Name, Samples: [][]float32{sample},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify on dynamic model: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestModelSpecValidation(t *testing.T) {
	ts := testServer(t)
	bad := []ModelSpec{
		{Name: "x", Kind: "rnn", InputShape: []int{4}, Classes: 2},
		{Name: "x", Kind: "ffnn", InputShape: []int{4}, Classes: 0},
		{Name: "x", Kind: "ffnn", InputShape: []int{4}, Classes: 2, Activation: "swish"},
		{Name: "x", Kind: "cnn", InputShape: []int{4}, Classes: 2},
	}
	for i, m := range bad {
		resp := post(t, ts.URL+"/v1/models", m)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d: status %d, want 400", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestDevicesEndpoint(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/devices")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Devices []DeviceStatus `json:"devices"`
	}
	decode(t, resp, &out)
	if len(out.Devices) != 3 {
		t.Fatalf("devices = %d", len(out.Devices))
	}
	for _, d := range out.Devices {
		if d.Name == "" || d.ClockFrac <= 0 || d.Slowdown <= 0 {
			t.Fatalf("degenerate device status: %+v", d)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := testServer(t)
	// Make at least one decision first.
	resp := post(t, ts.URL+"/v1/classify", ClassifyRequest{
		Model: "simple", Samples: [][]float32{{1, 2, 3, 4}},
	})
	resp.Body.Close()
	r2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Decisions int            `json:"decisions"`
		PerDevice map[string]int `json:"per_device"`
	}
	decode(t, r2, &out)
	if out.Decisions < 1 || len(out.PerDevice) == 0 {
		t.Fatalf("stats = %+v", out)
	}
}

func TestConcurrentClassifyRequests(t *testing.T) {
	// The server must survive parallel clients: the scheduler's state
	// (device queues, health monitor, stats) is shared.
	ts := testServer(t)
	const clients = 16
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func() {
			samples := [][]float32{{0.5, 0.5, 0.5, 0.5}}
			for i := 0; i < 5; i++ {
				resp, err := http.Post(ts.URL+"/v1/classify", "application/json",
					bytes.NewReader(mustJSON(ClassifyRequest{Model: "simple", Samples: samples})))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func mustJSON(v interface{}) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return raw
}

func TestDecisionsEndpoint(t *testing.T) {
	ts := testServer(t)
	// Generate at least one decision.
	resp := post(t, ts.URL+"/v1/classify", ClassifyRequest{
		Model: "simple", Samples: [][]float32{{1, 2, 3, 4}},
	})
	resp.Body.Close()
	r, err := http.Get(ts.URL + "/v1/decisions?n=10")
	if err != nil {
		t.Fatal(err)
	}
	var entries []map[string]interface{}
	decode(t, r, &entries)
	if len(entries) == 0 {
		t.Fatal("audit trail empty after classification")
	}
	last := entries[len(entries)-1]
	if last["model"] != "simple" || last["device"] == "" {
		t.Fatalf("audit entry wrong: %v", last)
	}
	// Bad n rejected.
	r2, err := http.Get(ts.URL + "/v1/decisions?n=-1")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad n status %d", r2.StatusCode)
	}
}

func TestClassifyReportsBatching(t *testing.T) {
	ts := testServer(t)
	resp := post(t, ts.URL+"/v1/classify", ClassifyRequest{
		Model: "simple", Policy: "best-throughput",
		Samples: [][]float32{{1, 2, 3, 4}, {4, 3, 2, 1}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out ClassifyResponse
	decode(t, resp, &out)
	if out.BatchSize < 2 {
		t.Fatalf("batch_size = %d, want ≥ 2 (request had 2 samples)", out.BatchSize)
	}
	if out.WaitUS < 0 {
		t.Fatalf("wait_us = %d, want ≥ 0", out.WaitUS)
	}
}

func TestPipelineStatsEndpoint(t *testing.T) {
	ts := testServer(t)
	resp := post(t, ts.URL+"/v1/classify", ClassifyRequest{
		Model: "simple", Samples: [][]float32{{1, 2, 3, 4}},
	})
	resp.Body.Close()
	r, err := http.Get(ts.URL + "/v1/pipeline")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]interface{}
	decode(t, r, &stats)
	for _, key := range []string{"submitted", "completed", "shed", "batches", "in_flight", "device_depth"} {
		if _, ok := stats[key]; !ok {
			t.Fatalf("pipeline stats missing %q: %v", key, stats)
		}
	}
	if stats["submitted"].(float64) < 1 {
		t.Fatalf("submitted = %v after a classify", stats["submitted"])
	}
}

// TestShedReturns503 exercises the load-shedding contract end to end: a
// server whose pipeline no longer admits work must answer 503 with a
// JSON error body and a Retry-After hint, and draining must leave no
// accepted request unanswered.
func TestShedReturns503(t *testing.T) {
	sched, err := core.New(core.Config{
		TrainModels: models.PaperModels(),
		Batches:     []int{8, 512, 8192, 65536},
		Reps:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.LoadModel(models.Simple(), 1); err != nil {
		t.Fatal(err)
	}
	api := NewWithConfig(sched, 1, core.PipelineConfig{QueueDepth: 1})
	ts := httptest.NewServer(api)
	defer ts.Close()

	// Warm path works.
	resp := post(t, ts.URL+"/v1/classify", ClassifyRequest{
		Model: "simple", Samples: [][]float32{{1, 2, 3, 4}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Drain the pipeline — the graceful-shutdown sequence bomwsrv runs
	// after http.Server.Shutdown. New work must now be shed with 503.
	api.Close()
	resp = post(t, ts.URL+"/v1/classify", ClassifyRequest{
		Model: "simple", Samples: [][]float32{{1, 2, 3, 4}},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status after drain = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 missing Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 || secs > 30 {
		t.Fatalf("Retry-After = %q, want integer seconds in [1,30]", ra)
	}
	var body map[string]string
	decode(t, resp, &body)
	if body["error"] == "" {
		t.Fatalf("503 body not a JSON error: %v", body)
	}
	st := api.Pipeline().Stats()
	if st.Submitted != st.Completed || st.InFlight != 0 {
		t.Fatalf("drain left work behind: %+v", st)
	}
}

// TestRetryAfterScalesWithBacklog pins the Retry-After derivation: the
// hint is the fleet backlog in ceiling seconds, clamped to [1, 30], so
// a saturated system tells clients to stay away longer than an idle one.
func TestRetryAfterScalesWithBacklog(t *testing.T) {
	cases := []struct {
		backlog time.Duration
		want    string
	}{
		{0, "1"},                      // idle: floor keeps clients backing off at all
		{300 * time.Millisecond, "1"}, // sub-second rounds up to the floor
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"}, // ceiling, not truncation
		{5 * time.Second, "5"},
		{29*time.Second + time.Millisecond, "30"},
		{2 * time.Minute, "30"}, // cap: a spike cannot park clients for minutes
	}
	var prev int
	for _, c := range cases {
		got := retryAfter(c.backlog)
		if got != c.want {
			t.Errorf("retryAfter(%v) = %q, want %q", c.backlog, got, c.want)
		}
		secs, err := strconv.Atoi(got)
		if err != nil {
			t.Fatalf("retryAfter(%v) = %q, not an integer", c.backlog, got)
		}
		if secs < prev {
			t.Fatalf("retryAfter not monotone: %v yields %d after %d", c.backlog, secs, prev)
		}
		prev = secs
	}
}

// The classify body is read whole, under a cap, before it is parsed.
func TestClassifyBodyIsBoundedAndParsedWhole(t *testing.T) {
	ts := testServer(t)
	const valid = `{"model":"simple","samples":[[0.1,0.2,0.3,0.4]]}`
	chunked := func(body string) io.Reader { return struct{ io.Reader }{strings.NewReader(body)} } // no length for http.Post to declare
	for _, tc := range []struct {
		name string
		body io.Reader
		want int
	}{
		{"declared length", strings.NewReader(valid), http.StatusOK},
		{"chunked", chunked(valid), http.StatusOK},
		{"trailing garbage", strings.NewReader(valid + `{"model":"simple"}`), http.StatusBadRequest},
		{"trailing garbage, chunked", chunked(valid + "x"), http.StatusBadRequest},
		{"truncated", strings.NewReader(valid[:len(valid)-1]), http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/classify", "application/json", tc.body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		if tc.want == http.StatusOK {
			var out ClassifyResponse
			decode(t, resp, &out)
			if len(out.Classes) != 1 {
				t.Errorf("%s: classes = %v", tc.name, out.Classes)
			}
		} else {
			resp.Body.Close()
		}
	}

	// Over the cap, straight at the handler: a client still writing 32 MB
	// into a socket the server has answered and closed may see the reset
	// before the 413.
	declared := httptest.NewRequest(http.MethodPost, "/v1/classify", strings.NewReader(valid))
	declared.ContentLength = maxClassifyBody + 1
	endless := httptest.NewRequest(http.MethodPost, "/v1/classify", io.MultiReader(strings.NewReader(valid), spaces{}))
	endless.ContentLength = -1
	for name, req := range map[string]*http.Request{"declared": declared, "chunked": endless} {
		rec := httptest.NewRecorder()
		ts.Config.Handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("over the cap, %s: status %d, want 413", name, rec.Code)
		}
	}
}

// spaces is a body that never ends.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// The two control-plane POSTs read a bounded body and parse all of
// it: over the cap is a 413 and anything after the object a 400, and
// in neither case is the action taken.
func TestControlPostBodiesAreBoundedAndParsedWhole(t *testing.T) {
	ts := testServer(t)
	for _, tc := range []struct{ path, body string }{
		{"/v1/models", `{"name":"never-loaded","kind":"ffnn","input_shape":[4],"hidden":[4],"classes":2}`},
		{"/v1/nodes", `{"node":"nope","action":"readmit"}`},
	} {
		for name, c := range map[string]struct {
			body io.Reader
			want int
		}{
			"over the cap":     {io.MultiReader(strings.NewReader(tc.body), io.LimitReader(spaces{}, maxControlBody)), http.StatusRequestEntityTooLarge},
			"trailing garbage": {strings.NewReader(tc.body + `{"x":1}`), http.StatusBadRequest},
		} {
			rec := httptest.NewRecorder()
			ts.Config.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, c.body))
			if rec.Code != c.want {
				t.Errorf("POST %s, %s: status %d, want %d (%s)", tc.path, name, rec.Code, c.want, strings.TrimSpace(rec.Body.String()))
			}
		}
	}
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var listed struct {
		Models []string `json:"models"`
	}
	decode(t, resp, &listed)
	for _, m := range listed.Models {
		if m == "never-loaded" {
			t.Error("a refused POST /v1/models loaded its model")
		}
	}
}

// Every endpoint answers a method it does not take with 405 and the
// Allow header that says which it does (RFC 9110 §15.5.6).
func TestMethodNotAllowedNamesTheAllowedMethods(t *testing.T) {
	ts := testServer(t)
	for path, allow := range map[string]string{
		"/v1/classify":  "POST",
		"/v1/models":    "GET, POST",
		"/v1/devices":   "GET",
		"/v1/stats":     "GET",
		"/v1/decisions": "GET",
		"/v1/pipeline":  "GET",
		"/v1/cluster":   "GET",
		"/v1/nodes":     "GET, POST",
	} {
		req, err := http.NewRequest(http.MethodPut, ts.URL+path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Error string `json:"error"`
		}
		decode(t, resp, &out)
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != allow {
			t.Errorf("PUT %s: status %d, Allow %q; want 405, %q", path, resp.StatusCode, resp.Header.Get("Allow"), allow)
		}
		if want := strings.ReplaceAll(allow, ", ", " or ") + " required"; out.Error != want {
			t.Errorf("PUT %s: error %q, want %q", path, out.Error, want)
		}
	}
}
