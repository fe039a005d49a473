package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"bomw/internal/core"
	"bomw/internal/fault"
	"bomw/internal/models"
)

// TestModelLoadResponseContentType is the regression test for the
// dropped header: POST /v1/models used to call WriteHeader(201) before
// setting Content-Type, so the JSON body shipped without one.
func TestModelLoadResponseContentType(t *testing.T) {
	ts := testServer(t)
	name := freshModelName("content-type-probe")
	resp := post(t, ts.URL+"/v1/models", ModelSpec{
		Name:       name,
		Kind:       "ffnn",
		InputShape: []int{8},
		Hidden:     []int{16},
		Classes:    2,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("load status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("201 Content-Type = %q, want application/json", ct)
	}
	var body map[string]string
	decode(t, resp, &body)
	if body["loaded"] != name {
		t.Fatalf("201 body = %v", body)
	}
}

// TestDecisionsRejectsTrailingJunk is the regression test for lax query
// parsing: ?n=50abc used to Sscanf to 50 and be silently accepted.
func TestDecisionsRejectsTrailingJunk(t *testing.T) {
	ts := testServer(t)
	for _, raw := range []string{"50abc", "0x10", "1e3", ""} {
		resp, err := http.Get(ts.URL + "/v1/decisions?n=" + raw)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusBadRequest
		if raw == "" { // empty keeps the default and succeeds
			want = http.StatusOK
		}
		if resp.StatusCode != want {
			t.Fatalf("n=%q status = %d, want %d", raw, resp.StatusCode, want)
		}
	}
}

// TestFailureDomainEndpoints drives a real failover through the HTTP
// path and checks the failure domain is observable: /v1/pipeline counts
// retries/failovers, /v1/devices flags the quarantined device, and
// /v1/stats reports quarantine/readmission totals.
func TestFailureDomainEndpoints(t *testing.T) {
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
	// The prober is disabled so recovery timing stays deterministic.
	api := NewWithConfig(sched, 1, core.PipelineConfig{ProbeInterval: -1})
	ts := httptest.NewServer(api)
	defer ts.Close()
	defer api.Close()

	classify := func() ClassifyResponse {
		t.Helper()
		resp := post(t, ts.URL+"/v1/classify", ClassifyRequest{
			Model: "simple", Samples: [][]float32{{1, 2, 3, 4}},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("classify status %d", resp.StatusCode)
		}
		var out ClassifyResponse
		decode(t, resp, &out)
		return out
	}

	failed := classify().Device // learn the hot device, then break it
	sched.Runtime().SetFaults(fault.NewInjector(fault.Plan{Seed: 5, Faults: []fault.Fault{
		{Node: fault.AllNodes, Device: failed, Effect: fault.Err, P: 1},
	}}), "node0", 0)
	for i := 0; i < 4; i++ {
		if got := classify(); got.Device == failed {
			t.Fatalf("request %d served by the failing device", i)
		}
	}

	var pipe map[string]interface{}
	resp, err := http.Get(ts.URL + "/v1/pipeline")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, &pipe)
	if pipe["retries"].(float64) == 0 || pipe["failovers"].(float64) == 0 {
		t.Fatalf("pipeline stats missing failover evidence: %v", pipe)
	}
	if pipe["exec_failures"].(float64) != 0 {
		t.Fatalf("exec_failures = %v, want 0", pipe["exec_failures"])
	}

	var devs struct {
		Devices []DeviceStatus `json:"devices"`
	}
	resp, err = http.Get(ts.URL + "/v1/devices")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, &devs)
	seen := false
	for _, d := range devs.Devices {
		if d.Name == failed {
			seen = true
			if !d.Quarantined {
				t.Fatalf("%s not flagged quarantined: %+v", failed, d)
			}
		} else if d.Quarantined {
			t.Fatalf("healthy device flagged quarantined: %+v", d)
		}
	}
	if !seen {
		t.Fatalf("device %q missing from /v1/devices", failed)
	}

	var stats map[string]interface{}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, &stats)
	if stats["quarantines"].(float64) == 0 {
		t.Fatalf("stats missing quarantine count: %v", stats)
	}
	if list := stats["quarantined"].([]interface{}); len(list) != 1 || list[0] != failed {
		t.Fatalf("quarantined list = %v, want [%s]", list, failed)
	}

	// Recovery: clear the fault, probe, and the device disappears from
	// the quarantine list while the readmission counter ticks.
	sched.Runtime().SetFaults(nil, "", 0)
	if got := sched.ProbeQuarantined(0); len(got) != 1 || got[0] != failed {
		t.Fatalf("probe after recovery = %v", got)
	}
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats = nil
	decode(t, resp, &stats)
	if stats["readmissions"].(float64) == 0 || len(stats["quarantined"].([]interface{})) != 0 {
		t.Fatalf("stats after readmission = %v", stats)
	}
}
