package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"bomw/internal/cluster"
	"bomw/internal/core"
	"bomw/internal/models"
)

// TestClusterEndpointResilienceBlocks: /v1/cluster carries the chaos
// block, and is read-only: a POST answers 405 with Allow: GET.
func TestClusterEndpointResilienceBlocks(t *testing.T) {
	ts := fleetServer(t)
	resp, err := http.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Chaos *struct {
			Enabled    bool            `json:"enabled"`
			Trips      *int64          `json:"trips"`
			Recoveries *int64          `json:"recoveries"`
			Plan       json.RawMessage `json:"plan"`
		} `json:"chaos"`
		PerNode []struct {
			ChaosDown    bool  `json:"chaos_down"`
			AvgLatencyUS int64 `json:"avg_latency_us"`
		} `json:"per_node"`
	}
	decode(t, resp, &st)
	switch {
	case st.Chaos == nil:
		t.Fatal("chaos block missing")
	case st.Chaos.Enabled:
		t.Fatal("chaos reported enabled with no injector armed")
	case st.Chaos.Trips == nil || st.Chaos.Recoveries == nil:
		t.Fatalf("chaos block lacks its edge counters: %+v", *st.Chaos)
	case *st.Chaos.Trips != 0 || *st.Chaos.Recoveries != 0:
		t.Fatalf("chaos edges counted with no plan armed: trips %d, recoveries %d", *st.Chaos.Trips, *st.Chaos.Recoveries)
	case string(st.Chaos.Plan) != "null":
		t.Fatalf("chaos.plan = %s, want null with no plan armed", st.Chaos.Plan)
	}
	if len(st.PerNode) != 4 {
		t.Fatalf("per_node rows = %d, want 4", len(st.PerNode))
	}

	resp = post(t, ts.URL+"/v1/cluster", map[string]string{"action": "sweep"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET" {
		t.Fatalf("POST /v1/cluster: status %d, Allow %q; want 405, GET", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

// TestMassEvictionMapsTo503WithRetryAfter is the server half of the
// mass-eviction satellite: every node evicted → classify answers 503
// with a Retry-After derived from the fleet's readmission hint.
func TestMassEvictionMapsTo503WithRetryAfter(t *testing.T) {
	sched, err := core.New(core.Config{
		TrainModels: models.PaperModels(),
		Batches:     []int{8, 512},
		Reps:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.LoadModel(models.Simple(), 1); err != nil {
		t.Fatal(err)
	}
	api, err := NewCluster(sched, 1, core.PipelineConfig{}, 2, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer api.Close()
	ts := httptest.NewServer(api)
	defer ts.Close()

	for _, name := range api.Cluster().NodeNames() {
		resp := post(t, ts.URL+"/v1/nodes", NodeAction{Node: name, Action: "evict"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("evicting %s: status %d", name, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp := post(t, ts.URL+"/v1/classify", ClassifyRequest{
		Model: "simple", Samples: [][]float32{{5.1, 3.5, 1.4, 0.2}},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("classify on an evicted fleet = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive back-off hint", ra)
	}
}
