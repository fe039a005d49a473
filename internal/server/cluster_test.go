package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"bomw/internal/cluster"
	"bomw/internal/core"
	"bomw/internal/models"
)

var (
	fleetOnce sync.Once
	fleetSrv  *httptest.Server
	fleetErr  error
)

// fleetServer stands up a shared 4-node fleet behind least-loaded
// routing for the cluster endpoint tests. Tests that kill or drain a
// node take a newFleet of their own instead: those are terminal.
func fleetServer(t *testing.T) *httptest.Server {
	t.Helper()
	fleetOnce.Do(func() { fleetSrv, _, fleetErr = buildFleet() })
	if fleetErr != nil {
		t.Fatal(fleetErr)
	}
	return fleetSrv
}

// newFleet stands up a 4-node least-loaded fleet for one test and
// closes it when the test ends.
func newFleet(t *testing.T) *httptest.Server {
	t.Helper()
	ts, api, err := buildFleet()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ts.Close()
		api.Close()
	})
	return ts
}

func buildFleet() (*httptest.Server, *Server, error) {
	sched, err := core.New(core.Config{
		TrainModels: models.PaperModels(),
		Batches:     []int{8, 512, 8192, 65536},
		Reps:        1,
	})
	if err != nil {
		return nil, nil, err
	}
	if err := sched.LoadModel(models.Simple(), 1); err != nil {
		return nil, nil, err
	}
	api, err := NewCluster(sched, 1, core.PipelineConfig{}, 4, cluster.Config{Policy: cluster.LeastLoaded})
	if err != nil {
		return nil, nil, err
	}
	return httptest.NewServer(api), api, nil
}

func classifyOK(t *testing.T, url string) ClassifyResponse {
	t.Helper()
	samples := make([][]float32, 4)
	for i := range samples {
		samples[i] = []float32{5.1, 3.5, 1.4, 0.2}
	}
	resp := post(t, url+"/v1/classify", ClassifyRequest{Model: "simple", Samples: samples})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify status = %d", resp.StatusCode)
	}
	var out ClassifyResponse
	decode(t, resp, &out)
	return out
}

func TestClusterEndpointReportsFleet(t *testing.T) {
	ts := fleetServer(t)
	classifyOK(t, ts.URL)

	resp, err := http.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Policy    string                   `json:"policy"`
		Nodes     int                      `json:"nodes"`
		Ready     int                      `json:"ready"`
		Submits   int64                    `json:"submits"`
		Submitted int64                    `json:"submitted"`
		Completed int64                    `json:"completed"`
		PerNode   []map[string]interface{} `json:"per_node"`
	}
	decode(t, resp, &st)
	if st.Policy != "least-loaded" || st.Nodes != 4 {
		t.Fatalf("fleet identity = %q/%d", st.Policy, st.Nodes)
	}
	if st.Submits < 1 || st.Submitted < 1 || st.Completed < 1 {
		t.Fatalf("fleet counters empty: %+v", st)
	}
	if len(st.PerNode) != 4 {
		t.Fatalf("per_node has %d rows", len(st.PerNode))
	}
	if st.PerNode[0]["name"] != "node0" {
		t.Fatalf("per_node[0] = %v", st.PerNode[0])
	}
}

func TestNodesEndpointListsAndActs(t *testing.T) {
	ts := newFleet(t) // kills node2: a fleet of its own

	resp, err := http.Get(ts.URL + "/v1/nodes")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Nodes []struct {
			Name    string `json:"name"`
			State   string `json:"state"`
			Ready   bool   `json:"ready"`
			Devices int    `json:"devices"`
		} `json:"nodes"`
	}
	decode(t, resp, &listing)
	if len(listing.Nodes) != 4 {
		t.Fatalf("nodes = %+v", listing.Nodes)
	}
	for _, n := range listing.Nodes {
		if n.State != "ready" || !n.Ready || n.Devices == 0 {
			t.Fatalf("node not ready at start: %+v", n)
		}
	}

	// Kill one node; the fleet keeps classifying and reports the loss.
	resp = post(t, ts.URL+"/v1/nodes", NodeAction{Node: "node2", Action: "kill"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("kill status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	classifyOK(t, ts.URL)
	resp, err = http.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Ready int `json:"ready"`
	}
	decode(t, resp, &st)
	if st.Ready != 3 {
		t.Fatalf("ready = %d after kill, want 3", st.Ready)
	}

	// A killed node cannot be readmitted.
	resp = post(t, ts.URL+"/v1/nodes", NodeAction{Node: "node2", Action: "readmit"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("readmit of killed node = %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()

	// Evict + readmit round-trips a healthy node.
	resp = post(t, ts.URL+"/v1/nodes", NodeAction{Node: "node1", Action: "evict"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evict status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp = post(t, ts.URL+"/v1/nodes", NodeAction{Node: "node1", Action: "readmit"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readmit status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Unknown node and unknown action.
	resp = post(t, ts.URL+"/v1/nodes", NodeAction{Node: "node9", Action: "kill"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown node = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
	resp = post(t, ts.URL+"/v1/nodes", NodeAction{Node: "node0", Action: "reboot"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown action = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestModelLoadReplicatesToEveryNode checks the fleet-wide model load:
// a model POSTed once must become servable no matter which node the
// router picks.
func TestModelLoadReplicatesToEveryNode(t *testing.T) {
	ts := fleetServer(t)
	name := freshModelName("fleet-mlp")
	resp := post(t, ts.URL+"/v1/models", ModelSpec{
		Name:       name,
		Kind:       "ffnn",
		InputShape: []int{4},
		Hidden:     []int{8},
		Classes:    3,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("model load status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	samples := make([][]float32, 2)
	for i := range samples {
		samples[i] = []float32{1, 2, 3, 4}
	}
	// Enough classifications to touch several nodes under routing.
	for i := 0; i < 8; i++ {
		resp := post(t, ts.URL+"/v1/classify", ClassifyRequest{Model: name, Samples: samples})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("classify %d on fleet-wide model = %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestModelLoadIsAllOrNothing: a model one node already has must not be
// half-loaded onto the nodes before it — that state could never be
// repaired, every retry stopping at the first node that has the model —
// and a model no node has lands on every node as one shared network.
func TestModelLoadIsAllOrNothing(t *testing.T) {
	sched, err := core.New(core.Config{TrainModels: models.PaperModels(), Batches: []int{8, 512}, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	api, err := NewCluster(sched, 1, core.PipelineConfig{}, 3, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer api.Close()
	ts := httptest.NewServer(api)
	defer ts.Close()

	taken := ModelSpec{Name: "taken", Kind: "ffnn", InputShape: []int{4}, Hidden: []int{8}, Classes: 3}
	spec, err := taken.ToSpec()
	if err != nil {
		t.Fatal(err)
	}
	nodes := api.Nodes()
	if err := nodes[2].Scheduler().LoadModel(spec, 1); err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 2; attempt++ {
		resp := post(t, ts.URL+"/v1/models", taken)
		var body map[string]string
		decode(t, resp, &body)
		if resp.StatusCode != http.StatusConflict || !strings.Contains(body["error"], "node2") {
			t.Fatalf("attempt %d: status %d, error %q; want a 409 naming node2", attempt, resp.StatusCode, body["error"])
		}
		for _, nd := range nodes[:2] {
			if _, err := nd.Scheduler().Dispatcher().Spec("taken"); err == nil {
				t.Fatalf("attempt %d: %s was given a model the fleet refused", attempt, nd.Name())
			}
		}
	}

	free := taken
	free.Name = "free"
	resp := post(t, ts.URL+"/v1/models", free)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("loading a model no node has: status %d", resp.StatusCode)
	}
	first, err := nodes[0].Scheduler().Dispatcher().Network("free")
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes[1:] {
		if got, err := nd.Scheduler().Dispatcher().Network("free"); err != nil || got != first {
			t.Errorf("%s: network %p (%v), want node0's %p", nd.Name(), got, err, first)
		}
	}
}
