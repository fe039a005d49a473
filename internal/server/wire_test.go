package server

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"bomw/internal/cluster"
	"bomw/internal/core"
	"bomw/internal/fault"
	"bomw/internal/models"
)

var update = flag.Bool("update", false, "rewrite testdata/wire_keys.golden")

// dataKeyed are the objects whose keys are data (device and policy
// names), not schema: their children are recorded as one "*" entry.
var dataKeyed = map[string]bool{
	"/v1/pipeline device_depth": true,
	"/v1/stats per_device":      true,
	"/v1/stats per_policy":      true,
}

// wirePaths walks a decoded JSON value and records every key path with
// its JSON type ("per_node[].avg_latency_us:number").
func wirePaths(endpoint, path string, v interface{}, out map[string]bool) {
	typ := "null"
	switch x := v.(type) {
	case map[string]interface{}:
		typ = "object"
		for k, child := range x {
			if dataKeyed[endpoint+" "+path] {
				k = "*"
			}
			sub := k
			if path != "" {
				sub = path + "." + k
			}
			wirePaths(endpoint, sub, child, out)
		}
	case []interface{}:
		typ = "array"
		for _, child := range x {
			wirePaths(endpoint, path+"[]", child, out)
		}
	case string:
		typ = "string"
	case float64:
		typ = "number"
	case bool:
		typ = "bool"
	}
	if path != "" {
		out[fmt.Sprintf("%s %s:%s", endpoint, path, typ)] = true
	}
}

// TestWireKeys pins the JSON schema of the observability endpoints — every
// key path and its type — against testdata/wire_keys.golden, on a 4-node
// fleet with a fault plan armed. The stats structs are the
// wire schema, so a renamed field or a dropped tag shows up here as a
// changed line. A key may be added (run with -update and say so in the
// change); none may disappear, move or change type.
func TestWireKeys(t *testing.T) {
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
	faults := fault.NewInjector(fault.Plan{Seed: 1, Faults: []fault.Fault{
		{Node: "node1", Start: time.Hour, End: 2 * time.Hour, Effect: fault.Down},
	}})
	api, err := NewCluster(sched, 1, core.PipelineConfig{}, 4, cluster.Config{
		Faults: faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(api)
	defer ts.Close()
	defer api.Close()

	// Two laps of the round-robin router, so node0 — the node /v1/stats
	// and /v1/pipeline describe — serves both kinds of request.
	for i := 0; i < 8; i++ {
		classifyOK(t, ts.URL)
		resp := post(t, ts.URL+"/v1/classify", classifyBody(60_000))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("classify with timeout_ms: status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}

	seen := map[string]bool{}
	for _, ep := range []string{"/v1/pipeline", "/v1/stats", "/v1/cluster", "/v1/nodes", "/v1/devices"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		var v interface{}
		decode(t, resp, &v)
		wirePaths(ep, "", v, seen)
	}
	lines := make([]string, 0, len(seen))
	for l := range seen {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	const golden = "testdata/wire_keys.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		wantSet := map[string]bool{}
		for _, l := range strings.Split(strings.TrimSpace(string(want)), "\n") {
			wantSet[l] = true
			if !seen[l] {
				t.Errorf("missing from the wire: %s", l)
			}
		}
		for _, l := range lines {
			if !wantSet[l] {
				t.Errorf("not in %s: %s", golden, l)
			}
		}
	}
}
