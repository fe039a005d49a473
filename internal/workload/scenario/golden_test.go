package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden scenario reports")

// Golden reports: a fixed (params, seed, backend) must serialise to the
// exact bytes on disk. This pins the whole deterministic surface at
// once — arrival sampling, scheduler decisions, the device timing
// model, percentile math and JSON field order. Regenerate deliberately
// with:
//
//	go test ./internal/workload/scenario/ -run TestGolden -update
func TestGoldenReports(t *testing.T) {
	cases := []struct {
		file string
		run  func(t *testing.T) (any, error)
	}{
		{"node_single-stream.json", func(t *testing.T) (any, error) {
			p := baseParams()
			p.Kind = SingleStream
			return Run(freshNode(t), p)
		}},
		{"node_multi-stream.json", func(t *testing.T) (any, error) {
			p := baseParams()
			p.Kind = MultiStream
			return Run(freshNode(t), p)
		}},
		{"node_server.json", func(t *testing.T) (any, error) {
			p := baseParams()
			p.Kind = Server
			return Run(freshNode(t), p)
		}},
		{"node_offline.json", func(t *testing.T) (any, error) {
			p := baseParams()
			p.Kind = Offline
			return Run(freshNode(t), p)
		}},
		{"fleet4_server.json", func(t *testing.T) (any, error) {
			p := baseParams()
			p.Kind = Server
			p.TargetRate = 2000 // enough offered load to exercise routing
			return Run(freshFleet(t, 4), p)
		}},
		// The max rate one node sustains under a 20 ms SLO at 0.99
		// attainment (ROADMAP's 3760 qps), with the probe trail.
		{"node_server_search.json", func(t *testing.T) (any, error) {
			b := freshNode(t)
			p := baseParams()
			p.Kind = Server
			p.Queries = 256
			p.Seed = 1
			return FindMaxRate(func(rate float64) (Report, error) {
				p.TargetRate = rate
				return Run(b, p)
			}, 10, 1e6, 0.99, 8)
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			rep, err := tc.run(t)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden", tc.file)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to generate)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report drifted from golden %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}
