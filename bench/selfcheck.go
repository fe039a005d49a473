package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkFile is BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadBenchmarkFile finds BENCHMARK.json from the repository root or
// from this directory.
func loadBenchmarkFile() (*benchmarkFile, error) {
	var data []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// selfCheck measures the benchmark against itself the way the driver
// does: every workload `runs` times in two alternating sets (A, B, A,
// B, …) of the same binary, each run on its own seed. It fails when a
// set's interquartile spread exceeds the metric's bound (setup_s
// excepted) or the two sets' medians differ by more than the bound.
func selfCheck(runs int, outDir string) (bool, error) {
	b, err := loadBenchmarkFile()
	if err != nil {
		return false, err
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	// values[workload][metric][set] is one value per run.
	values := map[string]map[string]*[2][]float64{}
	for i := 0; i < runs; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range b.Workloads {
				seed := 2*i + set + 1
				cmd := exec.Command(exe, "-workload", w.Name, "-seed", strconv.Itoa(seed),
					"-seconds", strconv.Itoa(b.RunSeconds), "-trace", "0", "-out", outDir)
				out, err := cmd.Output()
				if err != nil {
					return false, fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var res resultLine
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					return false, fmt.Errorf("%s seed %d: result line: %w", w.Name, seed, err)
				}
				if !res.Correct || res.Failed != 0 {
					return false, fmt.Errorf("%s seed %d: incorrect run", w.Name, seed)
				}
				if values[w.Name] == nil {
					values[w.Name] = map[string]*[2][]float64{}
				}
				for name, m := range res.Metrics {
					if values[w.Name][name] == nil {
						values[w.Name][name] = &[2][]float64{}
					}
					values[w.Name][name][set] = append(values[w.Name][name][set], m.Value)
				}
				fmt.Fprintf(os.Stderr, "run %d/%d set %c %s done\n", i+1, runs, 'A'+set, w.Name)
			}
		}
	}

	ok := true
	fmt.Printf("| workload | metric | set | median | q1 | q3 | min | max | spread | bound | verdict |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range b.Workloads {
		for _, m := range b.EndToEnd {
			sets := values[w.Name][m.Name]
			if sets == nil {
				return false, fmt.Errorf("%s: metric %s was never reported", w.Name, m.Name)
			}
			var med [2]float64
			for set, v := range sets {
				s := sortedCopy(v)
				med[set] = quantile(s, 0.5)
				spread := (quantile(s, 0.75) - quantile(s, 0.25)) / med[set]
				verdict := "ok"
				if spread > m.Bound && m.Name != "setup_s" {
					verdict, ok = "SPREAD", false
				}
				fmt.Printf("| %s | %s | %c | %.4f | %.4f | %.4f | %.4f | %.4f | %.4f | %.2f | %s |\n",
					w.Name, m.Name, 'A'+set, med[set], quantile(s, 0.25), quantile(s, 0.75), s[0], s[len(s)-1], spread, m.Bound, verdict)
			}
			diff := (med[1] - med[0]) / med[0]
			if diff < 0 {
				diff = -diff
			}
			verdict := "ok"
			if diff > m.Bound {
				verdict, ok = "MEDIANS DIFFER", false
			}
			fmt.Printf("| %s | %s | A vs B | | | | | | %.4f | %.2f | %s |\n", w.Name, m.Name, diff, m.Bound, verdict)
		}
	}
	return ok, nil
}
