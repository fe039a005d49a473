package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"testing"
	"time"

	"bomw/internal/server"
)

func TestQuantileMatchesPythonExclusive(t *testing.T) {
	// Expected values are statistics.quantiles(data, n=4) from Python.
	cases := []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{237.1, 259.0, 241.5, 250.2, 244.9, 239.3, 255.7, 248.8, 243.0, 252.4}, [3]float64{240.95, 246.85, 253.225}},
		{[]float64{3, 1, 2, 5, 4, 6}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
	}
	for _, c := range cases {
		s := sortedCopy(c.data)
		for i, p := range []float64{0.25, 0.5, 0.75} {
			if got := quantile(s, p); math.Abs(got-c.want[i]) > 1e-9 {
				t.Errorf("quantile(%v, %v) = %v, want %v", c.data, p, got, c.want[i])
			}
		}
	}
	// Fewer than three values: clamped to the sample, never extrapolated.
	if got := quantile([]float64{10, 20}, 0.25); got != 10 {
		t.Errorf("quantile of two values = %v, want the smaller", got)
	}
	if got := quantile([]float64{7}, 0.75); got != 7 {
		t.Errorf("quantile of one value = %v, want it", got)
	}
}

func TestBestWindowIsTheUndisturbedOne(t *testing.T) {
	// Two quiet windows among five slowed by a neighbour.
	throughput := []float64{210, 250, 190, 232, 251, 205, 220}
	latency := []float64{4.8, 4.0, 5.3, 4.3, 3.98, 4.9, 4.6}
	if got := bestWindow(throughput, true); got != 251 {
		t.Errorf("throughput estimate %v, want the fastest window", got)
	}
	if got := bestWindow(latency, false); got != 3.98 {
		t.Errorf("latency estimate %v, want the fastest window", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	series := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n        int
		pct, val float64
	}{
		{1000, 99, 990}, // exactly ten beyond p99, one beyond p99.9
		{999, 95, 950},  // nine beyond p99
		{20000, 99.9, 19980},
		{45, 75, 34},
		{30, 0, 0}, // no candidate has ten samples beyond it
	} {
		pct, val := tailPercentile(series(c.n))
		if pct != c.pct || val != c.val {
			t.Errorf("n=%d: got p%v = %v, want p%v = %v", c.n, pct, val, c.pct, c.val)
		}
	}
}

func TestInputsAreDeterministicAndNonZero(t *testing.T) {
	w, err := workloadByName("http_mnist_b64")
	if err != nil {
		t.Fatal(err)
	}
	a := generateInputs(7, w, []int{784})
	b := generateInputs(7, w, []int{784})
	c := generateInputs(8, w, []int{784})
	if len(a) != distinctInputs {
		t.Fatalf("%d inputs, want %d", len(a), distinctInputs)
	}
	seen := map[string]bool{}
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("input %d differs between two generations from one seed", i)
		}
		if bytes.Equal(a[i].body, c[i].body) {
			t.Fatalf("input %d is the same for seeds 7 and 8", i)
		}
		if seen[string(a[i].body)] {
			t.Fatalf("input %d repeats an earlier input", i)
		}
		seen[string(a[i].body)] = true
		for _, v := range a[i].tensor.Data() {
			if v <= 0 || v >= 1 {
				t.Fatalf("input %d holds %v, outside (0, 1)", i, v)
			}
		}
		// The hand-written body is what the server's decoder reads back.
		var req server.ClassifyRequest
		if err := json.Unmarshal(a[i].body, &req); err != nil {
			t.Fatal(err)
		}
		if req.Model != w.model || len(req.Samples) != w.samples {
			t.Fatalf("body decodes to model %q with %d samples", req.Model, len(req.Samples))
		}
		flat := a[i].tensor.Data()
		for s, sample := range req.Samples {
			for e, v := range sample {
				if v != flat[s*784+e] {
					t.Fatalf("input %d sample %d element %d: body says %v, tensor %v", i, s, e, v, flat[s*784+e])
				}
			}
		}
	}
}

func TestBenchmarkFileMatchesTheHarness(t *testing.T) {
	b, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is not allowed", n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}

	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.name)
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.name, len(w.why))
		}
		// Never more CPUs than the box has, never more callers than CPUs.
		if w.procs < 1 || w.procs > 2 || w.clients < 1 || w.clients > w.procs {
			t.Errorf("workload %s: %d clients on %d CPUs", w.name, w.clients, w.procs)
		}
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(b.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range endToEnd {
		checkName(m.name)
		f := b.EndToEnd[i]
		if f.Name != m.name || f.Unit != m.unit || f.Better != m.better {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the harness %+v", i, f, m)
		}
		if !unit.MatchString(m.unit) || (m.better != "higher" && m.better != "lower") {
			t.Errorf("end-to-end %s: unit %q, better %q", m.name, m.unit, m.better)
		}
		if f.Bound <= 0 || f.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.name, f.Bound)
		}
		if f.Bound > maxBound {
			maxBound = f.Bound
		}
		if m.name == "setup_s" {
			setupBound = f.Bound
			if m.unit != "s" || m.better != "lower" {
				t.Errorf("setup_s must be in s and better lower")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v must be the largest (%v)", setupBound, maxBound)
	}

	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		checkName(m.name)
		f := b.PerLayer[i]
		if f.Name != m.name || f.Unit != m.unit || f.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the harness %+v", i, f, m)
		}
		if !unit.MatchString(m.unit) || (m.better != "higher" && m.better != "lower") {
			t.Errorf("per-layer %s: unit %q, better %q", m.name, m.unit, m.better)
		}
		if m.layer == "" || m.moves == "" {
			t.Errorf("per-layer %s: needs its layer and what it moves", m.name)
		}
	}
}

// TestWorkloadsSmoke drives every workload for one short window and
// traces a few requests of it; every answer must pass the oracle and
// the trace's ledger must add up.
func TestWorkloadsSmoke(t *testing.T) {
	s, err := buildStack()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.close(); err != nil {
			t.Error(err)
		}
	}()
	for _, w := range workloads {
		spec, err := s.sched.Dispatcher().Spec(w.model)
		if err != nil {
			t.Fatal(err)
		}
		inputs := generateInputs(1, w, spec.InputShape)
		if err := labelInputs(s.sched, w, inputs); err != nil {
			t.Fatal(err)
		}
		// One 200 ms window — or room for a few operations, where they
		// are slower than that (under the race detector).
		window := 200 * time.Millisecond
		t0 := time.Now()
		newOperation(w, s, inputs)(0)
		if d := 4 * time.Since(t0); d > window {
			window = d
		}
		load := runLoad(w, func() operation { return newOperation(w, s, inputs) }, 0, 1, window)
		if load.measured.Sent == 0 || load.measured.Failed != 0 || load.warmup.Failed != 0 {
			t.Errorf("%s: measured %+v, warm-up %+v", w.name, load.measured, load.warmup)
		}
		if len(load.throughput) != 1 || load.throughput[0] <= 0 || load.latencyP50[0] <= 0 || load.cpuPerReq[0] <= 0 || load.allocBytes == 0 {
			t.Errorf("%s: window figures %v %v %v, %d bytes allocated", w.name, load.throughput, load.latencyP50, load.cpuPerReq, load.allocBytes)
		}

		tr, err := traceOnions(w, s, inputs, 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if tr.failed != 0 || len(tr.spans) == 0 {
			t.Errorf("%s: %d traced calls failed, %d spans", w.name, tr.failed, len(tr.spans))
		}
		values := map[string]float64{}
		outermost := tr.layerValues(values)
		sum := values["tensor.kernels_us"]
		for _, layer := range []string{"http", "server", "cluster", "core", "opencl", "nn"} {
			sum += values[layer+".self_us"]
		}
		if outermost <= 0 || math.Abs(sum-outermost) > 1e-6*outermost {
			t.Errorf("%s: self times sum to %v us, the outermost depth took %v us", w.name, sum, outermost)
		}
		want := "http.roundtrip_us"
		if w.burst > 0 {
			want = "cluster.submit_wait_us"
		}
		if values[want] != outermost {
			t.Errorf("%s: outermost depth should be %s", w.name, want)
		}
	}
	st := s.api.Pipeline().Stats()
	if st.Submitted != st.Completed || st.Shed != 0 || st.Failed != 0 || st.Expired != 0 {
		t.Errorf("pipeline books do not balance: %+v", st)
	}
}
