package opencl

import (
	"errors"
	"testing"
	"time"

	"bomw/internal/fault"
	"bomw/internal/models"
)

// faultRuntime builds a runtime with simple loaded and plan armed on it
// as node, the fleet's index-th node.
func faultRuntime(t *testing.T, plan fault.Plan, node string, index int) (*Runtime, *fault.Injector) {
	t.Helper()
	rt, err := NewRuntime(testDevices()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.LoadModel(models.Simple().MustBuild(5)); err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(plan)
	rt.SetFaults(in, node, index)
	return rt, in
}

// failureSequence runs n estimates on a device and records which fail.
func failureSequence(t *testing.T, rt *Runtime, dev string, n int) []bool {
	t.Helper()
	out := make([]bool, n)
	at := time.Duration(0)
	for i := range out {
		res, err := rt.Estimate(dev, "simple", 8, at)
		if err != nil {
			var df *DeviceFault
			if !errors.As(err, &df) {
				t.Fatalf("run %d: non-fault error %v", i, err)
			}
			if df.Device != dev {
				t.Fatalf("fault names device %q, want %q", df.Device, dev)
			}
			out[i] = true
			continue
		}
		at = res.Completed
	}
	return out
}

func errPlan(seed int64, dev string, p float64) fault.Plan {
	return fault.Plan{Seed: seed, Faults: []fault.Fault{{Node: fault.AllNodes, Device: dev, Effect: fault.Err, P: p}}}
}

func TestFaultInjectorDeterministicErrors(t *testing.T) {
	const dev = "GTX 1080 Ti"
	rt1, fi1 := faultRuntime(t, errPlan(42, dev, 0.5), "node0", 0)
	rt2, _ := faultRuntime(t, errPlan(42, dev, 0.5), "node0", 0)

	seq1 := failureSequence(t, rt1, dev, 40)
	seq2 := failureSequence(t, rt2, dev, 40)
	fails := 0
	for i := range seq1 {
		if seq1[i] != seq2[i] {
			t.Fatalf("same seed diverged at run %d: %v vs %v", i, seq1, seq2)
		}
		if seq1[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(seq1) {
		t.Fatalf("error rate 0.5 produced %d/%d failures", fails, len(seq1))
	}
	st := fi1.Counts(0, dev)
	if st.Executions != 40 || st.Errors != int64(fails) {
		t.Fatalf("stats = %+v, want 40 executions / %d errors", st, fails)
	}

	// A different seed must produce a different sequence (overwhelmingly
	// likely over 40 draws at rate 0.5).
	rt3, _ := faultRuntime(t, errPlan(43, dev, 0.5), "node0", 0)
	seq3 := failureSequence(t, rt3, dev, 40)
	same := true
	for i := range seq1 {
		if seq1[i] != seq3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical failure sequences")
	}
}

// TestFaultStreamIsPinned holds the per-(node, device) draw stream to
// (seed + node index) ^ fnv64a(device): the sequences below are what a
// plan of seed 42 drew on the fleet's node3 when each device had its
// own injector seeded 45, and they must not move.
func TestFaultStreamIsPinned(t *testing.T) {
	for dev, want := range map[string]string{
		"GTX 1080 Ti": "xxx..xxxxxxx...xxxxx.xxxxx.x.xx..x.x..xx",
		"i7-8700 CPU": "x..xxx...x.x..xx.xx.x.xx.xxxx.xxxx.x.x..",
	} {
		rt, _ := faultRuntime(t, errPlan(42, dev, 0.5), "node3", 3)
		got := ""
		for _, failed := range failureSequence(t, rt, dev, 40) {
			if failed {
				got += "x"
			} else {
				got += "."
			}
		}
		if got != want {
			t.Errorf("%s drew %s, want %s", dev, got, want)
		}
	}
}

func TestFaultInjectorOutageWindow(t *testing.T) {
	const dev = "i7-8700 CPU"
	rt, fi := faultRuntime(t, fault.Plan{Seed: 1, Faults: []fault.Fault{
		{Node: fault.AllNodes, Device: dev, Start: time.Second, End: 2 * time.Second, Effect: fault.Outage},
	}}, "node0", 0)

	if _, err := rt.Estimate(dev, "simple", 8, 500*time.Millisecond); err != nil {
		t.Fatalf("before outage: %v", err)
	}
	_, err := rt.Estimate(dev, "simple", 8, 1500*time.Millisecond)
	var df *DeviceFault
	if !errors.As(err, &df) || df.Reason != "outage" {
		t.Fatalf("inside outage: err = %v, want outage DeviceFault", err)
	}
	if _, err := rt.Estimate(dev, "simple", 8, 2500*time.Millisecond); err != nil {
		t.Fatalf("after outage: %v", err)
	}
	st := fi.Counts(0, dev)
	if st.Outages != 1 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want exactly 1 outage", st)
	}
}

func TestFaultInjectorLatencySpike(t *testing.T) {
	const dev = "UHD Graphics 630"
	rt, _ := faultRuntime(t, fault.Plan{}, "node0", 0)
	base, err := rt.Estimate(dev, "simple", 64, 0)
	if err != nil {
		t.Fatal(err)
	}

	// A spike at p 1 stretches every execution; compare against the
	// clean baseline from identical device state (fresh runtime).
	rt2, fi2 := faultRuntime(t, fault.Plan{Seed: 1, Faults: []fault.Fault{
		{Node: fault.AllNodes, Device: dev, Effect: fault.Spike, P: 1, Factor: 8},
	}}, "node0", 0)
	spiked, err := rt2.Estimate(dev, "simple", 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if spiked.Latency() < 4*base.Latency() {
		t.Fatalf("spike ×8 produced latency %v vs clean %v", spiked.Latency(), base.Latency())
	}
	if st := fi2.Counts(0, dev); st.Spikes != 1 {
		t.Fatalf("stats = %+v, want 1 spike", st)
	}
}

// TestSlowAndErrCompose: a node that is both slow ×k and faulting at
// rate p stretches every completion it serves by k and fails exactly
// the executions an err-only plan fails — neither effect displaces the
// other.
func TestSlowAndErrCompose(t *testing.T) {
	const (
		dev = "GTX 1080 Ti"
		n   = 200
	)
	errOnly, _ := faultRuntime(t, errPlan(7, "", 0.3), "node2", 2)
	both, in := faultRuntime(t, fault.Plan{Seed: 7, Faults: []fault.Fault{
		{Node: "node2", Effect: fault.Slow, Factor: 4},
		{Node: fault.AllNodes, Effect: fault.Err, P: 0.3},
	}}, "node2", 2)
	fails := 0
	for i := 0; i < n; i++ {
		at := time.Duration(i) * time.Second
		ref, log, errWant := errOnly.Profile(dev, "simple", nil, 8, at)
		got, err := both.Estimate(dev, "simple", 8, at)
		if (err != nil) != (errWant != nil) {
			t.Fatalf("run %d: slow+err failed=%v, err-only failed=%v", i, err != nil, errWant != nil)
		}
		if err != nil {
			fails++
			continue
		}
		span := ref.Completed - log[0].Start
		if want := ref.Completed + 3*span; got.Completed != want {
			t.Fatalf("run %d: completed at %v, want %v (err-only %v stretched ×4)", i, got.Completed, want, ref.Completed)
		}
	}
	if rate := float64(fails) / n; rate < 0.2 || rate > 0.4 {
		t.Fatalf("error rate %.2f over %d runs, want ≈0.3", rate, n)
	}
	if c := in.Counts(2, dev); c.Errors != int64(fails) || c.Spikes != int64(n-fails) {
		t.Fatalf("counts %+v, want %d errors and %d stretched", c, fails, n-fails)
	}
}

func TestFaultInjectorScopedToPlannedDevices(t *testing.T) {
	rt, _ := faultRuntime(t, errPlan(7, "GTX 1080 Ti", 1), "node0", 0)
	// Other devices run clean even with the injector attached.
	for i := 0; i < 5; i++ {
		if _, err := rt.Estimate("i7-8700 CPU", "simple", 8, 0); err != nil {
			t.Fatalf("unplanned device failed: %v", err)
		}
	}
	if _, err := rt.Estimate("GTX 1080 Ti", "simple", 8, 0); err == nil {
		t.Fatal("error rate 1 did not fail")
	}
	// A plan for another node leaves this one clean.
	rt.SetFaults(fault.NewInjector(fault.Plan{Seed: 7, Faults: []fault.Fault{
		{Node: "node1", Device: "GTX 1080 Ti", Effect: fault.Err, P: 1},
	}}), "node0", 0)
	if _, err := rt.Estimate("GTX 1080 Ti", "simple", 8, 0); err != nil {
		t.Fatalf("another node's plan failed this one: %v", err)
	}
	// Disarming the injector disables everything.
	rt.SetFaults(nil, "", 0)
	if _, err := rt.Estimate("GTX 1080 Ti", "simple", 8, 0); err != nil {
		t.Fatalf("detached injector still failing: %v", err)
	}
}
