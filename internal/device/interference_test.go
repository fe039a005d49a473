package device

import "testing"

func TestSlowdownAffectsKernelPath(t *testing.T) {
	w := testWorkload()
	w.FlopsPerSample = 10_000_000
	clean := New(NvidiaGTX1080Ti())
	clean.Warm(0)
	contended := New(NvidiaGTX1080Ti())
	contended.Warm(0)
	contended.SetSlowdown(2)
	rc := clean.ExecuteCompute(0, w, 4096)
	rs := contended.ExecuteCompute(0, w, 4096)
	if float64(rs.Latency) < 1.8*float64(rc.Latency) {
		t.Fatalf("kernel path ignored slowdown: %v vs %v", rs.Latency, rc.Latency)
	}
	// Transfers are unaffected by compute contention.
	tc := clean.Transfer(0, 1<<20)
	ts := contended.Transfer(0, 1<<20)
	if tc.Latency != ts.Latency {
		t.Fatal("transfer time should not depend on compute slowdown")
	}
}

func TestSlowdownValidationAndReset(t *testing.T) {
	d := New(IntelCoreI7_8700())
	if d.Slowdown() != 1 {
		t.Fatalf("default slowdown = %g, want 1", d.Slowdown())
	}
	d.SetSlowdown(2.5)
	if d.Slowdown() != 2.5 {
		t.Fatalf("Slowdown = %g", d.Slowdown())
	}
	d.Reset()
	if d.Slowdown() != 1 {
		t.Fatal("Reset should clear interference")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetSlowdown(<1) did not panic")
		}
	}()
	d.SetSlowdown(0.5)
}
