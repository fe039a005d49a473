package tensor

import (
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestNewPoolDefaults(t *testing.T) {
	p := NewPool(0, 0)
	if p.Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers = %d, want GOMAXPROCS", p.Workers())
	}
	if p.GroupSize() != 4096 {
		t.Fatalf("GroupSize = %d, want 4096 (paper CPU config)", p.GroupSize())
	}
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	p := NewPool(7, 3)
	const n = 100
	var hits [n]int32
	p.For(n, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad range [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	Default.For(0, func(lo, hi int) { called = true })
	Default.For(-5, func(lo, hi int) { called = true })
	if called {
		t.Fatal("For should not invoke fn for n <= 0")
	}
}

func TestForSingleGroupRunsInline(t *testing.T) {
	// When the whole range fits in one work-group, For must execute the
	// function exactly once, on the calling goroutine, with the full range.
	// Mutating a local without synchronisation is race-free only if the
	// call is inline; go test -race validates that.
	p := NewPool(8, 1000)
	calls, lastLo, lastHi := 0, -1, -1
	p.For(10, func(lo, hi int) { calls++; lastLo, lastHi = lo, hi })
	if calls != 1 || lastLo != 0 || lastHi != 10 {
		t.Fatalf("single-group For: calls=%d range=[%d,%d), want 1 call covering [0,10)", calls, lastLo, lastHi)
	}
}

func TestSerialPoolInline(t *testing.T) {
	if Serial.Workers() != 1 {
		t.Fatal("Serial should have one worker")
	}
	count := 0
	Serial.For(1000, func(lo, hi int) { count++ })
	if count != 1 {
		t.Fatalf("Serial.For split range into %d calls, want 1", count)
	}
}

// Property: for any n and group size, For covers [0,n) with disjoint
// contiguous ranges.
func TestPropertyForPartition(t *testing.T) {
	f := func(nRaw, gRaw uint8) bool {
		n := int(nRaw)
		g := 1 + int(gRaw)%64
		p := NewPool(5, g)
		seen := make([]int32, n)
		p.For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for _, s := range seen {
			if s != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
