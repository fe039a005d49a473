package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// perRun reports the objects and bytes one call of f allocates, over n
// calls.
func perRun(n int, f func()) (objects, bytes float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestServedClassifyAllocations is the HTTP counterpart of cluster's
// TestServedBurstAllocations: what one /v1/classify request of 1, 8 and
// 64 mnist-small samples allocates on the server side, from the body
// read to the written reply, less what building the request and the
// recorder costs. The samples are decoded into a recycled buffer, so
// the budget holds no per-request copy of them.
func TestServedClassifyAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	s := testServer(t).Config.Handler
	// On one P, as testing.AllocsPerRun counts: what a warm-up puts in
	// one P's pools, a request on another P would not find.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		rows       int
		maxKB      float64
		maxObjects float64
	}{
		{1, 4, 22},
		{8, 4, 22},
		{64, 16, 34},
	} {
		body := benchBody(tc.rows)
		build := func() (*http.Request, *httptest.ResponseRecorder) {
			return httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body)), httptest.NewRecorder()
		}
		serve := func() {
			r, w := build()
			s.ServeHTTP(w, r)
			if w.Code != http.StatusOK {
				t.Fatalf("%d rows: status %d: %s", tc.rows, w.Code, w.Body)
			}
		}
		for i := 0; i < 8; i++ {
			serve() // warm the pools and the decision cache
		}
		const n = 50
		objs, b := perRun(n, serve)
		baseObjs, baseB := perRun(n, func() { build() })
		objs, kb := objs-baseObjs, (b-baseB)/1024
		t.Logf("%d rows: %.1f objects, %.1f KB per request", tc.rows, objs, kb)
		if kb > tc.maxKB || objs > tc.maxObjects {
			t.Errorf("%d rows: %.1f objects and %.1f KB per request, want ≤ %.0f and ≤ %.0f KB",
				tc.rows, objs, kb, tc.maxObjects, tc.maxKB)
		}
	}
}

// TestDeclaredBodyLengthSizesNoMoreThanAPooledBuffer: Content-Length
// pre-sizes the body buffer only as far as bodyPool keeps one. A client
// that declares nearly maxClassifyBody and sends twelve bytes costs at
// most a pooled buffer, not the 32 MiB it declared — held for as long
// as it cares to stall, on every connection it opens.
func TestDeclaredBodyLengthSizesNoMoreThanAPooledBuffer(t *testing.T) {
	s := testServer(t).Config.Handler
	const body = `{"model":""}`
	r := httptest.NewRequest(http.MethodPost, "/v1/classify", strings.NewReader(body))
	r.ContentLength = maxClassifyBody - 1
	w := httptest.NewRecorder()
	_, b := perRun(1, func() { s.ServeHTTP(w, r) })
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	t.Logf("a %d-byte body declaring %d bytes allocated %.0f KB", len(body), r.ContentLength, b/1024)
	if b > 2<<20 {
		t.Errorf("a %d-byte body declaring %d bytes allocated %.0f KB, want ≤ 2 MiB", len(body), r.ContentLength, b/1024)
	}
}
