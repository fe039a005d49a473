package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// windowLength is the nominal length of one measurement window; a run
// of S seconds has floor(S / windowLength) windows of equal length.
// Windows are short so that some of them fall between the bursts of
// interference a shared box suffers: on the machine the bounds were
// measured on, the best 100 ms window of a run repeats from run to run
// about twice as closely as the best 1 s window, and five times as
// closely as any statistic of 2.5 s windows.
const windowLength = 100 * time.Millisecond

func windowPlan(measure time.Duration) (count int, length time.Duration) {
	count = int(measure / windowLength)
	if count < 1 {
		count = 1
	}
	return count, measure / time.Duration(count)
}

// edge is the state of the run at a window boundary, snapped to the
// first completion at or after the nominal boundary so that no window
// starts or ends in the middle of the request that crossed it.
type edge struct {
	at  time.Time
	ok  int64
	cpu time.Duration
}

// phaseCounts are the request totals of one phase of a run.
type phaseCounts struct {
	Sent   int64 `json:"requests_sent"`
	OK     int64 `json:"requests_ok"`
	Failed int64 `json:"requests_failed"`
}

// loadResult is everything the closed loop measured.
type loadResult struct {
	warmup, measured phaseCounts
	// One value per window.
	throughput []float64   // correct responses per second
	latencyP50 []float64   // ms, median over the window's operations
	cpuPerReq  []float64   // ms of process CPU per correct response
	latencies  [][]float64 // ms, every operation of every window
	waitUSSum  int64
	allocBytes uint64 // TotalAlloc growth from the first edge to the last
	okInEdges  int64  // correct responses between the first edge and the last
}

// runLoad drives the workload's clients in a closed loop: warm-up,
// then `windows` windows of `length`, with no pause in between. Each
// client sends its next operation as soon as the previous one returned.
func runLoad(w workload, newOp func() operation, warmup time.Duration, windows int, length time.Duration) loadResult {
	perOp := int64(w.requestsPerOp())
	start := time.Now().Add(warmup)
	edges := make([]edge, windows+1)
	var (
		nextEdge   atomic.Int32
		okTotal    atomic.Int64
		sent, good [2]atomic.Int64 // [warm-up, measured]
		waitUS     atomic.Int64
		memFirst   runtime.MemStats
		memLast    runtime.MemStats
	)
	lat := make([][][]float64, w.clients)

	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		lat[c] = make([][]float64, windows)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			do := newOp() // one per client: an operation owns its scratch
			// Clients start on different inputs so two of them never
			// post the same body at the same time.
			for seq := c * distinctInputs / w.clients; ; seq++ {
				t0 := time.Now()
				res := do(seq)
				t1 := time.Now()
				win := int(nextEdge.Load()) - 1 // -1 during warm-up
				if win >= windows {
					return // the run ended while this operation was in flight
				}
				phase := 0
				if win >= 0 {
					phase = 1
					if res.ok == int(perOp) {
						// A failed operation has no latency figure.
						lat[c][win] = append(lat[c][win], float64(t1.Sub(t0))/1e6)
					}
					waitUS.Add(res.waitUS)
				}
				sent[phase].Add(perOp)
				good[phase].Add(int64(res.ok))
				total := okTotal.Add(int64(res.ok))
				for {
					e := nextEdge.Load()
					if int(e) > windows || t1.Before(start.Add(time.Duration(e)*length)) {
						break
					}
					if !nextEdge.CompareAndSwap(e, e+1) {
						continue
					}
					edges[e] = edge{at: t1, ok: total, cpu: processCPU()}
					if e == 0 {
						runtime.ReadMemStats(&memFirst)
					}
					if int(e) == windows {
						runtime.ReadMemStats(&memLast)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()

	r := loadResult{
		warmup:     phaseCounts{Sent: sent[0].Load(), OK: good[0].Load()},
		measured:   phaseCounts{Sent: sent[1].Load(), OK: good[1].Load()},
		waitUSSum:  waitUS.Load(),
		allocBytes: memLast.TotalAlloc - memFirst.TotalAlloc,
		okInEdges:  edges[windows].ok - edges[0].ok,
	}
	r.warmup.Failed = r.warmup.Sent - r.warmup.OK
	r.measured.Failed = r.measured.Sent - r.measured.OK
	for k := 0; k < windows; k++ {
		a, b := edges[k], edges[k+1]
		var all []float64
		for c := range lat {
			all = append(all, lat[c][k]...)
		}
		sort.Float64s(all)
		r.latencies = append(r.latencies, all)
		n, dt := float64(b.ok-a.ok), b.at.Sub(a.at).Seconds()
		if n <= 0 || dt <= 0 || len(all) == 0 {
			continue // nothing correct completed in this window; it yields no figure
		}
		r.throughput = append(r.throughput, n/dt)
		r.cpuPerReq = append(r.cpuPerReq, float64(b.cpu-a.cpu)/1e6/n)
		r.latencyP50 = append(r.latencyP50, quantile(all, 0.5))
	}
	return r
}
