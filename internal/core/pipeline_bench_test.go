package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// BenchmarkPipelineServe measures end-to-end serving throughput through
// the concurrent pipeline at increasing client concurrency. Each client
// issues a request and waits for its completion before issuing the
// next, so scaling beyond one client comes entirely from the live
// batcher folding concurrent arrivals into shared dispatches — the
// effect the ISSUE acceptance criterion checks (16-client throughput
// ≥ 3× single-client).
func BenchmarkPipelineServe(b *testing.B) {
	s := benchSched(b)
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			p := NewPipeline(s, PipelineConfig{Window: 500 * time.Microsecond, MaxBatch: 256})
			defer p.Close()
			ctx := context.Background()
			work := make(chan struct{})
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range work {
						comp, err := p.Do(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 8})
						if err != nil {
							b.Error(err)
							return
						}
						if comp.Err != nil {
							b.Error(comp.Err)
							return
						}
					}
				}()
			}
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				work <- struct{}{}
			}
			close(work)
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "req/s")
		})
	}
}
