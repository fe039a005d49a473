package core

import (
	"context"
	"sync"
	"testing"
	"time"
)

// BenchmarkPipelineServe measures end-to-end serving throughput through
// the concurrent pipeline at increasing client concurrency. Each client
// issues a request and waits for its completion before issuing the
// next, so scaling beyond one client comes entirely from the live
// batcher folding concurrent arrivals into shared dispatches: 16
// clients of one model should serve several times what one client does.
// The mixed cases spread the clients round-robin over four models, so
// the one batching loop holds up to four aggregates open at once.
func BenchmarkPipelineServe(b *testing.B) {
	s := benchSched(b)
	mixed := []string{"simple", "mnist-small", "mnist-cnn", "mnist-deep"}
	for _, tc := range []struct {
		name    string
		models  []string
		clients int
	}{
		{"clients=1", mixed[1:2], 1},
		{"clients=4", mixed[1:2], 4},
		{"clients=16", mixed[1:2], 16},
		{"mixed/clients=4", mixed, 4},
		{"mixed/clients=16", mixed, 16},
	} {
		b.Run(tc.name, func(b *testing.B) {
			p := NewPipeline(s, PipelineConfig{Window: 500 * time.Microsecond, MaxBatch: 256})
			defer p.Close()
			ctx := context.Background()
			work := make(chan struct{})
			var wg sync.WaitGroup
			for c := 0; c < tc.clients; c++ {
				req := PipelineRequest{Model: tc.models[c%len(tc.models)], Policy: BestThroughput, Batch: 8}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range work {
						comp, err := p.Do(ctx, req)
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
