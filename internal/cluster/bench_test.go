package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"bomw/internal/core"
)

// BenchmarkClusterServe measures end-to-end serving throughput through
// the routing tier: closed-loop clients submit to a 4-node least-loaded
// fleet and wait for each completion. Against BenchmarkPipelineServe
// (one node, no router) this isolates what the fleet buys — and what the
// routing hop costs — at the same client counts.
func BenchmarkClusterServe(b *testing.B) {
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			c, _, err := Build(templateScheduler(b), 4, 1, core.PipelineConfig{
				Window:        500 * time.Microsecond,
				MaxBatch:      256,
				ProbeInterval: -1,
			}, Config{Policy: LeastLoaded})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			ctx := context.Background()
			work := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range work {
						comp, err := c.Do(ctx, core.PipelineRequest{Model: "mnist-small", Policy: core.BestThroughput, Batch: 8})
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
