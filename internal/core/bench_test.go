package core

import (
	"testing"

	"bomw/internal/models"
)

func benchSched(b *testing.B) *Scheduler {
	b.Helper()
	schedOnce.Do(func() {
		sched, schedErr = New(Config{TrainModels: models.AllModels()})
		if schedErr != nil {
			return
		}
		for _, spec := range models.PaperModels() {
			if schedErr = sched.LoadModel(spec, 1); schedErr != nil {
				return
			}
		}
	})
	if schedErr != nil {
		b.Fatal(schedErr)
	}
	sched.ResetDevices()
	return sched
}

// BenchmarkSelect measures the scheduler's per-request decision cost —
// the "Classification Time" column of Table II, end to end (probe +
// feature assembly + forest vote).
func BenchmarkSelect(b *testing.B) {
	s := benchSched(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Select("mnist-small", 4096, BestThroughput, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimate is one timing-only request end to end: the decision
// BenchmarkSelect measures plus the runtime's charge of the batch on the
// chosen device.
func BenchmarkEstimate(b *testing.B) {
	s := benchSched(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Estimate("mnist-small", 4096, LowestLatency, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewScheduler is the paper's offline phase as bomwsrv runs it
// before its first request: characterise the 21 training architectures
// and fit one forest per policy.
func BenchmarkNewScheduler(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(Config{TrainModels: models.AllModels()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadPaperModels is the Fig. 2 cycle for the five paper models
// on a trained scheduler — a fresh replica of a template that has loaded
// nothing, so every iteration builds all 53 MB of weights.
func BenchmarkLoadPaperModels(b *testing.B) {
	tmpl, err := New(Config{TrainModels: models.PaperModels(), Batches: []int{8, 512}, Reps: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := tmpl.Replica(1)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, spec := range models.PaperModels() {
			if err := s.LoadModel(spec, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkNodeHealth is the per-member row of a fleet snapshot
// (Cluster.Stats, GET /v1/nodes) and Cluster.Readmit's check; routing
// reads Ready instead (BenchmarkNodeReady).
func BenchmarkNodeHealth(b *testing.B) {
	n := NewNode("node0", benchSched(b), PipelineConfig{ProbeInterval: -1})
	defer n.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h := n.Health(); !h.Ready {
			b.Fatalf("health = %+v", h)
		}
	}
}

// BenchmarkNodeReady is the router's readiness read: it runs for every
// member on every Cluster.Submit, so it must take no lock and allocate
// nothing.
func BenchmarkNodeReady(b *testing.B) {
	n := NewNode("node0", benchSched(b), PipelineConfig{ProbeInterval: -1})
	defer n.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !n.Ready() {
			b.Fatal("node not ready")
		}
	}
}
