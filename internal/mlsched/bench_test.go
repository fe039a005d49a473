package mlsched

import (
	"testing"

	"bomw/internal/characterize"
	"bomw/internal/models"
)

// BenchmarkForestFit fits the scheduler's forest on the scheduler's own
// training set — the ≈ 1500 rows §V-B arrives at, nine features that
// all repeat (21 architectures × 18 batch sizes × 2 GPU states × 2
// replicas) — once per policy, as core.New does.
func BenchmarkForestFit(b *testing.B) {
	sweeper := &characterize.Sweeper{Profiles: characterize.NewSweeper().Profiles, Noise: 0.12, Seed: 1}
	set, err := sweeper.BuildDataset(models.AllModels(), characterize.PaperBatches(), 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pol := range characterize.Objectives() {
			if err := NewTunedForest(1).Fit(set.X, set.Y[pol]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkForestPredict(b *testing.B) {
	X, y := blobs(1500, 9, 1)
	f := NewTunedForest(1)
	if err := f.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Predict(X[i%len(X)])
	}
}

func BenchmarkTreeFit(b *testing.B) {
	X, y := blobs(1500, 9, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := NewTree(DefaultTreeConfig())
		if err := t.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKNNPredict(b *testing.B) {
	X, y := blobs(1500, 9, 1)
	k := NewKNN(5)
	if err := k.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Predict(X[i%len(X)])
	}
}

func BenchmarkStratifiedKFold(b *testing.B) {
	_, y := blobs(1500, 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := StratifiedKFold(y, 5, 1); err != nil {
			b.Fatal(err)
		}
	}
}
