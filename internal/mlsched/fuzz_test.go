package mlsched

import (
	"bytes"
	"testing"
)

// Fuzz targets for the binary model parsers: arbitrary bytes must never
// panic, loop, or produce a model that crashes Predict.

func FuzzReadTree(f *testing.F) {
	// Seed with a valid tree.
	X, y := blobs(60, 4, 70)
	tree := NewTree(DefaultTreeConfig())
	if err := tree.Fit(X, y); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tree.Serialize(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x44, 0x54, 0x4d, 0x42})

	f.Fuzz(func(t *testing.T, data []byte) {
		restored, err := readTree(data)
		if err != nil {
			return
		}
		// A successfully parsed tree must be usable.
		_ = restored.Predict([]float64{1, 2, 3, 4})
	})
}

func FuzzReadForest(f *testing.F) {
	X, y := blobs(60, 4, 71)
	forest := NewForest(ForestConfig{NEstimators: 3, MaxDepth: 4, Seed: 1})
	if err := forest.Fit(X, y); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := forest.Serialize(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		restored, err := ReadForest(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = restored.Predict([]float64{1, 2, 3, 4})
		_ = restored.Rank([]float64{1, 2, 3, 4})
	})
}
