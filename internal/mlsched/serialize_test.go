package mlsched

import (
	"bufio"
	"bytes"
	"testing"
)

// readTree parses a tree the way ReadForest parses each of its members.
func readTree(b []byte) (*Tree, error) { return readTreeFrom(bufio.NewReader(bytes.NewReader(b))) }

func TestTreeSerializationRoundTrip(t *testing.T) {
	X, y := blobs(200, 5, 30)
	tree := NewTree(DefaultTreeConfig())
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tree.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := readTree(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i := range X {
		if tree.Predict(X[i]) != restored.Predict(X[i]) {
			t.Fatal("restored tree disagrees with original")
		}
	}
	if restored.Depth() != tree.Depth() || restored.Leaves() != tree.Leaves() {
		t.Fatal("tree metadata not preserved")
	}
}

func TestForestSerializationRoundTrip(t *testing.T) {
	X, y := blobs(240, 6, 31)
	f := NewTunedForest(3)
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadForest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Trees() != f.Trees() {
		t.Fatalf("restored %d trees, want %d", restored.Trees(), f.Trees())
	}
	if !restored.AllFeatures {
		t.Fatal("AllFeatures flag not preserved")
	}
	for i := range X {
		if f.Predict(X[i]) != restored.Predict(X[i]) {
			t.Fatal("restored forest disagrees with original")
		}
		a, b := f.Rank(X[i]), restored.Rank(X[i])
		for j := range a {
			if a[j] != b[j] {
				t.Fatal("restored forest ranking differs")
			}
		}
	}
}

func TestSerializeUntrainedRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTree(DefaultTreeConfig()).Serialize(&buf); err == nil {
		t.Fatal("untrained tree serialised")
	}
	if err := NewForest(DefaultForestConfig()).Serialize(&buf); err == nil {
		t.Fatal("untrained forest serialised")
	}
}

func TestDeserializeCorruptStreams(t *testing.T) {
	if _, err := readTree([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated tree accepted")
	}
	if _, err := ReadForest(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})); err == nil {
		t.Fatal("bad forest magic accepted")
	}
	// Valid tree header with garbage body.
	X, y := blobs(50, 3, 32)
	tree := NewTree(DefaultTreeConfig())
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tree.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := readTree(raw[:len(raw)/2]); err == nil {
		t.Fatal("truncated tree body accepted")
	}
	// Flip the magic of a valid forest.
	f := NewForest(ForestConfig{NEstimators: 3, MaxDepth: 4})
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var fb bytes.Buffer
	if err := f.Serialize(&fb); err != nil {
		t.Fatal(err)
	}
	fraw := fb.Bytes()
	fraw[0] ^= 0xff
	if _, err := ReadForest(bytes.NewReader(fraw)); err == nil {
		t.Fatal("corrupted forest magic accepted")
	}
}

func TestSerializationPreservesImportance(t *testing.T) {
	X, y := blobs(200, 5, 33)
	f := NewTunedForest(1)
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadForest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	a, b := f.FeatureImportance(), restored.FeatureImportance()
	if len(a) != len(b) {
		t.Fatalf("importance lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if d := a[i] - b[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("importance[%d] drifted: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestDeserializeRejectsOutOfRangeNodes(t *testing.T) {
	// Regression for the fuzz finding: a split node whose feature index
	// exceeds the declared feature count must be rejected, not crash
	// Predict later.
	X, y := blobs(50, 3, 34)
	tree := NewTree(DefaultTreeConfig())
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tree.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Walk every offset, aggressively corrupting 4-byte windows; no
	// mutation may panic, and successes must produce safe trees.
	for off := 8; off+4 <= len(raw); off += 4 {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0xff
		mut[off+1] ^= 0x30
		restored, err := readTree(mut)
		if err != nil {
			continue
		}
		_ = restored.Predict([]float64{1, 2, 3})
	}
}
