package characterize

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"

	"bomw/internal/models"
	"bomw/internal/nn"
)

func smallSet(t *testing.T) *LabeledSet {
	t.Helper()
	sw := NewSweeper()
	sw.Noise = 0.12
	set, err := sw.BuildDataset([]*nn.Spec{models.Simple(), models.MnistCNN()}, []int{8, 512, 8192}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestCSVRoundTrip checks that the export is lossless: every row parses
// back to the sample's model, batch, warm flag, exact features and
// labels.
func TestCSVRoundTrip(t *testing.T) {
	set := smallSet(t)
	var buf bytes.Buffer
	if err := set.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != set.Len()+1 {
		t.Fatalf("%d rows, want a header and %d samples", len(rows), set.Len())
	}
	nf := len(set.FeatureNames)
	if len(rows[0]) != 3+nf+len(Objectives()) {
		t.Fatalf("header has %d columns", len(rows[0]))
	}
	for i, row := range rows[1:] {
		if row[0] != set.Models[i] || row[1] != strconv.Itoa(set.Batches[i]) ||
			row[2] != strconv.FormatBool(set.GPUWarm[i]) {
			t.Fatalf("row %d metadata mismatch: %v", i, row[:3])
		}
		for j, want := range set.X[i] {
			if got, err := strconv.ParseFloat(row[3+j], 64); err != nil || got != want {
				t.Fatalf("row %d feature %d: %q != %g", i, j, row[3+j], want)
			}
		}
		for oi, o := range Objectives() {
			if row[3+nf+oi] != strconv.Itoa(set.Y[o][i]) {
				t.Fatalf("row %d label %s mismatch", i, o)
			}
		}
	}
}

func TestCSVHeaderShape(t *testing.T) {
	set := smallSet(t)
	var buf bytes.Buffer
	if err := set.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(buf.String(), "\n", 2)[0]
	for _, want := range []string{"model", "batch", "gpu_warm", "log2_batch", "label_best-throughput", "label_energy-efficiency"} {
		if !strings.Contains(header, want) {
			t.Fatalf("CSV header %q missing %q", header, want)
		}
	}
}
