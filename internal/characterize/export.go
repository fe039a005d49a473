package characterize

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSV export of the labelled training corpus, so the dataset the
// scheduler trains on can be inspected, versioned and reused by external
// tooling — the reproducible artefact behind Tables I-III.

// WriteCSV emits one row per sample: model, batch, gpu_warm, all feature
// columns, and one label column per policy (device class index).
func (s *LabeledSet) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"model", "batch", "gpu_warm"}
	header = append(header, s.FeatureNames...)
	for _, o := range Objectives() {
		header = append(header, "label_"+o.String())
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("characterize: writing CSV header: %w", err)
	}
	for i := range s.X {
		row := []string{
			s.Models[i],
			strconv.Itoa(s.Batches[i]),
			strconv.FormatBool(s.GPUWarm[i]),
		}
		for _, v := range s.X[i] {
			row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
		}
		for _, o := range Objectives() {
			row = append(row, strconv.Itoa(s.Y[o][i]))
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("characterize: writing CSV row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
