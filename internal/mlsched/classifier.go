// Package mlsched is the scheduler's machine-learning toolbox: the six
// device-selection models the paper evaluates (random baseline, linear
// regression, SVM, k-nearest-neighbours, feed-forward neural network,
// decision tree and random forest — Table II), implemented from scratch,
// plus the stratified k-fold nested cross-validation, grid search and
// F1/precision/recall metrics of §V-C and Table III.
//
// The paper trains these with scikit-learn; bomw reimplements them on
// stdlib only, with deterministic seeding so experiments reproduce
// exactly.
package mlsched

import (
	"fmt"
	"math"
	"math/rand"
)

// Classifier predicts a class index from a numeric feature vector.
type Classifier interface {
	// Fit trains on rows X with labels y in [0, classes).
	Fit(X [][]float64, y []int) error
	// Predict returns the class for one feature vector.
	Predict(x []float64) int
	// Name identifies the model family, as listed in Table II.
	Name() string
}

// Builder constructs a fresh, untrained classifier; cross-validation uses
// it to train one instance per fold.
type Builder func() Classifier

// validateXY checks the common Fit preconditions and returns the number
// of classes (max label + 1).
func validateXY(X [][]float64, y []int) (classes int, err error) {
	if len(X) == 0 || len(X) != len(y) {
		return 0, fmt.Errorf("mlsched: need matching non-empty X (%d) and y (%d)", len(X), len(y))
	}
	w := len(X[0])
	if w == 0 {
		return 0, fmt.Errorf("mlsched: empty feature vectors")
	}
	for i, row := range X {
		if len(row) != w {
			return 0, fmt.Errorf("mlsched: row %d has %d features, want %d", i, len(row), w)
		}
	}
	for i, label := range y {
		if label < 0 {
			return 0, fmt.Errorf("mlsched: negative label %d at row %d", label, i)
		}
		if label+1 > classes {
			classes = label + 1
		}
	}
	return classes, nil
}

// Random is the paper's baseline: uniformly random device selection
// ("Baseline (Random Selection)", Table II).
type Random struct {
	rng     *rand.Rand
	classes int
}

// NewRandom builds the baseline with a deterministic seed.
func NewRandom(seed int64) *Random { return &Random{rng: rand.New(rand.NewSource(seed))} }

// Fit implements Classifier; the baseline only learns the class count.
func (r *Random) Fit(X [][]float64, y []int) error {
	classes, err := validateXY(X, y)
	if err != nil {
		return err
	}
	r.classes = classes
	return nil
}

// Predict implements Classifier.
func (r *Random) Predict(x []float64) int {
	if r.classes == 0 {
		return 0
	}
	return r.rng.Intn(r.classes)
}

// Name implements Classifier.
func (r *Random) Name() string { return "Baseline (Random Selection)" }

// standardizer holds per-feature mean/stddev for z-scoring, used by the
// distance- and gradient-based models.
type standardizer struct {
	mean, std []float64
}

func fitStandardizer(X [][]float64) *standardizer {
	n := len(X)
	w := len(X[0])
	s := &standardizer{mean: make([]float64, w), std: make([]float64, w)}
	for _, row := range X {
		for j, v := range row {
			s.mean[j] += v
		}
	}
	for j := range s.mean {
		s.mean[j] /= float64(n)
	}
	for _, row := range X {
		for j, v := range row {
			d := v - s.mean[j]
			s.std[j] += d * d
		}
	}
	for j := range s.std {
		s.std[j] /= float64(n)
		if s.std[j] < 1e-12 {
			s.std[j] = 1
		} else {
			s.std[j] = math.Sqrt(s.std[j])
		}
	}
	return s
}

func (s *standardizer) apply(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - s.mean[j]) / s.std[j]
	}
	return out
}

func (s *standardizer) applyAll(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		out[i] = s.apply(row)
	}
	return out
}
