package mlsched

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// ForestConfig holds the random-forest hyperparameters of Table I.
type ForestConfig struct {
	NEstimators    int
	MaxDepth       int
	Criterion      Criterion
	MinSamplesLeaf int
	Seed           int64
}

// DefaultForestConfig mirrors the paper's tuned forest (§V-C).
func DefaultForestConfig() ForestConfig {
	return ForestConfig{NEstimators: 50, MaxDepth: 10, Criterion: Gini, MinSamplesLeaf: 1, Seed: 1}
}

// Forest is a bagged ensemble of CART trees with √features subsampling
// per split — the paper's chosen scheduler model (92.5-93.2% accuracy).
type Forest struct {
	// AllFeatures disables per-split feature subsampling (bagging-only
	// randomness), which helps on low-dimensional feature spaces like
	// the scheduler's nine features.
	AllFeatures bool

	cfg     ForestConfig
	trees   []*Tree
	classes int
}

// NewTunedForest returns the scheduler's production configuration — the
// settings the paper's nested grid search converges on: 100 estimators,
// depth 10, gini, one sample per leaf, with bagging-only randomness.
func NewTunedForest(seed int64) *Forest {
	f := NewForest(ForestConfig{NEstimators: 100, MaxDepth: 10, Criterion: Gini, MinSamplesLeaf: 1, Seed: seed})
	f.AllFeatures = true
	return f
}

// NewForest builds an untrained forest.
func NewForest(cfg ForestConfig) *Forest {
	if cfg.NEstimators <= 0 {
		cfg.NEstimators = 50
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 10
	}
	if cfg.MinSamplesLeaf <= 0 {
		cfg.MinSamplesLeaf = 1
	}
	return &Forest{cfg: cfg}
}

// Name implements Classifier.
func (f *Forest) Name() string { return "Random Forest" }

// Trees returns the number of trained trees.
func (f *Forest) Trees() int { return len(f.trees) }

// Fit implements Classifier: each tree trains on a bootstrap resample of
// the data with feature subsampling at every split. The data is sorted
// once for every tree, and GOMAXPROCS workers grow the trees, mirroring
// the paper's parallelised fold training (§V-C). Tree t's resample and
// subsampling draws come from seeds that depend on t alone, so which
// worker grows it changes nothing.
func (f *Forest) Fit(X [][]float64, y []int) error {
	classes, err := validateXY(X, y)
	if err != nil {
		return err
	}
	f.classes = classes
	n := len(X)
	maxFeat := int(math.Ceil(math.Sqrt(float64(len(X[0])))))
	if f.AllFeatures {
		maxFeat = 0
	}

	set := newTrainingSet(X, y)
	f.trees = make([]*Tree, f.cfg.NEstimators)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(f.trees)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mult := make([]int32, n) // mult[j]: how often the resample drew row j
			for t := int(next.Add(1) - 1); t < len(f.trees); t = int(next.Add(1) - 1) {
				clear(mult)
				rng := rand.New(rand.NewSource(f.cfg.Seed + int64(t)*7919))
				treeClasses := 0
				for range n {
					j := rng.Intn(n)
					mult[j]++
					treeClasses = max(treeClasses, y[j]+1)
				}
				tree := NewTree(TreeConfig{
					MaxDepth:       f.cfg.MaxDepth,
					Criterion:      f.cfg.Criterion,
					MinSamplesLeaf: f.cfg.MinSamplesLeaf,
					MaxFeatures:    maxFeat,
					Seed:           f.cfg.Seed + int64(t)*104729,
				})
				tree.fit(set, mult, treeClasses)
				f.trees[t] = tree
			}
		}()
	}
	wg.Wait()
	return nil
}

// Predict implements Classifier by majority vote.
func (f *Forest) Predict(x []float64) int {
	votes := f.Votes(x)
	best := 0
	for c, v := range votes {
		if v > votes[best] {
			best = c
		}
	}
	return best
}

// FeatureImportance averages the normalised impurity-decrease importance
// over all trees (nil before training).
func (f *Forest) FeatureImportance() []float64 {
	if len(f.trees) == 0 {
		return nil
	}
	var out []float64
	for _, t := range f.trees {
		imp := t.FeatureImportance()
		if out == nil {
			out = make([]float64, len(imp))
		}
		for i, v := range imp {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(f.trees))
	}
	return out
}

// Votes returns per-class tree votes (all zero before training).
func (f *Forest) Votes(x []float64) []int {
	votes := make([]int, max(f.classes, 1))
	f.tally(x, votes)
	return votes
}

// tally adds every tree's vote for x into votes, one slot per class
// (one slot before training, when there are no trees).
func (f *Forest) tally(x []float64, votes []int) {
	for _, t := range f.trees {
		votes[t.Predict(x)]++
	}
}

// Rank implements Ranker: classes ordered by descending vote count
// (ties broken by class index). A forest of up to eight classes tallies
// its votes on the stack, so the order is Rank's only allocation.
func (f *Forest) Rank(x []float64) []int {
	var buf [8]int
	var votes []int
	if n := max(f.classes, 1); n <= len(buf) {
		votes = buf[:n]
	} else {
		votes = make([]int, n)
	}
	f.tally(x, votes)
	order := make([]int, len(votes))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ { // stable insertion by votes desc
		for j := i; j > 0 && votes[order[j]] > votes[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order
}

// Ranker is implemented by classifiers that can order all classes by
// preference, enabling the scheduler's overload spill-over.
type Ranker interface {
	Rank(x []float64) []int
}
