package mlsched

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Criterion selects the split-quality function of Table I.
type Criterion int

const (
	// Gini impurity.
	Gini Criterion = iota
	// Entropy (information gain).
	Entropy
)

// String returns the scikit-learn-style name.
func (c Criterion) String() string {
	if c == Entropy {
		return "entropy"
	}
	return "gini"
}

// TreeConfig holds the decision-tree hyperparameters the paper tunes
// (Table I): maximum depth, split criterion and minimum samples per leaf.
type TreeConfig struct {
	MaxDepth       int
	Criterion      Criterion
	MinSamplesLeaf int
	// MaxFeatures restricts each split to a random feature subset of
	// this size; 0 means all features (plain CART). Random forests set
	// it to √features.
	MaxFeatures int
	Seed        int64
}

// DefaultTreeConfig mirrors the best single-tree settings found by the
// paper's grid search.
func DefaultTreeConfig() TreeConfig {
	return TreeConfig{MaxDepth: 10, Criterion: Gini, MinSamplesLeaf: 1}
}

type treeNode struct {
	// Leaf payload.
	leaf  bool
	class int
	// Split payload.
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
}

// Tree is a CART decision-tree classifier.
type Tree struct {
	cfg        TreeConfig
	root       *treeNode
	classes    int
	depth      int
	leaves     int
	importance []float64 // accumulated impurity decrease per feature
	nSamples   int
}

// NewTree builds an untrained tree with the given configuration.
func NewTree(cfg TreeConfig) *Tree {
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 10
	}
	if cfg.MinSamplesLeaf <= 0 {
		cfg.MinSamplesLeaf = 1
	}
	return &Tree{cfg: cfg}
}

// Name implements Classifier.
func (t *Tree) Name() string { return "Decision Tree" }

// Depth returns the trained tree's depth (root = 0).
func (t *Tree) Depth() int { return t.depth }

// Leaves returns the trained tree's leaf count.
func (t *Tree) Leaves() int { return t.leaves }

// Fit implements Classifier.
func (t *Tree) Fit(X [][]float64, y []int) error {
	classes, err := validateXY(X, y)
	if err != nil {
		return err
	}
	once := make([]int32, len(X))
	for i := range once {
		once[i] = 1
	}
	t.fit(newTrainingSet(X, y), once, classes)
	return nil
}

// fit grows the tree over the resample of set in which row j appears
// mult[j] times; classes is the resample's largest label + 1.
func (t *Tree) fit(set *trainingSet, mult []int32, classes int) {
	n := 0
	for _, m := range mult {
		n += int(m)
	}
	t.classes = classes
	t.importance = make([]float64, len(set.cols))
	t.nSamples = n
	t.root = newGrower(t, set, mult, n).grow(0, n, 0)
}

// FeatureImportance returns the normalised mean-decrease-in-impurity per
// feature (summing to 1 when any split occurred). The paper identifies
// the batch size and the GPU state as the dominant scheduling features
// (§V-B); this is the quantitative counterpart.
func (t *Tree) FeatureImportance() []float64 {
	out := append([]float64(nil), t.importance...)
	var sum float64
	for _, v := range out {
		sum += v
	}
	if sum > 0 {
		for i := range out {
			out[i] /= sum
		}
	}
	return out
}

// splitRNG is a tiny deterministic PRNG (xorshift) used for feature
// subsampling so trees stay allocation-light inside forests.
type splitRNG struct{ s uint64 }

func newSplitRNG(seed int64) *splitRNG {
	u := uint64(seed)*2654435761 + 0x9E3779B97F4A7C15
	return &splitRNG{s: u}
}

func (r *splitRNG) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *splitRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// A trainingSet is X and y the way the split search reads them: feature
// columns, and per feature the rows in ascending order of that feature.
// It is sorted once, in newTrainingSet, however many trees grow from it,
// and only read after that.
type trainingSet struct {
	y     []int
	cols  [][]float64 // cols[f][j] is feature f of row j
	order [][]int32   // order[f] lists the rows in ascending cols[f]
}

func newTrainingSet(X [][]float64, y []int) *trainingSet {
	n, nFeatures := len(X), len(X[0])
	s := &trainingSet{y: y, cols: make([][]float64, nFeatures), order: make([][]int32, nFeatures)}
	cols := make([]float64, nFeatures*n)
	order := make([]int32, nFeatures*n)
	for f := range s.cols {
		col, ord := cols[f*n:(f+1)*n], order[f*n:(f+1)*n]
		for j, row := range X {
			col[j] = row[f]
			ord[j] = int32(j)
		}
		slices.SortFunc(ord, func(a, b int32) int { return cmp.Compare(col[a], col[b]) })
		s.cols[f], s.order[f] = col, ord
	}
	return s
}

// A grower holds one tree's resample of a trainingSet the way the split
// search reads it: per feature, the resample's rows in ascending order of
// that feature, a row drawn k times listed k times. newGrower derives
// them from the set's orders in one pass per feature, without sorting. A
// node owns the same segment [lo, hi) of every order, and applying a
// split partitions each segment stably, so a child's segments are sorted
// without sorting again. The copies of a row have equal values, so a
// split sends them all to one side.
//
// The order among equal values is whatever the set's one sort left, and
// no result depends on it: a threshold is a candidate only between two
// adjacent values that differ, every sample with the smaller value is
// then on its left, and a gain is computed from the integer class counts
// of the two sides. The search therefore picks what a fresh sort per
// node and feature picks, to the bit.
type grower struct {
	t     *Tree
	y     []int       // the set's
	cols  [][]float64 // the set's
	order [][]int32   // order[f] lists the resample's rows in ascending cols[f], node by node
	rng   *splitRNG

	// Scratch, reused by every node: a node is done with it before its
	// children run.
	goesLeft    []bool // per row, under the split being applied
	moved       []int32
	features    []int
	leftCounts  []int
	rightCounts []int
}

// newGrower prepares t's search over the resample of set in which row j
// appears mult[j] times, n rows in all.
func newGrower(t *Tree, set *trainingSet, mult []int32, n int) *grower {
	nFeatures := len(set.cols)
	g := &grower{
		t:           t,
		y:           set.y,
		cols:        set.cols,
		order:       make([][]int32, nFeatures),
		rng:         newSplitRNG(t.cfg.Seed),
		goesLeft:    make([]bool, len(mult)),
		moved:       make([]int32, n),
		features:    make([]int, nFeatures),
		leftCounts:  make([]int, t.classes),
		rightCounts: make([]int, t.classes),
	}
	order := make([]int32, nFeatures*n)
	for f, rows := range set.order {
		ord := order[f*n : f*n : (f+1)*n]
		for _, j := range rows {
			for k := mult[j]; k > 0; k-- {
				ord = append(ord, j)
			}
		}
		g.order[f] = ord
	}
	return g
}

// grow builds the subtree over the samples in [lo, hi) of every order.
func (g *grower) grow(lo, hi, depth int) *treeNode {
	t, total := g.t, hi-lo
	counts := make([]int, t.classes)
	for _, i := range g.order[0][lo:hi] {
		counts[g.y[i]]++
	}
	major, pure := majority(counts, total)
	if depth > t.depth {
		t.depth = depth
	}
	if pure || depth >= t.cfg.MaxDepth || total < 2*t.cfg.MinSamplesLeaf {
		t.leaves++
		return &treeNode{leaf: true, class: major}
	}

	feat, thr, gain, ok := g.bestSplit(lo, hi, counts)
	if !ok {
		t.leaves++
		return &treeNode{leaf: true, class: major}
	}
	t.importance[feat] += gain * float64(total) / float64(t.nSamples)
	// The threshold is a midpoint and may round onto the larger value, so
	// the sides are counted from the comparison Predict will make, not
	// taken from the position the search stood at.
	nl := 0
	col := g.cols[feat]
	for _, i := range g.order[0][lo:hi] {
		left := col[i] <= thr
		g.goesLeft[i] = left
		if left {
			nl++
		}
	}
	if nl < t.cfg.MinSamplesLeaf || total-nl < t.cfg.MinSamplesLeaf {
		t.leaves++
		return &treeNode{leaf: true, class: major}
	}
	for _, ord := range g.order {
		seg := ord[lo:hi]
		l, r := 0, 0
		for _, i := range seg {
			if g.goesLeft[i] {
				seg[l] = i
				l++
			} else {
				g.moved[r] = i
				r++
			}
		}
		copy(seg[l:], g.moved[:r])
	}
	return &treeNode{
		feature:   feat,
		threshold: thr,
		left:      g.grow(lo, lo+nl, depth+1),
		right:     g.grow(lo+nl, hi, depth+1),
	}
}

func majority(counts []int, total int) (class int, pure bool) {
	best := 0
	for c, n := range counts {
		if n > counts[best] {
			best = c
		}
	}
	return best, counts[best] == total
}

func (t *Tree) impurity(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	switch t.cfg.Criterion {
	case Entropy:
		h := 0.0
		for _, n := range counts {
			if n == 0 {
				continue
			}
			p := float64(n) / float64(total)
			h -= p * math.Log2(p)
		}
		return h
	default: // Gini
		g := 1.0
		for _, n := range counts {
			p := float64(n) / float64(total)
			g -= p * p
		}
		return g
	}
}

// bestSplit scans candidate (feature, threshold) pairs of the node over
// [lo, hi) for the split with the lowest weighted child impurity:
// features in index order (or the drawn subset's), thresholds in
// ascending order, a later candidate winning only on a strictly larger
// gain.
func (g *grower) bestSplit(lo, hi int, parentCounts []int) (feature int, threshold, bestGainOut float64, ok bool) {
	t := g.t
	features := g.features
	for i := range features {
		features[i] = i
	}
	if nFeatures := len(features); t.cfg.MaxFeatures > 0 && t.cfg.MaxFeatures < nFeatures {
		// Fisher-Yates prefix for the random subset.
		for i := 0; i < t.cfg.MaxFeatures; i++ {
			j := i + g.rng.intn(nFeatures-i)
			features[i], features[j] = features[j], features[i]
		}
		features = features[:t.cfg.MaxFeatures]
	}

	total := hi - lo
	parentImp := t.impurity(parentCounts, total)
	bestGain := 1e-12
	leftCounts, rightCounts := g.leftCounts, g.rightCounts

	for _, f := range features {
		col, ord := g.cols[f], g.order[f][lo:hi]
		for c := range leftCounts {
			leftCounts[c] = 0
			rightCounts[c] = parentCounts[c]
		}
		v := col[ord[0]]
		for k := 0; k < total-1; k++ {
			c := g.y[ord[k]]
			leftCounts[c]++
			rightCounts[c]--
			cur, next := v, col[ord[k+1]]
			v = next
			if cur == next {
				continue
			}
			nl, nr := k+1, total-k-1
			if nl < t.cfg.MinSamplesLeaf || nr < t.cfg.MinSamplesLeaf {
				continue
			}
			gain := parentImp -
				(float64(nl)*t.impurity(leftCounts, nl)+
					float64(nr)*t.impurity(rightCounts, nr))/float64(total)
			if gain > bestGain {
				bestGain = gain
				feature = f
				threshold = (cur + next) / 2
				ok = true
			}
		}
	}
	return feature, threshold, bestGain, ok
}

// Predict implements Classifier.
func (t *Tree) Predict(x []float64) int {
	if t.root == nil {
		return 0
	}
	n := t.root
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.class
}

// String summarises the trained tree.
func (t *Tree) String() string {
	return fmt.Sprintf("Tree(depth=%d leaves=%d criterion=%s)", t.depth, t.leaves, t.cfg.Criterion)
}
