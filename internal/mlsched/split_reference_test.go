package mlsched

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The split search this package had before the presorted one: every node
// copies its samples' values of every feature and sorts them. It stays
// here as the reference the grower is held to, bit for bit.

func referenceFit(cfg TreeConfig, X [][]float64, y []int) (*Tree, error) {
	t := NewTree(cfg)
	classes, err := validateXY(X, y)
	if err != nil {
		return nil, err
	}
	t.classes = classes
	t.importance = make([]float64, len(X[0]))
	t.nSamples = len(X)
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.referenceGrow(X, y, idx, 0, newSplitRNG(t.cfg.Seed))
	return t, nil
}

func (t *Tree) referenceGrow(X [][]float64, y []int, idx []int, depth int, rng *splitRNG) *treeNode {
	counts := make([]int, t.classes)
	for _, i := range idx {
		counts[y[i]]++
	}
	major, pure := majority(counts, len(idx))
	if depth > t.depth {
		t.depth = depth
	}
	if pure || depth >= t.cfg.MaxDepth || len(idx) < 2*t.cfg.MinSamplesLeaf {
		t.leaves++
		return &treeNode{leaf: true, class: major}
	}

	feat, thr, gain, ok := t.referenceBestSplit(X, y, idx, counts, rng)
	if !ok {
		t.leaves++
		return &treeNode{leaf: true, class: major}
	}
	t.importance[feat] += gain * float64(len(idx)) / float64(t.nSamples)
	var li, ri []int
	for _, i := range idx {
		if X[i][feat] <= thr {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) < t.cfg.MinSamplesLeaf || len(ri) < t.cfg.MinSamplesLeaf {
		t.leaves++
		return &treeNode{leaf: true, class: major}
	}
	return &treeNode{
		feature:   feat,
		threshold: thr,
		left:      t.referenceGrow(X, y, li, depth+1, rng),
		right:     t.referenceGrow(X, y, ri, depth+1, rng),
	}
}

func (t *Tree) referenceBestSplit(X [][]float64, y []int, idx []int, parentCounts []int, rng *splitRNG) (feature int, threshold, bestGainOut float64, ok bool) {
	nFeatures := len(X[0])
	features := make([]int, nFeatures)
	for i := range features {
		features[i] = i
	}
	if t.cfg.MaxFeatures > 0 && t.cfg.MaxFeatures < nFeatures {
		for i := 0; i < t.cfg.MaxFeatures; i++ {
			j := i + rng.intn(nFeatures-i)
			features[i], features[j] = features[j], features[i]
		}
		features = features[:t.cfg.MaxFeatures]
	}

	total := len(idx)
	parentImp := t.impurity(parentCounts, total)
	bestGain := 1e-12
	type fv struct {
		v float64
		y int
	}
	vals := make([]fv, total)
	leftCounts := make([]int, t.classes)
	rightCounts := make([]int, t.classes)

	for _, f := range features {
		for k, i := range idx {
			vals[k] = fv{v: X[i][f], y: y[i]}
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
		for c := range leftCounts {
			leftCounts[c] = 0
			rightCounts[c] = parentCounts[c]
		}
		for k := 0; k < total-1; k++ {
			leftCounts[vals[k].y]++
			rightCounts[vals[k].y]--
			if vals[k].v == vals[k+1].v {
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
				threshold = (vals[k].v + vals[k+1].v) / 2
				ok = true
			}
		}
	}
	return feature, threshold, bestGain, ok
}

// tiedDataset draws a dataset in which almost every value repeats: 2–6
// classes, 1–12 features, each feature from a grid of 2–8 values.
func tiedDataset(rng *rand.Rand) ([][]float64, []int) {
	n := 2 + rng.Intn(200)
	classes := 2 + rng.Intn(5)
	nFeatures := 1 + rng.Intn(12)
	grids := make([][]float64, nFeatures)
	for f := range grids {
		grids[f] = make([]float64, 2+rng.Intn(7))
		for k := range grids[f] {
			grids[f][k] = rng.NormFloat64() * 10
		}
	}
	X := make([][]float64, n)
	y := make([]int, n)
	for i := range X {
		X[i] = make([]float64, nFeatures)
		for f := range X[i] {
			X[i][f] = grids[f][rng.Intn(len(grids[f]))]
		}
		y[i] = rng.Intn(classes)
	}
	return X, y
}

func tiedConfig(rng *rand.Rand, nFeatures int) TreeConfig {
	cfg := TreeConfig{
		MaxDepth:       1 + rng.Intn(12),
		Criterion:      Criterion(rng.Intn(2)),
		MinSamplesLeaf: 1 + rng.Intn(5),
		Seed:           rng.Int63(),
	}
	if rng.Intn(2) == 0 {
		cfg.MaxFeatures = 1 + rng.Intn(nFeatures) // == nFeatures: no subsampling, by the rule
	}
	return cfg
}

// The root split of the presorted search against the reference's, as
// (feature, threshold, gain, ok) compared by bit pattern.
func TestBestSplitMatchesTheSortPerNodeReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 400; trial++ {
		X, y := tiedDataset(rng)
		cfg := tiedConfig(rng, len(X[0]))
		classes, err := validateXY(X, y)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, classes)
		idx := make([]int, len(X))
		for i := range idx {
			idx[i] = i
			counts[y[i]]++
		}

		ref := NewTree(cfg)
		ref.classes = classes
		rf, rthr, rgain, rok := ref.referenceBestSplit(X, y, idx, counts, newSplitRNG(cfg.Seed))

		tree := NewTree(cfg)
		tree.classes = classes
		once := make([]int32, len(X))
		for i := range once {
			once[i] = 1
		}
		f, thr, gain, ok := newGrower(tree, newTrainingSet(X, y), once, len(X)).bestSplit(0, len(X), counts)

		if f != rf || ok != rok || math.Float64bits(thr) != math.Float64bits(rthr) || math.Float64bits(gain) != math.Float64bits(rgain) {
			t.Fatalf("trial %d (%d×%d, %+v): split (%d, %v, %v, %v), reference (%d, %v, %v, %v)",
				trial, len(X), len(X[0]), cfg, f, thr, gain, ok, rf, rthr, rgain, rok)
		}
	}
}

// Whole trees: the segments a node hands its children must be the
// reference's index lists as sets, the subsampling draws must come in the
// reference's order, and the importances must add up in it too — all of
// which the serialised form shows.
func TestFitMatchesTheSortPerNodeReferenceToTheByte(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		X, y := tiedDataset(rng)
		if trial%4 == 0 { // and without ties
			X, y = blobs(30+rng.Intn(300), 1+rng.Intn(9), rng.Int63())
		}
		cfg := tiedConfig(rng, len(X[0]))
		ref, err := referenceFit(cfg, X, y)
		if err != nil {
			t.Fatal(err)
		}
		tree := NewTree(cfg)
		if err := tree.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		var got, want bytes.Buffer
		if err := tree.Serialize(&got); err != nil {
			t.Fatal(err)
		}
		if err := ref.Serialize(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("trial %d (%d×%d, %+v): tree %v differs from the reference's %v", trial, len(X), len(X[0]), cfg, tree, ref)
		}
	}
}

// referenceForestFit is the forest fit before the training set was
// sorted once per forest: each tree materialises its bootstrap resample
// as rows and fits it with Tree.Fit, which sorts the resample itself.
func referenceForestFit(f *Forest, X [][]float64, y []int) error {
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
	f.trees = make([]*Tree, f.cfg.NEstimators)
	for t := range f.trees {
		rng := rand.New(rand.NewSource(f.cfg.Seed + int64(t)*7919))
		bx, by := make([][]float64, n), make([]int, n)
		for i := range bx {
			j := rng.Intn(n)
			bx[i], by[i] = X[j], y[j]
		}
		tree := NewTree(TreeConfig{
			MaxDepth:       f.cfg.MaxDepth,
			Criterion:      f.cfg.Criterion,
			MinSamplesLeaf: f.cfg.MinSamplesLeaf,
			MaxFeatures:    maxFeat,
			Seed:           f.cfg.Seed + int64(t)*104729,
		})
		if err := tree.Fit(bx, by); err != nil {
			return err
		}
		f.trees[t] = tree
	}
	return nil
}

// Forest.Fit grows every tree from the one sorted training set and the
// tree's row multiplicities; the reference materialises each resample.
// Tie-heavy sets, both subsampling settings, and a set whose highest
// class sits on one row, so that some bootstraps miss it and their trees
// have fewer classes than the forest.
func TestForestFitMatchesTreesFitOnTheMaterialisedResample(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	missed := 0
	for trial := 0; trial < 60; trial++ {
		X, y := tiedDataset(rng)
		if trial%3 == 0 { // the highest class on one row only
			top := 0
			for _, c := range y {
				top = max(top, c)
			}
			y[rng.Intn(len(y))] = top + 1
		}
		cfg := ForestConfig{
			NEstimators:    1 + rng.Intn(12),
			MaxDepth:       1 + rng.Intn(12),
			Criterion:      Criterion(rng.Intn(2)),
			MinSamplesLeaf: 1 + rng.Intn(5),
			Seed:           rng.Int63(),
		}
		for _, all := range []bool{false, true} {
			got, want := NewForest(cfg), NewForest(cfg)
			got.AllFeatures, want.AllFeatures = all, all
			if err := got.Fit(X, y); err != nil {
				t.Fatal(err)
			}
			if err := referenceForestFit(want, X, y); err != nil {
				t.Fatal(err)
			}
			var gb, wb bytes.Buffer
			if err := got.Serialize(&gb); err != nil {
				t.Fatal(err)
			}
			if err := want.Serialize(&wb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
				t.Fatalf("trial %d (%d×%d, %+v, AllFeatures %v): forest differs from the materialised resamples'", trial, len(X), len(X[0]), cfg, all)
			}
			for _, tree := range got.trees {
				if tree.classes < got.classes {
					missed++
				}
			}
		}
	}
	if missed == 0 {
		t.Fatal("no bootstrap missed the highest class: the case is not exercised")
	}
}

// A bootstrap resample, which is what a forest hands each tree: the same
// row many times over.
func TestFitMatchesTheReferenceOnABootstrapResample(t *testing.T) {
	X, y := blobs(600, 9, 5)
	rng := rand.New(rand.NewSource(6))
	bx, by := make([][]float64, len(X)), make([]int, len(X))
	for i := range bx {
		j := rng.Intn(len(X))
		bx[i], by[i] = X[j], y[j]
	}
	cfg := TreeConfig{MaxDepth: 10, Criterion: Gini, MinSamplesLeaf: 1, MaxFeatures: 3, Seed: 7}
	ref, err := referenceFit(cfg, bx, by)
	if err != nil {
		t.Fatal(err)
	}
	tree := NewTree(cfg)
	if err := tree.Fit(bx, by); err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := tree.Serialize(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.Serialize(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("tree %v differs from the reference's %v", tree, ref)
	}
}
