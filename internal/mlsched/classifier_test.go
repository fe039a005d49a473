package mlsched

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// blobs generates a separable 3-class dataset: Gaussian clusters around
// distinct centroids in nf dimensions.
// predictAll applies a classifier to every row.
func predictAll(c Classifier, X [][]float64) []int {
	out := make([]int, len(X))
	for i, x := range X {
		out[i] = c.Predict(x)
	}
	return out
}

func blobs(n, nf int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	centroids := [][]float64{}
	for c := 0; c < 3; c++ {
		row := make([]float64, nf)
		for j := range row {
			row[j] = float64(c*4) + rng.Float64()
		}
		centroids = append(centroids, row)
	}
	X := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 3
		y[i] = c
		row := make([]float64, nf)
		for j := range row {
			row[j] = centroids[c][j] + rng.NormFloat64()*0.5
		}
		X[i] = row
	}
	return X, y
}

// xorish generates a 2-class dataset that is NOT linearly separable
// (XOR pattern), to separate tree-family from linear-family behaviour.
func xorish(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		X[i] = []float64{a, b}
		if (a > 0) != (b > 0) {
			y[i] = 1
		}
	}
	return X, y
}

func accuracyOn(t *testing.T, c Classifier, X [][]float64, y []int) float64 {
	t.Helper()
	if err := c.Fit(X, y); err != nil {
		t.Fatalf("%s: Fit: %v", c.Name(), err)
	}
	m, err := Evaluate(y, predictAll(c, X), 3)
	if err != nil {
		t.Fatal(err)
	}
	return m.Accuracy
}

func TestAllClassifiersLearnSeparableBlobs(t *testing.T) {
	X, y := blobs(300, 5, 1)
	for _, c := range []Classifier{
		NewTree(DefaultTreeConfig()),
		NewForest(DefaultForestConfig()),
		NewKNN(5),
		NewLinearRegression(),
		NewSVM(1),
		NewMLP(1),
	} {
		if acc := accuracyOn(t, c, X, y); acc < 0.9 {
			t.Fatalf("%s: training accuracy %.2f on separable blobs, want ≥0.9", c.Name(), acc)
		}
	}
}

func TestTreeBeatsLinearOnXOR(t *testing.T) {
	X, y := xorish(400, 2)
	tree := NewTree(DefaultTreeConfig())
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	lin := NewLinearRegression()
	if err := lin.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	mt, _ := Evaluate(y, predictAll(tree, X), 2)
	ml, _ := Evaluate(y, predictAll(lin, X), 2)
	if mt.Accuracy < 0.9 {
		t.Fatalf("tree should solve XOR, got %.2f", mt.Accuracy)
	}
	if ml.Accuracy > 0.75 {
		t.Fatalf("linear model should struggle on XOR, got %.2f", ml.Accuracy)
	}
	if mt.Accuracy <= ml.Accuracy {
		t.Fatal("tree-family must beat linear on non-linear boundaries (Table II shape)")
	}
}

func TestFitValidation(t *testing.T) {
	cases := []struct {
		X [][]float64
		y []int
	}{
		{nil, nil},
		{[][]float64{{1}}, []int{0, 1}},
		{[][]float64{{}}, []int{0}},
		{[][]float64{{1, 2}, {1}}, []int{0, 1}},
		{[][]float64{{1}, {2}}, []int{0, -1}},
	}
	for _, c := range []Classifier{
		NewTree(DefaultTreeConfig()), NewForest(DefaultForestConfig()),
		NewKNN(3), NewLinearRegression(), NewSVM(1), NewMLP(1), NewRandom(1),
	} {
		for i, cs := range cases {
			if err := c.Fit(cs.X, cs.y); err == nil {
				t.Fatalf("%s: case %d accepted invalid input", c.Name(), i)
			}
		}
	}
}

func TestPredictBeforeFitIsSafe(t *testing.T) {
	for _, c := range []Classifier{
		NewTree(DefaultTreeConfig()), NewForest(DefaultForestConfig()),
		NewKNN(3), NewLinearRegression(), NewSVM(1), NewMLP(1), NewRandom(1),
	} {
		if got := c.Predict([]float64{1, 2, 3}); got != 0 {
			t.Fatalf("%s: untrained Predict = %d, want 0", c.Name(), got)
		}
	}
}

func TestRandomBaselineNearChance(t *testing.T) {
	X, y := blobs(3000, 3, 2)
	r := NewRandom(3)
	if err := r.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	m, _ := Evaluate(y, predictAll(r, X), 3)
	if m.Accuracy < 0.25 || m.Accuracy > 0.42 {
		t.Fatalf("random baseline accuracy %.2f, want near 1/3 (paper: 41%%)", m.Accuracy)
	}
	if r.Name() != "Baseline (Random Selection)" {
		t.Fatalf("baseline name %q", r.Name())
	}
}

func TestTreeRespectsMaxDepth(t *testing.T) {
	X, y := blobs(300, 5, 4)
	tree := NewTree(TreeConfig{MaxDepth: 2, Criterion: Entropy, MinSamplesLeaf: 1})
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if tree.Depth() > 2 {
		t.Fatalf("tree depth %d exceeds max 2", tree.Depth())
	}
	if tree.Leaves() == 0 {
		t.Fatal("tree has no leaves")
	}
}

func TestTreeMinSamplesLeaf(t *testing.T) {
	X, y := blobs(60, 3, 5)
	big := NewTree(TreeConfig{MaxDepth: 10, MinSamplesLeaf: 25})
	small := NewTree(TreeConfig{MaxDepth: 10, MinSamplesLeaf: 1})
	if err := big.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := small.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if big.Leaves() >= small.Leaves() {
		t.Fatalf("min_samples_leaf should prune: %d vs %d leaves", big.Leaves(), small.Leaves())
	}
}

func TestTreeCriteriaBothWork(t *testing.T) {
	X, y := blobs(200, 4, 6)
	for _, crit := range []Criterion{Gini, Entropy} {
		tree := NewTree(TreeConfig{MaxDepth: 8, Criterion: crit})
		if err := tree.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		m, _ := Evaluate(y, predictAll(tree, X), 3)
		if m.Accuracy < 0.9 {
			t.Fatalf("criterion %s accuracy %.2f", crit, m.Accuracy)
		}
	}
	if Gini.String() != "gini" || Entropy.String() != "entropy" {
		t.Fatal("criterion names must match Table I")
	}
}

func TestTreeDeterministicGivenSeed(t *testing.T) {
	X, y := blobs(200, 6, 7)
	mk := func() *Tree {
		tr := NewTree(TreeConfig{MaxDepth: 6, MaxFeatures: 2, Seed: 42})
		if err := tr.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := mk(), mk()
	for i := 0; i < 50; i++ {
		if a.Predict(X[i]) != b.Predict(X[i]) {
			t.Fatal("same-seed trees disagree")
		}
	}
}

func TestForestDeterministicAndVoting(t *testing.T) {
	X, y := blobs(240, 5, 8)
	cfg := ForestConfig{NEstimators: 15, MaxDepth: 6, Seed: 9}
	a, b := NewForest(cfg), NewForest(cfg)
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if a.Trees() != 15 {
		t.Fatalf("forest has %d trees, want 15", a.Trees())
	}
	for i := range X {
		if a.Predict(X[i]) != b.Predict(X[i]) {
			t.Fatal("same-seed forests disagree")
		}
	}
}

func TestForestGeneralizesBetterThanTreeOnNoisy(t *testing.T) {
	// With label noise, a full-depth tree overfits; the forest's vote
	// should generalise at least as well on held-out data.
	X, y := blobs(600, 6, 10)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < len(y)/10; i++ { // 10% label noise
		y[rng.Intn(len(y))] = rng.Intn(3)
	}
	mTree, err := CrossValidate(func() Classifier { return NewTree(DefaultTreeConfig()) }, X, y, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	mForest, err := CrossValidate(func() Classifier { return NewForest(DefaultForestConfig()) }, X, y, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mForest.Accuracy+0.02 < mTree.Accuracy {
		t.Fatalf("forest CV accuracy %.3f well below tree %.3f", mForest.Accuracy, mTree.Accuracy)
	}
}

func TestKNNMajorityVote(t *testing.T) {
	X := [][]float64{{0, 0}, {0.1, 0}, {0, 0.1}, {5, 5}, {5.1, 5}, {5, 5.1}}
	y := []int{0, 0, 0, 1, 1, 1}
	knn := NewKNN(3)
	if err := knn.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if knn.Predict([]float64{0.05, 0.05}) != 0 {
		t.Fatal("kNN misclassified near cluster 0")
	}
	if knn.Predict([]float64{4.9, 5.2}) != 1 {
		t.Fatal("kNN misclassified near cluster 1")
	}
	if NewKNN(0).K != 5 {
		t.Fatal("kNN default k should be 5")
	}
	// k larger than the dataset degrades to a global vote, not a panic.
	big := NewKNN(100)
	if err := big.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	_ = big.Predict([]float64{0, 0})
}

func TestStandardizerHandlesConstantFeature(t *testing.T) {
	X := [][]float64{{1, 7}, {2, 7}, {3, 7}}
	s := fitStandardizer(X)
	z := s.apply([]float64{2, 7})
	if z[0] != 0 {
		t.Fatalf("standardized mean feature = %g, want 0", z[0])
	}
	if z[1] != 0 {
		t.Fatalf("constant feature should standardize to 0, got %g", z[1])
	}
}

func TestClassifierNamesMatchTableII(t *testing.T) {
	want := map[string]Classifier{
		"Linear Regression":           NewLinearRegression(),
		"SVM":                         NewSVM(1),
		"k-NN":                        NewKNN(5),
		"Feed Forward Neural Network": NewMLP(1),
		"Random Forest":               NewForest(DefaultForestConfig()),
		"Decision Tree":               NewTree(DefaultTreeConfig()),
	}
	for name, c := range want {
		if c.Name() != name {
			t.Fatalf("Name() = %q, want %q", c.Name(), name)
		}
	}
}

func TestFeatureImportanceIdentifiesSignal(t *testing.T) {
	// Two informative features, three pure-noise features: the
	// importances must concentrate on the first two.
	rng := rand.New(rand.NewSource(40))
	n := 400
	X := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		y[i] = c
		X[i] = []float64{
			float64(c)*3 + rng.NormFloat64()*0.3,
			float64(c)*-2 + rng.NormFloat64()*0.3,
			rng.NormFloat64(),
			rng.NormFloat64(),
			rng.NormFloat64(),
		}
	}
	f := NewTunedForest(1)
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	imp := f.FeatureImportance()
	if len(imp) != 5 {
		t.Fatalf("importance length %d", len(imp))
	}
	var sum float64
	for _, v := range imp {
		if v < 0 {
			t.Fatalf("negative importance %g", v)
		}
		sum += v
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("importances sum to %g, want 1", sum)
	}
	if imp[0]+imp[1] < 0.8 {
		t.Fatalf("signal features got only %.2f of the importance: %v", imp[0]+imp[1], imp)
	}
	// Untrained forests report nil.
	if NewTunedForest(1).FeatureImportance() != nil {
		t.Fatal("untrained forest should have nil importance")
	}
}

// Rank orders the classes by descending vote, ties by class index — a
// stable sort of Votes — whether it tallies on the stack (up to eight
// classes) or through Votes (more). An untrained forest ranks class 0.
func TestForestRankIsTheStableVoteOrder(t *testing.T) {
	if got := NewForest(DefaultForestConfig()).Rank([]float64{1}); !slices.Equal(got, []int{0}) {
		t.Fatalf("untrained Rank = %v, want [0]", got)
	}
	rng := rand.New(rand.NewSource(4))
	for _, classes := range []int{3, 10} {
		X := make([][]float64, 40*classes)
		y := make([]int, len(X))
		for i := range X {
			y[i] = i % classes
			X[i] = []float64{float64(y[i]) + rng.NormFloat64(), rng.NormFloat64()}
		}
		f := NewForest(ForestConfig{NEstimators: 15, MaxDepth: 6, Seed: 9})
		if err := f.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		for i, x := range X {
			votes := f.Votes(x)
			want := make([]int, len(votes))
			for c := range want {
				want[c] = c
			}
			sort.SliceStable(want, func(a, b int) bool { return votes[want[a]] > votes[want[b]] })
			if got := f.Rank(x); !slices.Equal(got, want) {
				t.Fatalf("%d classes, row %d: Rank = %v, want %v (votes %v)", classes, i, got, want, votes)
			}
		}
	}
}
