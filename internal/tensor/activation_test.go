package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestActivationStringRoundTrip(t *testing.T) {
	for _, a := range []Activation{Identity, ReLU, Tanh, Sigmoid, Softmax} {
		got, err := ParseActivation(a.String())
		if err != nil {
			t.Fatalf("ParseActivation(%q): %v", a.String(), err)
		}
		if got != a {
			t.Fatalf("round trip %v -> %v", a, got)
		}
	}
	if _, err := ParseActivation("swish"); err == nil {
		t.Fatal("ParseActivation accepted unknown name")
	}
	if a, err := ParseActivation(""); err != nil || a != Identity {
		t.Fatal("empty activation should parse as identity")
	}
	if a, err := ParseActivation("linear"); err != nil || a != Identity {
		t.Fatal("linear should alias identity")
	}
}

func TestReLU(t *testing.T) {
	v := FromSlice([]float32{-2, -0.5, 0, 0.5, 2}, 5)
	ReLU.Apply(Serial, v)
	want := FromSlice([]float32{0, 0, 0, 0.5, 2}, 5)
	if !v.Equal(want) {
		t.Fatalf("ReLU = %v, want %v", v, want)
	}
}

func TestIdentityNoop(t *testing.T) {
	v := FromSlice([]float32{-1, 2}, 2)
	before := v.Clone()
	Identity.Apply(Serial, v)
	if !v.Equal(before) {
		t.Fatal("Identity modified values")
	}
}

func TestTanhSigmoidValues(t *testing.T) {
	v := FromSlice([]float32{0, 1}, 2)
	Tanh.Apply(Serial, v)
	if v.At(0) != 0 || math.Abs(float64(v.At(1))-math.Tanh(1)) > 1e-6 {
		t.Fatalf("Tanh = %v", v)
	}
	w := FromSlice([]float32{0, -1000, 1000}, 3)
	Sigmoid.Apply(Serial, w)
	if w.At(0) != 0.5 || w.At(1) > 1e-6 || w.At(2) < 1-1e-6 {
		t.Fatalf("Sigmoid = %v", w)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := randTensor(rng, 5, 7)
	Softmax.Apply(Serial, m)
	for i := 0; i < 5; i++ {
		var sum float64
		for _, v := range m.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax value %g out of [0,1]", v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-4 {
			t.Fatalf("softmax row %d sums to %g", i, sum)
		}
	}
}

func TestSoftmaxNumericallyStable(t *testing.T) {
	m := FromSlice([]float32{1000, 1000, 999}, 1, 3)
	Softmax.Apply(Serial, m)
	for _, v := range m.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax overflowed: %v", m)
		}
	}
}

func TestSoftmaxRankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("softmax on rank-1 did not panic")
		}
	}()
	Softmax.Apply(Serial, New(3))
}

func TestActivationsParallelMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, a := range []Activation{ReLU, Tanh, Sigmoid} {
		v := randTensor(rng, 1000)
		w := v.Clone()
		a.Apply(Serial, v)
		a.Apply(NewPool(8, 64), w)
		if !v.ApproxEqual(w, 1e-6) {
			t.Fatalf("%v parallel/serial mismatch", a)
		}
	}
}

func TestFlopsPerElementMonotone(t *testing.T) {
	if Identity.FlopsPerElement() != 0 {
		t.Fatal("identity should be free")
	}
	if ReLU.FlopsPerElement() <= 0 || Tanh.FlopsPerElement() <= ReLU.FlopsPerElement() {
		t.Fatal("transcendentals should cost more than relu")
	}
}

func TestArgmax(t *testing.T) {
	m := FromSlice([]float32{0.1, 0.9, 0.0, 0.5, 0.2, 0.3}, 2, 3)
	got := Argmax(m)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("Argmax = %v, want [1 0]", got)
	}
}

func TestArgmaxRankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Argmax on rank-1 did not panic")
		}
	}()
	Argmax(New(3))
}

// softmaxThenArgmax is how labels were read before SoftmaxArgmax:
// normalise a copy of the rows, then Argmax.
func softmaxThenArgmax(t *Tensor) []int {
	c := t.Clone()
	Softmax.Apply(Serial, c)
	return Argmax(c)
}

func checkSoftmaxArgmax(t *testing.T, logits *Tensor) {
	t.Helper()
	want := softmaxThenArgmax(logits)
	got := SoftmaxArgmax(logits.Clone())
	for i := range want {
		if got[i] != want[i] {
			n := logits.Dim(1)
			t.Fatalf("row %v: SoftmaxArgmax says %d, softmax then Argmax %d", logits.data[i*n:(i+1)*n], got[i], want[i])
		}
	}
}

func TestSoftmaxArgmaxMatchesSoftmaxThenArgmax(t *testing.T) {
	// The middle logit is one ulp above its neighbours, so the logits'
	// maximum, but its probability rounds to the first one's, and Argmax
	// keeps the first of equals.
	pinned := FromSlice([]float32{0.1676693, 0.16766933, 0.1676693}, 1, 3)
	if got := Argmax(pinned); got[0] != 1 {
		t.Fatalf("Argmax of the pinned logits = %d, want 1", got[0])
	}
	if got := softmaxThenArgmax(pinned); got[0] != 0 {
		t.Fatalf("softmax then Argmax of the pinned logits = %d, want 0", got[0])
	}
	checkSoftmaxArgmax(t, pinned)

	// Near-ties: every logit of a row 0–4 ulps from one base, which runs
	// over the binades, so the guard's 2⁻²² falls anywhere from a fraction
	// of an ulp to many. One logit in eight is special instead.
	specials := []float32{0, negZero, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 0x1p-140,
		math.MaxFloat32, -math.MaxFloat32, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	rng := rand.New(rand.NewSource(22))
	var base float32
	for round := 0; round < 60; round++ {
		logits := New(1<<12, 1+round%10)
		for i := range logits.data {
			if i%logits.Dim(1) == 0 {
				base = float32(rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-30))
			}
			if rng.Intn(8) == 0 {
				logits.data[i] = specials[rng.Intn(len(specials))]
				continue
			}
			v, toward := base, float32(math.Inf(1-2*rng.Intn(2)))
			for step := rng.Intn(5); step > 0; step-- {
				v = math.Nextafter32(v, toward)
			}
			logits.data[i] = v
		}
		checkSoftmaxArgmax(t, logits)
	}
}

// Property: softmax preserves the argmax of each row.
func TestPropertySoftmaxPreservesArgmax(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randTensor(r, 3, 5)
		before := Argmax(m)
		Softmax.Apply(Serial, m)
		after := Argmax(m)
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: ReLU is idempotent.
func TestPropertyReLUIdempotent(t *testing.T) {
	f := func(raw []float32) bool {
		if len(raw) == 0 {
			return true
		}
		v := FromSlice(append([]float32(nil), raw...), len(raw))
		ReLU.Apply(Serial, v)
		once := v.Clone()
		ReLU.Apply(Serial, v)
		return v.Equal(once)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// relu is the one-value form of elementwise's ReLU, for accumulators
// still in registers: the two must agree on every bit pattern that
// matters, -0 and NaN included.
func TestReluMatchesElementwise(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	for _, v := range []float32{0, negZero, 1.5, -1.5, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32} {
		d := []float32{v}
		ReLU.elementwise(d)
		if math.Float32bits(relu(v)) != math.Float32bits(d[0]) {
			t.Errorf("relu(%v) = %v, elementwise gives %v", v, relu(v), d[0])
		}
	}
}

// A tensor the pool would hand to one worker anyway is activated on the
// caller without a closure: Linear's softmax rows and every small Apply
// allocate nothing.
func TestApplyOfOneGroupAllocatesNothing(t *testing.T) {
	pool := NewPool(2, 256)
	x := New(16, 10)
	for _, act := range []Activation{ReLU, Tanh, Sigmoid, Softmax} {
		if allocs := testing.AllocsPerRun(10, func() { act.Apply(pool, x) }); allocs != 0 {
			t.Errorf("%s.Apply of %v on pool(2,256) allocates %v times", act, x.Shape(), allocs)
		}
	}
	// Split or not, the rows come out the same.
	rng := rand.New(rand.NewSource(5))
	in := randTensor(rng, 600, 7)
	want, got := in.Clone(), in.Clone()
	Softmax.Apply(Serial, want)
	Softmax.Apply(pool, got)
	if !sameBits(got, want) {
		t.Error("softmax over 600 rows on pool(2,256) differs from Serial")
	}
}
