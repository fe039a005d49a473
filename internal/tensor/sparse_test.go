package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewCSRAndDense(t *testing.T) {
	m := FromSlice([]float32{
		1, 0, 2,
		0, 0, 0,
		0, 3, 0,
	}, 3, 3)
	c := NewCSR(m, 0)
	if c.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", c.NNZ())
	}
	if d := c.Density(); d < 0.32 || d > 0.34 {
		t.Fatalf("density = %g", d)
	}
	if !c.Dense().Equal(m) {
		t.Fatal("CSR round trip lost values")
	}
	if c.SizeBytes() <= 0 {
		t.Fatal("CSR size must be positive")
	}
}

func TestNewCSREpsilonThreshold(t *testing.T) {
	m := FromSlice([]float32{0.001, -0.001, 5, -5}, 2, 2)
	c := NewCSR(m, 0.01)
	if c.NNZ() != 2 {
		t.Fatalf("eps pruning kept %d values, want 2", c.NNZ())
	}
	// Negative eps behaves like zero.
	if NewCSR(m, -1).NNZ() != 4 {
		t.Fatal("negative eps should keep all non-zeros")
	}
}

func TestNewCSRPanicsOnRank(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCSR on rank-1 did not panic")
		}
	}()
	NewCSR(New(4), 0)
}

func TestMatMulCSRMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	w := randTensor(rng, 13, 9)
	// Introduce zeros so CSR actually compresses.
	for i, v := range w.Data() {
		if v < 0 {
			w.Data()[i] = 0
		}
	}
	x := randTensor(rng, 7, 9)
	want := MatMul(Serial, x, Transpose(w))
	for _, pool := range []*Pool{Serial, NewPool(4, 2)} {
		got := New(7, 13)
		got.Fill(-7.5) // MatMulCSRInto owes every element a value, all-zero weight rows included
		MatMulCSRInto(pool, got, x, NewCSR(w, 0))
		if !want.ApproxEqual(got, 1e-4) {
			t.Fatal("sparse matmul differs from dense")
		}
	}
}

func TestMatMulCSRPanics(t *testing.T) {
	w := NewCSR(New(3, 4), 0)
	for i, fn := range []func(){
		func() { MatMulCSRInto(Serial, New(2, 3), New(2, 5), w) }, // inner mismatch
		func() { MatMulCSRInto(Serial, New(2, 3), New(5), w) },    // bad rank
		func() { MatMulCSRInto(Serial, New(2, 4), New(2, 4), w) }, // output not [batch, rows]
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestPruneMagnitude(t *testing.T) {
	m := FromSlice([]float32{0.1, -5, 0.2, 4, -0.05, 3, 2, -0.3}, 2, 4)
	zeroed := PruneMagnitude(m, 0.5)
	if zeroed != 4 {
		t.Fatalf("zeroed %d, want 4", zeroed)
	}
	// The four large-magnitude entries survive.
	for _, want := range []struct{ i, j int }{{0, 1}, {0, 3}, {1, 1}, {1, 2}} {
		if m.At(want.i, want.j) == 0 {
			t.Fatalf("large weight at (%d,%d) was pruned", want.i, want.j)
		}
	}
	if PruneMagnitude(m, 0) != 0 {
		t.Fatal("fraction 0 should prune nothing")
	}
	n := New(2, 2)
	n.Fill(1)
	if got := PruneMagnitude(n, 2); got != 4 {
		t.Fatalf("fraction >1 should clamp and prune all, got %d", got)
	}
}

// Property: pruning fraction p zeroes ≈p of the weights and never zeroes
// more than requested.
func TestPropertyPruneFraction(t *testing.T) {
	f := func(seed int64, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randTensor(rng, 8, 8)
		p := float64(pRaw%90) / 100
		k := int(float64(m.Len()) * p)
		zeroed := PruneMagnitude(m, p)
		return zeroed == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: CSR(M).Dense() == M with zeros dropped at eps=0.
func TestPropertyCSRFaithful(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randTensor(rng, 1+rng.Intn(8), 1+rng.Intn(8))
		PruneMagnitude(m, 0.4)
		return NewCSR(m, 0).Dense().Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
