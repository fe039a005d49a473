package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveMatMul is a reference implementation used to validate the
// parallel kernel.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum float32
			for p := 0; p < k; p++ {
				sum += a.At(i, p) * b.At(p, j)
			}
			c.Set(sum, i, j)
		}
	}
	return c
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(Serial, a, b)
	want := FromSlice([]float32{58, 64, 139, 154}, 2, 2)
	if !c.Equal(want) {
		t.Fatalf("MatMul = %v, want %v", c, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randTensor(rng, 7, 7)
	id := New(7, 7)
	for i := 0; i < 7; i++ {
		id.Set(1, i, i)
	}
	if !MatMul(Default, a, id).ApproxEqual(a, 1e-6) {
		t.Fatal("A·I != A")
	}
	if !MatMul(Default, id, a).ApproxEqual(a, 1e-6) {
		t.Fatal("I·A != A")
	}
}

func TestMatMulMatchesNaiveParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pool := NewPool(4, 3) // small groups to force multi-goroutine execution
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 2}, {17, 9, 23}, {64, 32, 16}} {
		a := randTensor(rng, dims[0], dims[1])
		b := randTensor(rng, dims[1], dims[2])
		got := MatMul(pool, a, b)
		want := naiveMatMul(a, b)
		if !got.ApproxEqual(want, 1e-4) {
			t.Fatalf("MatMul %v mismatch vs naive", dims)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	a, b := New(2, 3), New(4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with mismatched inner dims did not panic")
		}
	}()
	MatMul(Serial, a, b)
}

func TestMatMulRankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with rank-1 operand did not panic")
		}
	}()
	MatMul(Serial, New(3), New(3, 2))
}

func TestMatMulIntoWrongShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMulInto with wrong output shape did not panic")
		}
	}()
	MatMulInto(Serial, New(2, 2), New(2, 3), New(3, 3))
}

func TestMatMulIntoOverwrites(t *testing.T) {
	a := FromSlice([]float32{1, 0, 0, 1}, 2, 2)
	b := FromSlice([]float32{5, 6, 7, 8}, 2, 2)
	c := New(2, 2)
	c.Fill(99) // stale values must be cleared
	MatMulInto(Serial, c, a, b)
	if !c.Equal(b) {
		t.Fatalf("MatMulInto = %v, want %v", c, b)
	}
}

func TestAddBiasRows(t *testing.T) {
	m := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	bias := FromSlice([]float32{10, 20}, 2)
	AddBiasRows(Serial, m, bias)
	want := FromSlice([]float32{11, 22, 13, 24}, 2, 2)
	if !m.Equal(want) {
		t.Fatalf("AddBiasRows = %v, want %v", m, want)
	}
}

func TestAddBiasRowsShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddBiasRows shape mismatch did not panic")
		}
	}()
	AddBiasRows(Serial, New(2, 2), New(3))
}

func TestTranspose(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose(a)
	if at.Dim(0) != 3 || at.Dim(1) != 2 {
		t.Fatalf("Transpose shape %v", at.Shape())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("Transpose[%d,%d] mismatch", j, i)
			}
		}
	}
	if !Transpose(at).Equal(a) {
		t.Fatal("double transpose != original")
	}
}

func TestTransposeRankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Transpose on rank-3 did not panic")
		}
	}()
	Transpose(New(2, 2, 2))
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ for random small matrices.
func TestPropertyTransposeOfProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		left := Transpose(MatMul(Serial, a, b))
		right := MatMul(Serial, Transpose(b), Transpose(a))
		return left.ApproxEqual(right, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over scalar doubling of A (2A)·B == 2(A·B).
func TestPropertyScalarLinearity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randTensor(r, m, k)
		b := randTensor(r, k, n)
		c1 := MatMul(Serial, a, b)
		a2 := a.Clone()
		for i, v := range a2.Data() {
			a2.Data()[i] = 2 * v
		}
		c2 := MatMul(Serial, a2, b)
		for i, v := range c1.Data() {
			d := c2.Data()[i] - 2*v
			if d < -1e-3 || d > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
