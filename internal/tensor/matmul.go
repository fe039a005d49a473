package tensor

import "fmt"

// MatMul computes C = A·B for rank-2 tensors A (m×k) and B (k×n), writing
// into a freshly allocated m×n tensor. Work is partitioned over the pool
// by output row. In a dense layer those rows are samples, not neurons:
// the paper's thread-per-node kernel is Linear, which also spares the
// transposed weight copy this form needs.
func MatMul(pool *Pool, a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul needs rank-2 operands, got %v × %v", a.Shape(), b.Shape()))
	}
	m, k := a.Dim(0), a.Dim(1)
	k2, n := b.Dim(0), b.Dim(1)
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions differ: %v × %v", a.Shape(), b.Shape()))
	}
	c := New(m, n)
	MatMulInto(pool, c, a, b)
	return c
}

// MatMulInto computes C = A·B into an existing m×n tensor, avoiding
// allocation on hot paths.
func MatMulInto(pool *Pool, c, a, b *Tensor) {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	if c.Dim(0) != m || c.Dim(1) != n {
		panic(fmt.Sprintf("tensor: MatMulInto output shape %v, want [%d %d]", c.Shape(), m, n))
	}
	ad, bd, cd := a.data, b.data, c.data
	pool.For(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			crow := cd[i*n : (i+1)*n]
			for x := range crow {
				crow[x] = 0
			}
			arow := ad[i*k : (i+1)*k]
			// k-outer loop with a row of B streamed per iteration keeps
			// accesses row-major for both operands (the paper's chosen
			// layout for CPU SIMD friendliness).
			for p := 0; p < k; p++ {
				av := arow[p]
				if av == 0 {
					continue
				}
				brow := bd[p*n : (p+1)*n]
				for x, bv := range brow {
					crow[x] += av * bv
				}
			}
		}
	})
}

// AddBiasRows adds bias (length n) to every row of the m×n tensor t,
// in place.
func AddBiasRows(pool *Pool, t, bias *Tensor) {
	if t.Rank() != 2 || bias.Rank() != 1 || bias.Dim(0) != t.Dim(1) {
		panic(fmt.Sprintf("tensor: AddBiasRows shape mismatch %v + %v", t.Shape(), bias.Shape()))
	}
	m, n := t.Dim(0), t.Dim(1)
	td, bd := t.data, bias.data
	pool.For(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := td[i*n : (i+1)*n]
			for x := range row {
				row[x] += bd[x]
			}
		}
	})
}

// Transpose returns the transpose of a rank-2 tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose on rank-%d tensor", a.Rank()))
	}
	m, n := a.Dim(0), a.Dim(1)
	t := New(n, m)
	for i := 0; i < m; i++ {
		row := a.data[i*n : (i+1)*n]
		for j, v := range row {
			t.data[j*m+i] = v
		}
	}
	return t
}
