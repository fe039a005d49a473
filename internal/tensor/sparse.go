package tensor

import "fmt"

// CSRMatrix is a compressed-sparse-row matrix for pruned dense layers:
// the sparsification line of work the paper cites ([14]-[16], lottery
// tickets) reduces inference work by dropping small weights; CSR makes
// the remaining work proportional to the surviving non-zeros.
type CSRMatrix struct {
	Rows, Cols int
	RowPtr     []int32
	ColIdx     []int32
	Values     []float32
}

// NewCSR compresses a rank-2 tensor, keeping entries with |v| > eps.
func NewCSR(t *Tensor, eps float32) *CSRMatrix {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: NewCSR needs a rank-2 tensor, got %v", t.Shape()))
	}
	if eps < 0 {
		eps = 0
	}
	m, n := t.Dim(0), t.Dim(1)
	c := &CSRMatrix{Rows: m, Cols: n, RowPtr: make([]int32, m+1)}
	for i := 0; i < m; i++ {
		row := t.Row(i)
		for j, v := range row {
			if v > eps || v < -eps {
				c.ColIdx = append(c.ColIdx, int32(j))
				c.Values = append(c.Values, v)
			}
		}
		c.RowPtr[i+1] = int32(len(c.Values))
	}
	return c
}

// NNZ returns the number of stored non-zeros.
func (c *CSRMatrix) NNZ() int { return len(c.Values) }

// Density returns NNZ / (rows×cols).
func (c *CSRMatrix) Density() float64 {
	return float64(c.NNZ()) / float64(c.Rows*c.Cols)
}

// SizeBytes returns the CSR payload footprint.
func (c *CSRMatrix) SizeBytes() int64 {
	return int64(len(c.RowPtr))*4 + int64(len(c.ColIdx))*4 + int64(len(c.Values))*4
}

// Dense materialises the full matrix.
func (c *CSRMatrix) Dense() *Tensor {
	t := New(c.Rows, c.Cols)
	for i := 0; i < c.Rows; i++ {
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			t.Set(c.Values[p], i, int(c.ColIdx[p]))
		}
	}
	return t
}

// MatMulCSRInto computes C = A·Bᵀ where B is sparse: A is [batch, cols]
// and out is [batch, rows] — the pruned dense-layer forward pass
// (out = x·Wᵀ with W in CSR). The caller owns out; every element of it
// is overwritten. Work is parallel over batch rows.
func MatMulCSRInto(pool *Pool, out, a *Tensor, b *CSRMatrix) {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulCSRInto needs rank-2 input, got %v", a.Shape()))
	}
	if a.Dim(1) != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulCSRInto inner dimensions differ: %d vs %d", a.Dim(1), b.Cols))
	}
	batch := a.Dim(0)
	if out.Rank() != 2 || out.Dim(0) != batch || out.Dim(1) != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulCSRInto output shape %v, want [%d %d]", out.Shape(), batch, b.Rows))
	}
	ad, od := a.Data(), out.Data()
	cols := b.Cols
	pool.For(batch, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			x := ad[s*cols : (s+1)*cols]
			dst := od[s*b.Rows : (s+1)*b.Rows]
			for i := 0; i < b.Rows; i++ {
				var sum float32
				for p := b.RowPtr[i]; p < b.RowPtr[i+1]; p++ {
					sum += b.Values[p] * x[b.ColIdx[p]]
				}
				dst[i] = sum
			}
		}
	})
}

// PruneMagnitude zeroes the fraction of smallest-magnitude entries of a
// rank-2 tensor in place and returns the count of zeroed weights —
// magnitude pruning, the baseline sparsification of the lottery-ticket
// literature.
func PruneMagnitude(t *Tensor, fraction float64) int {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: PruneMagnitude needs a rank-2 tensor, got %v", t.Shape()))
	}
	if fraction <= 0 {
		return 0
	}
	if fraction > 1 {
		fraction = 1
	}
	n := t.Len()
	k := int(float64(n) * fraction)
	if k == 0 {
		return 0
	}
	// Find the magnitude threshold via a copied, partially sorted slice.
	mags := make([]float32, n)
	for i, v := range t.Data() {
		if v < 0 {
			v = -v
		}
		mags[i] = v
	}
	threshold := quickselect(mags, k-1)
	zeroed := 0
	for i, v := range t.Data() {
		av := v
		if av < 0 {
			av = -av
		}
		if av <= threshold && zeroed < k {
			t.Data()[i] = 0
			zeroed++
		}
	}
	return zeroed
}

// quickselect returns the k-th smallest element (0-indexed), mutating s.
func quickselect(s []float32, k int) float32 {
	lo, hi := 0, len(s)-1
	for lo < hi {
		p := partition(s, lo, hi)
		switch {
		case p == k:
			return s[p]
		case p < k:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
	return s[k]
}

func partition(s []float32, lo, hi int) int {
	// Median-of-three pivot to dodge adversarial orderings.
	mid := (lo + hi) / 2
	if s[mid] < s[lo] {
		s[mid], s[lo] = s[lo], s[mid]
	}
	if s[hi] < s[lo] {
		s[hi], s[lo] = s[lo], s[hi]
	}
	if s[hi] < s[mid] {
		s[hi], s[mid] = s[mid], s[hi]
	}
	pivot := s[mid]
	s[mid], s[hi-1] = s[hi-1], s[mid]
	i := lo
	for j := lo; j < hi-1; j++ {
		if s[j] < pivot {
			s[i], s[j] = s[j], s[i]
			i++
		}
	}
	s[i], s[hi-1] = s[hi-1], s[i]
	return i
}
