// Package tensor provides the dense float32 math substrate used by the
// bomw inference engines: row-major tensors, parallel matrix multiply,
// 2-D convolution, max pooling and the usual activation functions.
//
// Everything in this package operates on real data with real arithmetic;
// the device layer (internal/device) only decides how long that work is
// *charged* to take on each simulated processor. Parallelism follows the
// paper's OpenCL work-group structure: a worker pool partitions the
// node/sample space exactly as work-items are partitioned into work-groups.
package tensor

import (
	"fmt"
	"strings"
)

// Tensor is a dense, row-major float32 tensor. The zero value is an empty
// scalar-less tensor; use New or FromSlice to construct useful values.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero-filled tensor with the given shape. It panics if any
// dimension is negative.
func New(shape ...int) *Tensor {
	return header(shape, make([]float32, volume(shape)))
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must equal the shape volume.
func FromSlice(data []float32, shape ...int) *Tensor {
	if n := volume(shape); len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (volume %d)", len(data), append([]int(nil), shape...), n))
	}
	return header(shape, data)
}

// volume returns the element count of shape, panicking on a negative
// dimension. The messages here, in FromSlice and in Reshape format a
// copy of shape: handing shape itself to fmt would move every caller's
// variadic arguments to the heap, one allocation per tensor made.
func volume(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

// header builds the Tensor over data with its own copy of shape. Up to
// rank 4 — every tensor the engines make — the copy lives in the same
// allocation as the struct, so a tensor costs its data and one header.
func header(shape []int, data []float32) *Tensor {
	if len(shape) > 4 {
		return &Tensor{shape: append([]int(nil), shape...), data: data}
	}
	h := &struct {
		t    Tensor
		dims [4]int
	}{}
	h.t.shape = h.dims[:copy(h.dims[:], shape)]
	h.t.data = data
	return &h.t
}

// Rebind points t at the first batch samples of data, a buffer laid out
// sample after sample in t's per-sample shape: dimension 0 becomes batch
// and nothing is allocated. It is for an owner that keeps one header
// over a reused buffer (nn's arena) and must not be called on a tensor
// another goroutine can see.
func (t *Tensor) Rebind(data []float32, batch int) {
	n := batch
	for _, d := range t.shape[1:] {
		n *= d
	}
	t.shape[0], t.data = batch, data[:n]
}

// Shape returns the tensor's dimensions. The returned slice must not be
// mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the backing slice in row-major order. Mutating it mutates
// the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	data := make([]float32, len(t.data))
	copy(data, t.data)
	return header(t.shape, data)
}

// Reshape returns a view of t with a new shape of equal volume. The data
// is shared with t.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape volume %d to shape %v", len(t.data), append([]int(nil), shape...)))
	}
	return header(shape, t.data)
}

// Row returns a view of row i of a rank-2 tensor.
func (t *Tensor) Row(i int) []float32 {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: Row on rank-%d tensor", len(t.shape)))
	}
	w := t.shape[1]
	return t.data[i*w : (i+1)*w]
}

// Fill sets every element of t to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Equal reports whether t and u have the same shape and identical elements.
func (t *Tensor) Equal(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != u.shape[i] {
			return false
		}
	}
	for i := range t.data {
		if t.data[i] != u.data[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether t and u have the same shape and element-wise
// absolute differences no greater than eps.
func (t *Tensor) ApproxEqual(u *Tensor, eps float32) bool {
	if len(t.data) != len(u.data) || len(t.shape) != len(u.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != u.shape[i] {
			return false
		}
	}
	for i := range t.data {
		d := t.data[i] - u.data[i]
		if d < 0 {
			d = -d
		}
		if d > eps {
			return false
		}
	}
	return true
}

// String renders a compact description, e.g. "Tensor[2 3]{...}".
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v{", t.shape)
	n := len(t.data)
	if n > 8 {
		for i := 0; i < 8; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%g", t.data[i])
		}
		fmt.Fprintf(&b, ", … %d more", n-8)
	} else {
		for i, v := range t.data {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%g", v)
		}
	}
	b.WriteString("}")
	return b.String()
}

// SizeBytes returns the memory footprint of the tensor payload in bytes.
func (t *Tensor) SizeBytes() int64 { return int64(len(t.data)) * 4 }
