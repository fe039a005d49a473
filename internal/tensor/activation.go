package tensor

import (
	"fmt"
	"math"
)

// Activation identifies a non-linear function applied element-wise after a
// layer, matching the paper's relu/tanh/sigmoid trio plus the identity and
// softmax used on output layers.
type Activation int

const (
	// Identity passes values through unchanged.
	Identity Activation = iota
	// ReLU is max(0, x).
	ReLU
	// Tanh is the hyperbolic tangent.
	Tanh
	// Sigmoid is the logistic function 1/(1+e^-x).
	Sigmoid
	// Softmax normalises each row into a probability distribution. It is
	// only valid on rank-2 tensors (rows = samples).
	Softmax
)

// String returns the lowercase activation name as used in model descriptors.
func (a Activation) String() string {
	switch a {
	case Identity:
		return "identity"
	case ReLU:
		return "relu"
	case Tanh:
		return "tanh"
	case Sigmoid:
		return "sigmoid"
	case Softmax:
		return "softmax"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

// ParseActivation converts a descriptor name into an Activation.
func ParseActivation(s string) (Activation, error) {
	switch s {
	case "identity", "linear", "":
		return Identity, nil
	case "relu":
		return ReLU, nil
	case "tanh":
		return Tanh, nil
	case "sigmoid":
		return Sigmoid, nil
	case "softmax":
		return Softmax, nil
	default:
		return Identity, fmt.Errorf("tensor: unknown activation %q", s)
	}
}

// Apply applies the activation to t in place, parallelised over the pool.
// A tensor the pool would not split is handled on the caller without
// building the closure For takes, so that call allocates nothing.
func (a Activation) Apply(pool *Pool, t *Tensor) {
	switch a {
	case Identity:
	case ReLU, Tanh, Sigmoid:
		d := t.data
		if pool.whole(len(d)) {
			a.elementwise(d)
			return
		}
		pool.For(len(d), func(lo, hi int) { a.elementwise(d[lo:hi]) })
	case Softmax:
		if t.Rank() != 2 {
			panic(fmt.Sprintf("tensor: softmax needs a rank-2 tensor, got %v", t.Shape()))
		}
		m, n := t.Dim(0), t.Dim(1)
		d := t.data
		if pool.whole(m) {
			softmaxRows(d, n, 0, m)
			return
		}
		pool.For(m, func(lo, hi int) { softmaxRows(d, n, lo, hi) })
	default:
		panic(fmt.Sprintf("tensor: unknown activation %d", int(a)))
	}
}

// elementwise applies an element-wise activation to d in place. It is
// the one definition of ReLU/Tanh/Sigmoid arithmetic: Apply runs it over
// pool ranges and Linear over each output segment as it is produced, so
// the two cannot drift apart. Softmax needs whole rows and is a no-op
// here.
func (a Activation) elementwise(d []float32) {
	switch a {
	case ReLU:
		for i, v := range d {
			if v < 0 {
				d[i] = 0
			}
		}
	case Tanh:
		for i, v := range d {
			d[i] = float32(math.Tanh(float64(v)))
		}
	case Sigmoid:
		for i, v := range d {
			d[i] = float32(1 / (1 + math.Exp(-float64(v))))
		}
	}
}

// relu is elementwise's ReLU on one value, for a kernel that activates
// an accumulator while it is still in a register: the same v < 0 test,
// so -0 and NaN pass through as they do there.
func relu(v float32) float32 {
	if v < 0 {
		return 0
	}
	return v
}

// softmaxRows normalises rows [lo, hi) of d, n values each.
func softmaxRows(d []float32, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		softmaxRow(d[i*n : (i+1)*n])
	}
}

func softmaxRow(row []float32) {
	maxv := row[0]
	for _, v := range row[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range row {
		e := math.Exp(float64(v - maxv))
		row[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range row {
		row[i] *= inv
	}
}

// FlopsPerElement returns the approximate floating-point cost of the
// activation per element; used by the device cost models.
func (a Activation) FlopsPerElement() int64 {
	switch a {
	case Identity:
		return 0
	case ReLU:
		return 1
	case Tanh, Sigmoid:
		return 8 // transcendental approximated as ~8 flops on all devices
	case Softmax:
		return 10
	default:
		return 1
	}
}

// Argmax returns the index of the maximum value in each row of a rank-2
// tensor; this is the classification decision of the paper's inference
// kernels.
func Argmax(t *Tensor) []int {
	m, n := argmaxDims(t)
	out := make([]int, m)
	for i := range out {
		out[i] = argmaxRow(t.data[i*n : (i+1)*n])
	}
	return out
}

// SoftmaxArgmax is Argmax of the rows' softmax, read from t's logits:
// each row's label is its logits' first maximum where that is provably
// the label softmax then Argmax would give — every logit finite and
// every earlier one at least 2⁻²² below the maximum — and otherwise the
// row is normalised in place and Argmax read from it. Under that guard
// the softmax is exact enough to tell them apart: an earlier logit's
// float32 v − max is at most −2⁻²², so float32(exp(v − max)) ≤ 1 − 2⁻²²
// and its probability rounds to at least one ulp below the maximum's,
// which is inv exactly (exp(0)·inv); a later logit's is at most inv, so
// Argmax, which keeps the first of equals, picks the maximum. Ties
// within 2⁻²², where rounding may make an earlier probability equal the
// maximum's, take softmaxRow. t's rows may be overwritten.
func SoftmaxArgmax(t *Tensor) []int {
	m, n := argmaxDims(t)
	out := make([]int, m)
	for i := range out {
		row := t.data[i*n : (i+1)*n]
		best, ok := logitsArgmax(row)
		if !ok {
			softmaxRow(row)
			best = argmaxRow(row)
		}
		out[i] = best
	}
	return out
}

// logitsArgmax returns the first maximum of row, and whether
// SoftmaxArgmax's guard holds for it.
func logitsArgmax(row []float32) (int, bool) {
	best := argmaxRow(row)
	for j, v := range row {
		if v-v != 0 || j < best && v-row[best] > -0x1p-22 { // v is ±Inf or NaN, or too close below
			return 0, false
		}
	}
	return best, true
}

func argmaxDims(t *Tensor) (m, n int) {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Argmax needs a rank-2 tensor, got %v", t.Shape()))
	}
	return t.Dim(0), t.Dim(1)
}

// argmaxRow returns the index of row's first maximum under >.
func argmaxRow(row []float32) int {
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return best
}
