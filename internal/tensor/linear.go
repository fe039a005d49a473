package tensor

import "fmt"

// Linear computes the fully connected layer out = act(in·Wᵀ + bias) for
// in [m,k], w [n,k] and bias [n] (nil for none), reading W as stored —
// one row per neuron — so no transposed copy is ever made.
//
// This is the paper's thread-per-node FFNN kernel (§IV-B): a work-item
// is one (sample, neuron) pair and walks that neuron's weight row. The
// m·n work-items are split along neurons into groups of GroupSize, so
// the partitioning does not depend on the batch having many rows and no
// output element is shared between workers. A layer small enough for
// Pool.inline runs on the caller.
//
// Every output is one float32 accumulator summed over p = 0..k-1 in
// ascending order, then + bias, then the activation: to the bit the
// result of MatMul against a transposed copy of w, AddBiasRows and
// Apply, on every pool. Speed comes from keeping independent
// accumulators in flight — eight samples against one weight row, or,
// for the rows left over, four neurons against one input row — never
// from splitting or reordering a sum. The one difference from MatMul:
// there is no av == 0 skip, so 0·Inf in non-finite weights yields NaN
// here.
//
// Where the host and the shape allow, the same sums run eight to a
// vector register: under eight samples eight neurons a register
// (neuronLanes), on every entry point; from eight samples up eight
// samples a register (vectorLinear), for LinearPanelInto given scratch.
// The Go kernel below is what both are held to.
func Linear(pool *Pool, in, w, bias *Tensor, act Activation) *Tensor {
	m, n := linearDims(in, w, bias)
	out := New(m, n)
	LinearInto(pool, out, in, w, bias, act)
	return out
}

// LinearInto is Linear writing into out [m,n], which the caller owns;
// every element of out is overwritten.
func LinearInto(pool *Pool, out, in, w, bias *Tensor, act Activation) {
	LinearPanelInto(pool, out, in, w, bias, act, nil)
}

// LinearPanelInto is LinearInto for a caller that brings scratch: panel,
// at least LinearPanelLen(m, k, n) float32 whose contents do not matter
// and are overwritten. Where that length is not zero the layer runs on
// the sample-lane kernel — the batch packed into panel once, a sample
// per lane, the weights read where they are — and computes the same
// bits; with less scratch than that the Go kernel runs. The neuron-lane
// kernel of a batch under eight samples needs no scratch, and
// LinearPanelLen asks for none.
func LinearPanelInto(pool *Pool, out, in, w, bias *Tensor, act Activation, panel []float32) {
	m, n := linearDims(in, w, bias)
	if out.Rank() != 2 || out.Dim(0) != m || out.Dim(1) != n {
		panic(fmt.Sprintf("tensor: Linear output shape %v, want [%d %d]", out.Shape(), m, n))
	}
	if m == 0 {
		return
	}
	k, tile := in.Dim(1), 4
	if need := LinearPanelLen(m, k, n); need > 0 && len(panel) >= need {
		panel, tile = panel[:need], vecTile
		packPanels(panel, in.data, m, k)
	} else {
		panel = nil
	}
	if neuronLanes(m, k, n) {
		tile = vecTile
	}
	if pool.inline(m * n) {
		linearGroup(out, in, w, bias, act, panel, 0, n) // no closure: an inline call allocates nothing
	} else {
		pool.forGroups(n, pool.perGroup(m, tile), func(lo, hi int) { linearGroup(out, in, w, bias, act, panel, lo, hi) })
	}
	if act == Softmax {
		act.Apply(pool, out)
	}
}

// linearDims checks Linear's operands and returns the output's [m, n].
func linearDims(in, w, bias *Tensor) (m, n int) {
	if in.Rank() != 2 || w.Rank() != 2 || in.Dim(1) != w.Dim(1) {
		panic(fmt.Sprintf("tensor: Linear needs in [m,k] and w [n,k], got %v, %v", in.Shape(), w.Shape()))
	}
	m, n = in.Dim(0), w.Dim(0)
	if bias != nil && (bias.Rank() != 1 || bias.Dim(0) != n) {
		panic(fmt.Sprintf("tensor: Linear bias shape %v, want [%d]", bias.Shape(), n))
	}
	return m, n
}

// linearNeurons fills columns [lo, hi) of out. Samples go eight at a
// time against each weight row, read once for the eight: eight
// accumulators, one per sample, each summed over p ascending from +0,
// then + bias and ReLU while still in registers, then stored; Tanh and
// Sigmoid follow over each row's segment. The m mod 8 samples left over
// take one row at a time: the raw dot products (dotRows, four neurons
// against the row), then bias and activation over the segment just
// written. Either way every output is the same single sum.
func linearNeurons(out, in, w, bias *Tensor, act Activation, lo, hi int) {
	m, k, n := in.shape[0], in.shape[1], w.shape[0]
	blocked := m &^ (sampleBlock - 1)
	for i := 0; i < blocked; i += sampleBlock {
		linearSampleBlock(out.data[i*n:(i+sampleBlock)*n], in.data[i*k:(i+sampleBlock)*k], w, bias, act == ReLU, lo, hi)
	}
	if act == Tanh || act == Sigmoid {
		for i := 0; i < blocked; i++ {
			act.elementwise(out.data[i*n+lo : i*n+hi])
		}
	}
	for i := blocked; i < m; i++ {
		seg := out.data[i*n+lo : i*n+hi]
		dotRows(seg, in.data[i*k:(i+1)*k], w.data[lo*k:hi*k])
		if bias != nil {
			for x, b := range bias.data[lo:hi] {
				seg[x] += b
			}
		}
		act.elementwise(seg)
	}
}

// sampleBlock is how many samples linearNeurons runs against one read
// of a weight row: eight independent add chains to cover the add's
// latency, where one sample row at a time keeps at most four in flight
// (dotRows) and a layer of three neurons three.
const sampleBlock = 8

// linearSampleBlock fills columns [lo, hi) of the eight output rows in
// out from the eight input rows in x, k = len(x)/8 values each: per
// neuron, its weight row against all eight samples, then bias and, with
// withReLU, ReLU before the store.
func linearSampleBlock(out, x []float32, w, bias *Tensor, withReLU bool, lo, hi int) {
	k, n := w.shape[1], w.shape[0]
	x0, x1, x2, x3 := x[:k], x[k:][:k], x[2*k:][:k], x[3*k:][:k]
	x4, x5, x6, x7 := x[4*k:][:k], x[5*k:][:k], x[6*k:][:k], x[7*k:][:k]
	for j := lo; j < hi; j++ {
		wj := w.data[j*k:][:k]
		var s0, s1, s2, s3, s4, s5, s6, s7 float32
		for p, v := range wj {
			s0 += x0[p] * v
			s1 += x1[p] * v
			s2 += x2[p] * v
			s3 += x3[p] * v
			s4 += x4[p] * v
			s5 += x5[p] * v
			s6 += x6[p] * v
			s7 += x7[p] * v
		}
		if bias != nil {
			b := bias.data[j]
			s0, s1, s2, s3 = s0+b, s1+b, s2+b, s3+b
			s4, s5, s6, s7 = s4+b, s5+b, s6+b, s7+b
		}
		if withReLU {
			s0, s1, s2, s3 = relu(s0), relu(s1), relu(s2), relu(s3)
			s4, s5, s6, s7 = relu(s4), relu(s5), relu(s6), relu(s7)
		}
		out[j], out[n+j], out[2*n+j], out[3*n+j] = s0, s1, s2, s3
		out[4*n+j], out[5*n+j], out[6*n+j], out[7*n+j] = s4, s5, s6, s7
	}
}

// dotRows sets dst[j] to the dot product of x with row j of w, which
// holds len(dst) rows of len(x) weights.
func dotRows(dst, x, w []float32) {
	k := len(x)
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		w0 := w[j*k:][:k]
		w1 := w[(j+1)*k:][:k]
		w2 := w[(j+2)*k:][:k]
		w3 := w[(j+3)*k:][:k]
		var s0, s1, s2, s3 float32
		for p, v := range x {
			s0 += v * w0[p]
			s1 += v * w1[p]
			s2 += v * w2[p]
			s3 += v * w3[p]
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = s0, s1, s2, s3
	}
	for ; j < len(dst); j++ {
		wj := w[j*k:][:k]
		var s float32
		for p, v := range x {
			s += v * wj[p]
		}
		dst[j] = s
	}
}
