package nn

import (
	"fmt"
	"math/rand"

	"bomw/internal/tensor"
)

// Trainer fits feed-forward networks (stacks of Dense layers with ReLU,
// tanh, sigmoid or identity hidden activations and a softmax output) by
// mini-batch SGD on the cross-entropy loss. The paper performs training
// offline (§II-B); bomw includes it so the workload models' §III-B
// accuracy claims — e.g. 97% for Simple on Iris — are reproducible
// end to end. Convolutional training is out of scope, as in the paper.
type Trainer struct {
	LR     float64 // learning rate (default 0.1)
	Epochs int     // passes over the data (default 200)
	Batch  int     // mini-batch size (default 32)
	Seed   int64   // shuffling seed
}

// Train fits the network in place on samples x [n, features] with labels
// y. The network must be a pure Dense stack ending in softmax.
func (t *Trainer) Train(net *Network, x *tensor.Tensor, y []int) error {
	lr := t.LR
	if lr <= 0 {
		lr = 0.1
	}
	epochs := t.Epochs
	if epochs <= 0 {
		epochs = 200
	}
	bs := t.Batch
	if bs <= 0 {
		bs = 32
	}

	if x.Rank() != 2 {
		return fmt.Errorf("nn: Train needs rank-2 input, got %v", x.Shape())
	}
	n := x.Dim(0)
	if n == 0 || n != len(y) {
		return fmt.Errorf("nn: Train needs matching samples (%d) and labels (%d)", n, len(y))
	}
	var dense []*Dense
	for _, l := range net.Layers() {
		d, ok := l.(*Dense)
		if !ok {
			return fmt.Errorf("nn: Train supports Dense-only networks; %s found", l.Name())
		}
		dense = append(dense, d)
	}
	last := dense[len(dense)-1]
	if last.Act != tensor.Softmax {
		return fmt.Errorf("nn: Train needs a softmax output layer, got %s", last.Act)
	}
	for _, d := range dense[:len(dense)-1] {
		switch d.Act {
		case tensor.ReLU, tensor.Identity, tensor.Tanh, tensor.Sigmoid:
		default:
			return fmt.Errorf("nn: Train cannot differentiate hidden activation %s", d.Act)
		}
	}
	for _, label := range y {
		if label < 0 || label >= net.Classes() {
			return fmt.Errorf("nn: label %d out of range [0,%d)", label, net.Classes())
		}
	}

	rng := rand.New(rand.NewSource(t.Seed))
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	feat := x.Dim(1)
	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for lo := 0; lo < n; lo += bs {
			hi := lo + bs
			if hi > n {
				hi = n
			}
			m := hi - lo
			xb := tensor.New(m, feat)
			yb := make([]int, m)
			for i := 0; i < m; i++ {
				src := order[lo+i]
				copy(xb.Row(i), x.Row(src))
				yb[i] = y[src]
			}
			sgdStep(dense, xb, yb, float32(lr))
		}
	}
	return nil
}

// sgdStep runs forward (capturing pre-activations), backward, and applies
// one gradient update across all layers.
func sgdStep(layers []*Dense, xb *tensor.Tensor, yb []int, lr float32) {
	m := xb.Dim(0)
	acts := []*tensor.Tensor{xb} // post-activation per layer
	var zs []*tensor.Tensor      // pre-activation per hidden layer
	cur := xb
	for li, l := range layers {
		z := tensor.Linear(tensor.Serial, cur, l.W, l.B, tensor.Identity)
		if li < len(layers)-1 {
			zs = append(zs, z.Clone())
		}
		l.Act.Apply(tensor.Serial, z)
		acts = append(acts, z)
		cur = z
	}

	// Softmax cross-entropy output delta: p - onehot.
	out := acts[len(acts)-1]
	delta := out.Clone()
	for i := 0; i < m; i++ {
		delta.Set(delta.At(i, yb[i])-1, i, yb[i])
	}

	inv := 1 / float32(m)
	for li := len(layers) - 1; li >= 0; li-- {
		l := layers[li]
		in := acts[li]
		// Gradients: dW = deltaᵀ·in / m, db = column means of delta.
		dW := tensor.MatMul(tensor.Serial, tensor.Transpose(delta), in)
		for i, v := range dW.Data() {
			l.W.Data()[i] -= lr * v * inv
		}
		outN := l.Out()
		for j := 0; j < outN; j++ {
			var s float32
			for i := 0; i < m; i++ {
				s += delta.At(i, j)
			}
			l.B.Data()[j] -= lr * s * inv
		}
		if li == 0 {
			break
		}
		// Propagate: deltaPrev = (delta·W) ⊙ act'(z).
		prev := tensor.MatMul(tensor.Serial, delta, l.W)
		z := zs[li-1]
		applyActGrad(layers[li-1].Act, prev, z)
		delta = prev
	}
}

// applyActGrad multiplies delta in place by the derivative of act
// evaluated at pre-activation z.
func applyActGrad(act tensor.Activation, delta, z *tensor.Tensor) {
	d := delta.Data()
	zd := z.Data()
	switch act {
	case tensor.Identity:
	case tensor.ReLU:
		for i := range d {
			if zd[i] <= 0 {
				d[i] = 0
			}
		}
	case tensor.Tanh:
		for i := range d {
			th := tanh32(zd[i])
			d[i] *= 1 - th*th
		}
	case tensor.Sigmoid:
		for i := range d {
			s := sigmoid32(zd[i])
			d[i] *= s * (1 - s)
		}
	}
}

func tanh32(v float32) float32 {
	t := tensor.FromSlice([]float32{v}, 1)
	tensor.Tanh.Apply(tensor.Serial, t)
	return t.At(0)
}

func sigmoid32(v float32) float32 {
	t := tensor.FromSlice([]float32{v}, 1)
	tensor.Sigmoid.Apply(tensor.Serial, t)
	return t.At(0)
}

// Accuracy scores a network's classifications against labels.
func Accuracy(net *Network, pool *tensor.Pool, x *tensor.Tensor, y []int) float64 {
	pred := net.Classify(pool, x)
	correct := 0
	for i, p := range pred {
		if p == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(y))
}
