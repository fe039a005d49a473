package nn_test

import (
	"math/rand"
	"testing"

	"bomw/internal/models"
	"bomw/internal/nn"
	"bomw/internal/tensor"
)

// The dense layers run on tensor.Linear; these tests hold them, to the
// bit and on every pool, to the call sequence they ran before it:
// transpose the weights, MatMul, add the bias, apply the activation.

var identityPools = []*tensor.Pool{tensor.Serial, tensor.NewPool(2, 64), tensor.NewPool(3, 1), tensor.NewPool(2, 4096)}

func referenceDense(in, w, b *tensor.Tensor, act tensor.Activation) *tensor.Tensor {
	out := tensor.MatMul(tensor.Serial, in, tensor.Transpose(w))
	tensor.AddBiasRows(tensor.Serial, out, b)
	act.Apply(tensor.Serial, out)
	return out
}

func referenceForward(net *nn.Network, in *tensor.Tensor) *tensor.Tensor {
	x := in
	for _, layer := range net.Layers() {
		switch l := layer.(type) {
		case *nn.Dense:
			x = referenceDense(x, l.W, l.B, l.Act)
		case *nn.HalfDense:
			x = referenceDense(x, l.W.Expand(), l.B, l.Act)
		default:
			x = layer.Forward(tensor.Serial, x)
		}
	}
	return x
}

// identityInput mixes the serving benchmark's k/1000 pattern with the
// exact zeros the old kernel skipped and with negatives.
func identityInput(rng *rand.Rand, shape ...int) *tensor.Tensor {
	in := tensor.New(shape...)
	d := in.Data()
	for i := range d {
		switch rng.Intn(8) {
		case 0:
		case 1:
			d[i] = -float32(1+rng.Intn(999)) / 1000
		default:
			d[i] = float32(1+rng.Intn(999)) / 1000
		}
	}
	return in
}

func TestDenseForwardBitIdenticalToMatMulSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, act := range []tensor.Activation{tensor.Identity, tensor.ReLU, tensor.Tanh, tensor.Sigmoid, tensor.Softmax} {
		d := nn.NewDense(rng, 37, 23, act)
		for i := range d.B.Data() {
			d.B.Data()[i] = rng.Float32() - 0.5
		}
		h := nn.Halve(d)
		for _, batch := range []int{1, 5, 64} {
			in := identityInput(rng, batch, 37)
			want, wantHalf := referenceDense(in, d.W, d.B, act), referenceDense(in, h.W.Expand(), h.B, act)
			for _, pool := range identityPools {
				if !d.Forward(pool, in).Equal(want) {
					t.Errorf("Dense.Forward %s batch %d pool(%d,%d) differs from the MatMul sequence", act, batch, pool.Workers(), pool.GroupSize())
				}
				if !h.Forward(pool, in).Equal(wantHalf) {
					t.Errorf("HalfDense.Forward %s batch %d pool(%d,%d) differs from the MatMul sequence", act, batch, pool.Workers(), pool.GroupSize())
				}
			}
		}
	}
}

func TestPaperModelsForwardBitIdenticalToMatMulSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, spec := range models.PaperModels() {
		net := spec.MustBuild(1)
		in := identityInput(rng, append([]int{2}, spec.InputShape...)...)
		want := referenceForward(net, in)
		for _, pool := range identityPools {
			if !net.Forward(pool, in).Equal(want) {
				t.Errorf("%s: Forward on pool(%d,%d) differs from the MatMul sequence", spec.Name, pool.Workers(), pool.GroupSize())
			}
		}
	}
}
