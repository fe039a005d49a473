package nn_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"bomw/internal/models"
	"bomw/internal/nn"
	"bomw/internal/tensor"
)

// The dense layers run on tensor.Linear and the conv blocks on
// tensor.Conv2DAct and the plane-split MaxPool2D; these tests hold
// them, to the bit and on every pool, to the call sequences they ran
// before: transpose the weights, MatMul, add the bias, apply the
// activation; pad, one output at a time through a single accumulator,
// apply the activation; one pooling plane after the other.

var identityPools = []*tensor.Pool{tensor.Serial, tensor.NewPool(2, 64), tensor.NewPool(3, 1), tensor.NewPool(2, 256), tensor.NewPool(2, 4096)}

func referenceDense(in, w, b *tensor.Tensor, act tensor.Activation) *tensor.Tensor {
	out := tensor.MatMul(tensor.Serial, in, tensor.Transpose(w))
	tensor.AddBiasRows(tensor.Serial, out, b)
	act.Apply(tensor.Serial, out)
	return out
}

// referenceConv is the loop nest tensor.Conv2D ran before the
// four-filter kernel: bias, then += in·w over c, fy, fx ascending.
func referenceConv(in, filters, bias *tensor.Tensor) *tensor.Tensor {
	batch, inC, inH, inW := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	outC, kH, kW := filters.Dim(0), filters.Dim(2), filters.Dim(3)
	outH, outW := inH-kH+1, inW-kW+1
	out := tensor.New(batch, outC, outH, outW)
	src, fd, dst := in.Data(), filters.Data(), out.Data()
	for b := 0; b < batch; b++ {
		for oc := 0; oc < outC; oc++ {
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					var sum float32
					if bias != nil {
						sum = bias.Data()[oc]
					}
					for c := 0; c < inC; c++ {
						for fy := 0; fy < kH; fy++ {
							for fx := 0; fx < kW; fx++ {
								sum += src[((b*inC+c)*inH+oy+fy)*inW+ox+fx] * fd[((oc*inC+c)*kH+fy)*kW+fx]
							}
						}
					}
					dst[((b*outC+oc)*outH+oy)*outW+ox] = sum
				}
			}
		}
	}
	return out
}

// referenceMaxPool is tensor.MaxPool2D's window scan: the first element
// seeds, a later one wins only if greater.
func referenceMaxPool(in *tensor.Tensor, k int) *tensor.Tensor {
	planes, inH, inW := in.Dim(0)*in.Dim(1), in.Dim(2), in.Dim(3)
	outH, outW := inH/k, inW/k
	out := tensor.New(in.Dim(0), in.Dim(1), outH, outW)
	src, dst := in.Data(), out.Data()
	for p := 0; p < planes; p++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				best := src[(p*inH+oy*k)*inW+ox*k]
				for fy := 0; fy < k; fy++ {
					for fx := 0; fx < k; fx++ {
						if v := src[(p*inH+oy*k+fy)*inW+ox*k+fx]; v > best {
							best = v
						}
					}
				}
				dst[(p*outH+oy)*outW+ox] = best
			}
		}
	}
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
		case *nn.Conv:
			x = referenceConv(tensor.Pad2D(x, l.Pad), l.Filters, l.Bias)
			l.Act.Apply(tensor.Serial, x)
		case *nn.MaxPool:
			x = referenceMaxPool(x, l.K)
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

// sameBits is Equal on bit patterns: NaN equals NaN, -0 does not equal 0.
func sameBits(a, b *tensor.Tensor) bool {
	if len(a.Shape()) != len(b.Shape()) || a.Len() != b.Len() {
		return false
	}
	for i, d := range a.Shape() {
		if b.Dim(i) != d {
			return false
		}
	}
	for i, v := range a.Data() {
		if math.Float32bits(v) != math.Float32bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

// blockCNN is the plan's conv paths in a few thousand MACs: a padded conv
// writing into the next padded conv's border, a conv fused with a
// max-pool, five filters (a tile of four and one over), an odd plane
// under a 2×2 pool (ragged: 9 → 4), a flatten and a dense head.
func blockCNN() *nn.Spec {
	return &nn.Spec{Name: "block-cnn", Kind: nn.CNN, InputShape: []int{2, 9, 9},
		Hidden: []int{11}, Classes: 3, Act: tensor.ReLU,
		VGGBlocks: 2, ConvsPerBlock: 2, Filters: 5, FilterSize: 3, PoolSize: 2, SamePad: true}
}

// identitySpecs is what the network-level identity tests run: the five
// paper models and blockCNN. Under the race detector the reference
// convolution over cifar-10 at batch 8 alone takes minutes, and
// blockCNN drives the same kernels through the same branches, so there
// the CNNs and mnist-deep stay out.
func identitySpecs() []*nn.Spec {
	if nn.RaceDetector {
		return []*nn.Spec{models.Simple(), models.MnistSmall(), blockCNN()}
	}
	return append(models.PaperModels(), blockCNN())
}

func TestPaperModelsForwardBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, spec := range identitySpecs() {
		net := spec.MustBuild(1)
		// 16 and 17 fill the vector kernels' sample lanes twice over, with
		// and without a ragged last panel; the two MNIST FFNNs, whose
		// reference is cheap, also run http_mnist_b64's batch.
		batches := []int{1, 2, 8, 16, 17}
		if spec.Kind == nn.FFNN && spec.InputShape[0] == 784 {
			batches = append(batches, 64)
		}
		for _, batch := range batches {
			in := identityInput(rng, append([]int{batch}, spec.InputShape...)...)
			want := referenceForward(net, in)
			for _, pool := range identityPools {
				if !sameBits(net.Forward(pool, in), want) {
					t.Errorf("%s batch %d: Forward on pool(%d,%d) differs from the reference sequence", spec.Name, batch, pool.Workers(), pool.GroupSize())
				}
			}
		}
	}
}

// Classify stops at the final softmax's logits and reads the labels from
// them (tensor.SoftmaxArgmax); they must be Forward's argmax. This is the
// one check of Classify that does not go through Classify: bench/'s
// oracle calls it. The batch's first sample is zero, which ties logits
// where the biases do.
func TestClassifyMatchesArgmaxOfForward(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	pools := []*tensor.Pool{tensor.Serial, tensor.NewPool(2, 256), tensor.Default}
	for _, spec := range identitySpecs() {
		net := spec.MustBuild(1)
		for _, batch := range []int{1, 7, 8, 9, 64} {
			in := identityInput(rng, append([]int{batch}, spec.InputShape...)...)
			clear(in.Data()[:in.Len()/batch])
			for _, pool := range pools {
				want := tensor.Argmax(net.Forward(pool, in))
				if got := net.Classify(pool, in); !slices.Equal(got, want) {
					t.Errorf("%s batch %d on pool(%d,%d): Classify %v, Argmax of Forward %v", spec.Name, batch, pool.Workers(), pool.GroupSize(), got, want)
				}
			}
		}
	}
}
