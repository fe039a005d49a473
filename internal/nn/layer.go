// Package nn implements the feed-forward and convolutional neural network
// inference engines evaluated by the paper (§II-B, §III-B): layer types,
// network assembly from architecture specs, deterministic weight
// initialisation, forward (classification) passes, and the FLOP/byte
// accounting the device cost models consume.
//
// Training of the workload networks is out of scope for the paper's
// evaluation (it happens offline); bomw initialises weights from a seeded
// PRNG so runs are reproducible, and the Dispatcher (internal/core) loads
// those weights onto every device exactly as Fig. 2 describes.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"bomw/internal/tensor"
)

// Layer is one stage of a network's forward pass. Implementations must be
// safe for concurrent Forward calls (weights are read-only after build).
type Layer interface {
	// Forward computes the layer output for a batch held in in: a new
	// tensor, then the same code as ForwardInto.
	Forward(pool *tensor.Pool, in *tensor.Tensor) *tensor.Tensor
	// ForwardInto computes the layer output into out, which the caller
	// owns and has shaped [batch, OutputShape...]; every element of the
	// output is overwritten. Feature maps [batch, C, H, W] may be larger
	// by a border on every spatial side — the zero padding of the
	// convolution that reads them — which the layer leaves untouched.
	ForwardInto(pool *tensor.Pool, in, out *tensor.Tensor)
	// OutputShape returns the per-sample output shape for a given
	// per-sample input shape (batch dimension excluded). It panics if
	// the layer cannot take that input.
	OutputShape(in []int) []int
	// FlopsPerSample returns the floating-point operations needed for one
	// sample with the given per-sample input shape.
	FlopsPerSample(in []int) int64
	// ParamBytes returns the weight footprint in bytes.
	ParamBytes() int64
	// Name returns a short human-readable layer description.
	Name() string
}

// Dense is a fully connected layer: out = act(in·Wᵀ + b).
// W has shape [out, in]; B has shape [out].
type Dense struct {
	W   *tensor.Tensor
	B   *tensor.Tensor
	Act tensor.Activation
}

// NewDense builds a dense layer with Xavier/Glorot-uniform weights drawn
// from rng.
func NewDense(rng *rand.Rand, in, out int, act tensor.Activation) *Dense {
	w := tensor.New(out, in)
	drawUniform(rng, w.Data(), float32(math.Sqrt(6/float64(in+out))))
	return &Dense{W: w, B: tensor.New(out), Act: act}
}

// drawUniform sets every d[i] to (rng.Float32()*2 - 1) * limit. It is
// math/rand's Float32 spelled out over rng.Int63 — the same draws and the
// same two retries, so a seed gives the weights it always gave — without
// the two calls Float32 and Float64 cost per weight.
func drawUniform(rng *rand.Rand, d []float32, limit float32) {
	for i := range d {
		var f float32
		for {
			f64 := float64(rng.Int63()) / (1 << 63)
			if f64 == 1 { // Float64 draws again
				continue
			}
			if f = float32(f64); f != 1 { // and so does Float32
				break
			}
		}
		d[i] = (f*2 - 1) * limit
	}
}

// In returns the layer fan-in.
func (l *Dense) In() int { return l.W.Dim(1) }

// Out returns the layer fan-out (number of neurons).
func (l *Dense) Out() int { return l.W.Dim(0) }

// Forward implements Layer.
func (l *Dense) Forward(pool *tensor.Pool, in *tensor.Tensor) *tensor.Tensor {
	if in.Rank() != 2 {
		panic(fmt.Sprintf("nn: Dense input must be rank-2 [batch, features], got %v", in.Shape()))
	}
	return tensor.Linear(pool, in, l.W, l.B, l.Act)
}

// ForwardInto implements Layer.
func (l *Dense) ForwardInto(pool *tensor.Pool, in, out *tensor.Tensor) {
	tensor.LinearInto(pool, out, in, l.W, l.B, l.Act)
}

// linear returns the kernel's operands, for the plan, which runs the
// kernel with the scratch only a caller with an arena can offer.
func (l *Dense) linear() (w, bias *tensor.Tensor, act tensor.Activation) { return l.W, l.B, l.Act }

// dims returns what the layer's cost and shape depend on.
func (l *Dense) dims() denseDims { return denseDims{in: l.In(), out: l.Out(), act: l.Act} }

// OutputShape implements Layer.
func (l *Dense) OutputShape(in []int) []int { return l.dims().OutputShape(in) }

// denseShape is OutputShape for the fully connected layers: the input
// must be exactly the fanIn features the weights expect.
func denseShape(l Layer, in []int, fanIn, fanOut int) []int {
	if len(in) != 1 || in[0] != fanIn {
		panic(fmt.Sprintf("nn: %s needs [%d] features per sample, got %v", l.Name(), fanIn, in))
	}
	return []int{fanOut}
}

// FlopsPerSample implements Layer.
func (l *Dense) FlopsPerSample(in []int) int64 { return l.dims().FlopsPerSample(in) }

// ParamBytes implements Layer.
func (l *Dense) ParamBytes() int64 { return l.W.SizeBytes() + l.B.SizeBytes() }

// Name implements Layer.
func (l *Dense) Name() string { return l.dims().Name() }

// Conv is a 2-D convolution layer with stride 1 and Pad rows/columns of
// zero padding per side ("valid" = 0, "same" = (k-1)/2 for odd k), the
// configurations used by the paper's CNNs. Filters has shape
// [outC, inC, kH, kW].
type Conv struct {
	Filters *tensor.Tensor
	Bias    *tensor.Tensor
	Act     tensor.Activation
	Pad     int
}

// NewConvPad builds a convolution layer with pad rings of zero padding (0
// for a valid convolution) and He-uniform weights drawn from rng.
func NewConvPad(rng *rand.Rand, inC, outC, k, pad int, act tensor.Activation) *Conv {
	f := tensor.New(outC, inC, k, k)
	drawUniform(rng, f.Data(), float32(math.Sqrt(6/float64(inC*k*k))))
	return &Conv{Filters: f, Bias: tensor.New(outC), Act: act, Pad: pad}
}

// Forward implements Layer.
func (l *Conv) Forward(pool *tensor.Pool, in *tensor.Tensor) *tensor.Tensor {
	return tensor.Conv2DAct(pool, tensor.Pad2D(in, l.Pad), l.Filters, l.Bias, l.Act)
}

// ForwardInto implements Layer. Unlike Forward it adds no padding: in
// already carries the layer's border of Pad zeros, [batch, C, H+2·Pad,
// W+2·Pad], which is how the layer before it left it.
func (l *Conv) ForwardInto(pool *tensor.Pool, in, out *tensor.Tensor) {
	tensor.ConvPoolInto(pool, out, in, l.Filters, l.Bias, l.Act, 1)
}

// dims returns what the layer's cost and shape depend on.
func (l *Conv) dims() convDims {
	f := l.Filters
	return convDims{inC: f.Dim(1), outC: f.Dim(0), kH: f.Dim(2), kW: f.Dim(3), pad: l.Pad, act: l.Act}
}

// OutputShape implements Layer.
func (l *Conv) OutputShape(in []int) []int { return l.dims().OutputShape(in) }

// FlopsPerSample implements Layer.
func (l *Conv) FlopsPerSample(in []int) int64 { return l.dims().FlopsPerSample(in) }

// ParamBytes implements Layer.
func (l *Conv) ParamBytes() int64 { return l.Filters.SizeBytes() + l.Bias.SizeBytes() }

// Name implements Layer.
func (l *Conv) Name() string { return l.dims().Name() }

// MaxPool is a non-overlapping max-pooling layer with window K.
type MaxPool struct {
	K int
}

// Forward implements Layer.
func (l *MaxPool) Forward(pool *tensor.Pool, in *tensor.Tensor) *tensor.Tensor {
	return tensor.MaxPool2D(pool, in, l.K)
}

// ForwardInto implements Layer.
func (l *MaxPool) ForwardInto(pool *tensor.Pool, in, out *tensor.Tensor) {
	tensor.MaxPool2DInto(pool, out, in, l.K)
}

// OutputShape implements Layer.
func (l *MaxPool) OutputShape(in []int) []int {
	if len(in) != 3 {
		panic(fmt.Sprintf("nn: MaxPool input must be [C H W], got %v", in))
	}
	if l.K <= 0 {
		panic(fmt.Sprintf("nn: MaxPool window must be positive, got %d", l.K))
	}
	return []int{in[0], in[1] / l.K, in[2] / l.K}
}

// FlopsPerSample implements Layer: one compare per pooled element.
func (l *MaxPool) FlopsPerSample(in []int) int64 {
	out := l.OutputShape(in)
	return int64(out[0]) * int64(out[1]) * int64(out[2]) * int64(l.K*l.K)
}

// ParamBytes implements Layer.
func (l *MaxPool) ParamBytes() int64 { return 0 }

// Name implements Layer.
func (l *MaxPool) Name() string { return fmt.Sprintf("maxpool(%dx%d)", l.K, l.K) }

// Flatten reshapes [batch, C, H, W] feature maps into [batch, C*H*W] rows
// feeding the dense head of a CNN.
type Flatten struct{}

// Forward implements Layer.
func (Flatten) Forward(pool *tensor.Pool, in *tensor.Tensor) *tensor.Tensor {
	batch := in.Dim(0)
	return in.Reshape(batch, in.Len()/batch)
}

// ForwardInto implements Layer: the same values in the same order. A
// Network never calls it — its plan reads the buffer under the new shape
// instead.
func (Flatten) ForwardInto(pool *tensor.Pool, in, out *tensor.Tensor) {
	if out.Len() != in.Len() {
		panic(fmt.Sprintf("nn: flatten of %v into %v", in.Shape(), out.Shape()))
	}
	copy(out.Data(), in.Data())
}

// OutputShape implements Layer.
func (Flatten) OutputShape(in []int) []int {
	n := 1
	for _, d := range in {
		n *= d
	}
	return []int{n}
}

// FlopsPerSample implements Layer.
func (Flatten) FlopsPerSample(in []int) int64 { return 0 }

// ParamBytes implements Layer.
func (Flatten) ParamBytes() int64 { return 0 }

// Name implements Layer.
func (Flatten) Name() string { return "flatten" }
