package nn

import (
	"fmt"
	"math/rand"

	"bomw/internal/tensor"
)

// Kind distinguishes the two model families the paper evaluates.
type Kind int

const (
	// FFNN is a multilayer perceptron (§II-B1).
	FFNN Kind = iota
	// CNN is a VGG-block convolutional network (§II-B2).
	CNN
)

// String returns "ffnn" or "cnn".
func (k Kind) String() string {
	if k == CNN {
		return "cnn"
	}
	return "ffnn"
}

// Spec is the declarative architecture description handed to the Model
// Building Module (Fig. 2). It captures exactly the parameters the paper
// identifies as performance-determining (§V-B): for FFNNs the depth and
// layer sizes; for CNNs the number of VGG blocks, convolutions per block,
// filter size and count, and pooling size, plus the dense head.
type Spec struct {
	Name       string
	Kind       Kind
	InputShape []int // per-sample: [features] for FFNN, [C H W] for CNN
	Hidden     []int // hidden dense layer sizes (the dense head for CNNs)
	Classes    int
	Act        tensor.Activation // hidden activation; output always softmax

	// CNN-only parameters. A "VGG block" is ConvsPerBlock convolution
	// layers followed by one pooling layer, as defined in §II-B2.
	VGGBlocks     int
	ConvsPerBlock int
	Filters       int
	FilterSize    int
	PoolSize      int
	// SamePad pads convolutions so feature maps keep their spatial size
	// (the Keras-style VGG blocks the paper's CNNs are modelled after).
	// When false, convolutions use "valid" padding.
	SamePad bool
}

// convPad returns the zero padding per side implied by the spec.
func (s *Spec) convPad() int {
	if s.SamePad {
		return (s.FilterSize - 1) / 2
	}
	return 0
}

// Validate checks internal consistency of the spec.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("nn: spec needs a name")
	}
	if s.Classes <= 0 {
		return fmt.Errorf("nn: spec %q: classes must be positive", s.Name)
	}
	for _, h := range s.Hidden {
		if h <= 0 {
			return fmt.Errorf("nn: spec %q: non-positive hidden layer size", s.Name)
		}
	}
	switch s.Kind {
	case FFNN:
		if len(s.InputShape) != 1 || s.InputShape[0] <= 0 {
			return fmt.Errorf("nn: spec %q: FFNN input shape must be [features], got %v", s.Name, s.InputShape)
		}
	case CNN:
		if len(s.InputShape) != 3 {
			return fmt.Errorf("nn: spec %q: CNN input shape must be [C H W], got %v", s.Name, s.InputShape)
		}
		if s.VGGBlocks <= 0 || s.ConvsPerBlock <= 0 || s.Filters <= 0 || s.FilterSize <= 0 || s.PoolSize <= 0 {
			return fmt.Errorf("nn: spec %q: CNN parameters must be positive", s.Name)
		}
		// Check the feature maps survive all blocks.
		h, w := s.InputShape[1], s.InputShape[2]
		shrink := s.FilterSize - 1 - 2*s.convPad()
		for b := 0; b < s.VGGBlocks; b++ {
			for c := 0; c < s.ConvsPerBlock; c++ {
				h -= shrink
				w -= shrink
			}
			if h < s.PoolSize || w < s.PoolSize {
				return fmt.Errorf("nn: spec %q: feature map vanishes at VGG block %d", s.Name, b+1)
			}
			h /= s.PoolSize
			w /= s.PoolSize
		}
	default:
		return fmt.Errorf("nn: spec %q: unknown kind %d", s.Name, int(s.Kind))
	}
	return nil
}

// Build materialises the spec into a Network with deterministic weights
// drawn from the given seed. This is the Model Building Module plus the
// Weights Building Module of Fig. 2 in one step.
func (s *Spec) Build(seed int64) (*Network, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return NewNetwork(s.Name, s.InputShape, s.stack(rand.New(rand.NewSource(seed)))...), nil
}

// Outline is Build without the weights: the same layer stack with every
// Dense and Conv as its dimensions alone, so no tensor is allocated and
// nothing is drawn. The outline answers every question about shape and
// cost exactly as the built network does — which is all the device
// models, the kernel compiler and a timing-only Estimate ask — and
// panics on Forward.
func (s *Spec) Outline() (*Network, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return newOutline(s.Name, s.InputShape, s.stack(nil)), nil
}

// stack lists the layers of a valid spec in order. The weight-bearing
// ones draw their weights from rng in that order; with a nil rng they
// are the dimensions alone.
func (s *Spec) stack(rng *rand.Rand) []Layer {
	dense := func(in, out int, act tensor.Activation) Layer {
		if rng == nil {
			return denseDims{in: in, out: out, act: act}
		}
		return NewDense(rng, in, out, act)
	}
	var layers []Layer
	in := s.InputShape[0]
	if s.Kind == CNN {
		ch, h, w := s.InputShape[0], s.InputShape[1], s.InputShape[2]
		k, pad := s.FilterSize, s.convPad()
		shrink := k - 1 - 2*pad
		for b := 0; b < s.VGGBlocks; b++ {
			for c := 0; c < s.ConvsPerBlock; c++ {
				if rng == nil {
					layers = append(layers, convDims{inC: ch, outC: s.Filters, kH: k, kW: k, pad: pad, act: s.Act})
				} else {
					layers = append(layers, NewConvPad(rng, ch, s.Filters, k, pad, s.Act))
				}
				ch = s.Filters
				h -= shrink
				w -= shrink
			}
			layers = append(layers, &MaxPool{K: s.PoolSize})
			h /= s.PoolSize
			w /= s.PoolSize
		}
		layers = append(layers, Flatten{})
		in = ch * h * w
	}
	for _, h := range s.Hidden {
		layers = append(layers, dense(in, h, s.Act))
		in = h
	}
	return append(layers, dense(in, s.Classes, tensor.Softmax))
}

// MustBuild is Build for statically known-good specs; it panics on error.
func (s *Spec) MustBuild(seed int64) *Network {
	n, err := s.Build(seed)
	if err != nil {
		panic(err)
	}
	return n
}

// Descriptor is the feature representation of an architecture used to
// train the scheduler (§V-B): FFNNs contribute (depth, total neurons);
// CNNs add (VGG blocks, convolutions per block, filter size, pool size).
type Descriptor struct {
	IsCNN         bool
	Depth         int // number of weight-bearing layers
	TotalNeurons  int // sum of dense-layer widths incl. output
	VGGBlocks     int
	ConvsPerBlock int
	FilterSize    int
	PoolSize      int
}

// Descriptor derives the scheduler feature representation from the spec.
func (s *Spec) Descriptor() Descriptor {
	d := Descriptor{
		Depth:        len(s.Hidden) + 1,
		TotalNeurons: s.Classes,
	}
	for _, h := range s.Hidden {
		d.TotalNeurons += h
	}
	if s.Kind == CNN {
		d.IsCNN = true
		d.Depth += s.VGGBlocks * s.ConvsPerBlock
		d.VGGBlocks = s.VGGBlocks
		d.ConvsPerBlock = s.ConvsPerBlock
		d.FilterSize = s.FilterSize
		d.PoolSize = s.PoolSize
	}
	return d
}

// NumFeatures is the length of Features(): the architecture columns of
// the scheduler's feature vector.
const NumFeatures = 7

// Features flattens the descriptor into the scheduler's numeric feature
// vector (architecture part only; batch size and GPU state are appended
// by the scheduler).
func (d Descriptor) Features() []float64 {
	return d.AppendFeatures(make([]float64, 0, NumFeatures))
}

// AppendFeatures appends Features() to dst, so a caller that adds its
// own columns sizes the vector once.
func (d Descriptor) AppendFeatures(dst []float64) []float64 {
	isCNN := 0.0
	if d.IsCNN {
		isCNN = 1
	}
	return append(dst,
		isCNN,
		float64(d.Depth),
		float64(d.TotalNeurons),
		float64(d.VGGBlocks),
		float64(d.ConvsPerBlock),
		float64(d.FilterSize),
		float64(d.PoolSize),
	)
}

// FeatureNames labels Features() entries, in order.
func FeatureNames() []string {
	return []string{"is_cnn", "depth", "total_neurons", "vgg_blocks", "convs_per_block", "filter_size", "pool_size"}
}
