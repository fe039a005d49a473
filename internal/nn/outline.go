package nn

import (
	"fmt"

	"bomw/internal/tensor"
)

// The device models and the kernel compiler read a network's shapes,
// FLOP counts, parameter footprint and layer names, never a weight. A
// characterisation sweep over 21 architectures therefore has no use for
// 21 sets of random weights: Spec.Outline builds the layer stack of
// Spec.Build from denseDims and convDims, the weight-bearing layers as
// their dimensions alone. Dense and Conv answer the same questions
// through the same two types, so an outline cannot drift from the
// network it outlines.

// newOutline assembles the weightless form of a network (Spec.Outline):
// layers that chain from inputShape, and no plan to run them with.
func newOutline(name string, inputShape []int, layers []Layer) *Network {
	shape := inputShape
	for _, l := range layers {
		shape = l.OutputShape(shape)
	}
	return &Network{name: name, inputShape: append([]int(nil), inputShape...), layers: layers, classes: shape[0]}
}

// noWeights is what running an outline, or a layer of one, panics with.
func noWeights(name string) string {
	return fmt.Sprintf("nn: %s is an outline and has no weights", name)
}

// denseDims is a fully connected layer without its tensors.
type denseDims struct {
	in, out int
	act     tensor.Activation
}

// convDims is a convolution layer without its tensors.
type convDims struct {
	inC, outC, kH, kW, pad int
	act                    tensor.Activation
}

// Forward implements Layer by panicking: an outline has nothing to
// multiply by.
func (d denseDims) Forward(*tensor.Pool, *tensor.Tensor) *tensor.Tensor { panic(noWeights(d.Name())) }

// ForwardInto implements Layer by panicking.
func (d denseDims) ForwardInto(_ *tensor.Pool, _, _ *tensor.Tensor) { panic(noWeights(d.Name())) }

// OutputShape implements Layer.
func (d denseDims) OutputShape(in []int) []int { return denseShape(d, in, d.in, d.out) }

// FlopsPerSample implements Layer: a multiply-accumulate per weight plus
// bias add and activation.
func (d denseDims) FlopsPerSample([]int) int64 {
	return int64(2*d.in+1)*int64(d.out) + d.act.FlopsPerElement()*int64(d.out)
}

// ParamBytes implements Layer: the [out, in] weights and [out] biases a
// Dense of these dimensions holds, as float32.
func (d denseDims) ParamBytes() int64 { return 4 * int64(d.out) * int64(d.in+1) }

// Name implements Layer.
func (d denseDims) Name() string { return fmt.Sprintf("dense(%d→%d,%s)", d.in, d.out, d.act) }

// Forward implements Layer by panicking.
func (d convDims) Forward(*tensor.Pool, *tensor.Tensor) *tensor.Tensor { panic(noWeights(d.Name())) }

// ForwardInto implements Layer by panicking.
func (d convDims) ForwardInto(_ *tensor.Pool, _, _ *tensor.Tensor) { panic(noWeights(d.Name())) }

// OutputShape implements Layer.
func (d convDims) OutputShape(in []int) []int {
	if len(in) != 3 {
		panic(fmt.Sprintf("nn: Conv input must be [C H W], got %v", in))
	}
	if in[0] != d.inC {
		panic(fmt.Sprintf("nn: %s needs %d input channels, got %v", d.Name(), d.inC, in))
	}
	return []int{d.outC, in[1] + 2*d.pad - d.kH + 1, in[2] + 2*d.pad - d.kW + 1}
}

// FlopsPerSample implements Layer.
func (d convDims) FlopsPerSample(in []int) int64 {
	out := d.OutputShape(in)
	elems := int64(out[0]) * int64(out[1]) * int64(out[2])
	macs := elems * int64(d.inC) * int64(d.kH) * int64(d.kW)
	return 2*macs + elems*(1+d.act.FlopsPerElement())
}

// ParamBytes implements Layer: the [outC, inC, kH, kW] filters and [outC]
// biases a Conv of these dimensions holds, as float32.
func (d convDims) ParamBytes() int64 {
	return 4 * int64(d.outC) * (int64(d.inC)*int64(d.kH)*int64(d.kW) + 1)
}

// Name implements Layer.
func (d convDims) Name() string {
	return fmt.Sprintf("conv(%dx%dx%d→%d,%s)", d.kH, d.kW, d.inC, d.outC, d.act)
}
