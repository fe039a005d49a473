package nn

import (
	"fmt"
	"strings"
	"sync"

	"bomw/internal/tensor"
)

// Network is an ordered stack of layers implementing one of the paper's
// workload models. A Network is immutable after construction and safe for
// concurrent Forward calls.
type Network struct {
	name       string
	inputShape []int // per-sample shape, e.g. [4] for Iris, [1 28 28] for MNIST
	layers     []Layer
	classes    int

	plan *plan // nil in an outline (Spec.Outline), which only describes
	// arenas holds the idle *arena values of this network: a pass takes
	// one for itself, so no arena is ever visible to two passes, and the
	// garbage collector reclaims the ones nobody has asked for lately.
	arenas sync.Pool
}

// NewNetwork assembles a network and compiles its plan. inputShape is the
// per-sample shape (without the batch dimension). It panics unless every
// layer can take its predecessor's output: a dense fan-in equal to the
// volume before it, a convolution's channels, no dimension that vanishes.
func NewNetwork(name string, inputShape []int, layers ...Layer) *Network {
	if len(layers) == 0 {
		panic("nn: network needs at least one layer")
	}
	inputShape = append([]int(nil), inputShape...)
	plan, out := compile(name, inputShape, layers)
	if len(out) != 1 {
		panic(fmt.Sprintf("nn: network %q must end in a rank-1 per-sample output, got %v", name, out))
	}
	n := &Network{name: name, inputShape: inputShape, layers: layers, classes: out[0], plan: plan}
	n.arenas.New = func() any { return new(arena) }
	return n
}

// Name returns the network's name.
func (n *Network) Name() string { return n.name }

// InputShape returns the per-sample input shape.
func (n *Network) InputShape() []int { return n.inputShape }

// Classes returns the size of the output layer.
func (n *Network) Classes() int { return n.classes }

// Layers returns the layer stack. The slice must not be mutated.
func (n *Network) Layers() []Layer { return n.layers }

// SampleBytes returns the byte size of one input sample; this is the unit
// the paper's throughput figures (bits/s) are based on.
func (n *Network) SampleBytes() int64 {
	sz := int64(4)
	for _, d := range n.inputShape {
		sz *= int64(d)
	}
	return sz
}

// Forward runs a classification pass over a batch: the plan's steps over
// an arena the pass has to itself, then a copy of the [batch, classes]
// output into a new tensor, the pass's only allocation once an arena of
// that batch size exists. The input must have shape [batch,
// inputShape...] and is only read.
func (n *Network) Forward(pool *tensor.Pool, in *tensor.Tensor) *tensor.Tensor {
	a, view := n.pass(pool, in, false)
	out := tensor.New(in.Dim(0), n.classes)
	copy(out.Data(), view.Data())
	n.releaseArena(a)
	return out
}

// Classify returns the argmax class index of each row of Forward's
// output, read straight from the arena: the labels are the pass's only
// allocation once an arena of that batch size exists. A network that
// ends in a softmax is not normalised: its pass stops at the logits, and
// tensor.SoftmaxArgmax reads the labels the softmax would give from them.
func (n *Network) Classify(pool *tensor.Pool, in *tensor.Tensor) []int {
	a, view := n.pass(pool, in, true)
	var classes []int
	if n.plan.softmax {
		classes = tensor.SoftmaxArgmax(view)
	} else {
		classes = tensor.Argmax(view)
	}
	n.releaseArena(a)
	return classes
}

// pass checks in against the network's input shape and runs the plan
// over an arena it takes for itself, up to the logits if asked (plan.run).
// It returns the arena and its output view, which the caller reads and
// then hands to releaseArena.
func (n *Network) pass(pool *tensor.Pool, in *tensor.Tensor, logits bool) (*arena, *tensor.Tensor) {
	if n.plan == nil {
		panic(noWeights(n.name))
	}
	if in.Dim(0) <= 0 || in.Rank() != len(n.inputShape)+1 {
		panic(fmt.Sprintf("nn: %s expects input rank %d (batch + %v), got %v",
			n.name, len(n.inputShape)+1, n.inputShape, in.Shape()))
	}
	for i, d := range n.inputShape {
		if in.Dim(i+1) != d {
			panic(fmt.Sprintf("nn: %s expects per-sample shape %v, got %v", n.name, n.inputShape, in.Shape()[1:]))
		}
	}
	a := n.arenas.Get().(*arena)
	return a, n.plan.run(pool, a, in, logits)
}

// releaseArena returns a to the idle arenas once its pass has read the
// output out of it; the caller must not touch a afterwards.
func (n *Network) releaseArena(a *arena) { n.arenas.Put(a) }

// FlopsPerSample returns the total floating-point work for one sample.
func (n *Network) FlopsPerSample() int64 {
	shape := n.inputShape
	var total int64
	for _, l := range n.layers {
		total += l.FlopsPerSample(shape)
		shape = l.OutputShape(shape)
	}
	return total
}

// ParamBytes returns the total weight footprint in bytes — the volume the
// Weights Building Module stages onto each device.
func (n *Network) ParamBytes() int64 {
	var total int64
	for _, l := range n.layers {
		total += l.ParamBytes()
	}
	return total
}

// ActivationBytesPerSample returns an upper bound on the intermediate
// activation traffic per sample, used by the device memory model.
func (n *Network) ActivationBytesPerSample() int64 {
	shape := n.inputShape
	vol := func(s []int) int64 {
		v := int64(4)
		for _, d := range s {
			v *= int64(d)
		}
		return v
	}
	total := vol(shape)
	for _, l := range n.layers {
		shape = l.OutputShape(shape)
		total += vol(shape)
	}
	return total
}

// String renders the layer stack, e.g.
// "mnist-small: [784] → dense(784→784,relu) → … → dense(800→10,softmax)".
func (n *Network) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %v", n.name, n.inputShape)
	for _, l := range n.layers {
		fmt.Fprintf(&b, " → %s", l.Name())
	}
	return b.String()
}
