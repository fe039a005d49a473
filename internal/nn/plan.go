package nn

import (
	"fmt"

	"bomw/internal/tensor"
)

// A plan is a Network compiled for execution: an ordered list of kernel
// steps over the buffers of an arena, fixed when the network is built.
//
// Every step but the first reads the buffer the step before it wrote, so
// a buffer has one writer and one reader. A buffer read by a padded
// convolution is laid out with that convolution's border around every
// plane, [C, H+2·Pad, W+2·Pad] per sample; its writer fills the
// interior and nothing ever writes the border, which is zero from the
// arena's allocation on — the padding copy is gone and every border tap
// still multiplies a stored zero. A convolution followed by a max-pool is
// one step (tensor.ConvPoolInto), a Flatten is no step at all: the next
// layer reads the same buffer through a view of the flattened shape.
//
// One more buffer belongs to no view: the panel, scratch in which a
// fully connected layer's vector kernel lays the batch out a sample per
// lane (tensor.LinearPanelInto). Each such step overwrites it before
// reading it, so one serves them all, sized for the largest.
//
// A network that ends in a fully connected softmax layer ends in that
// layer's logits: its step leaves the softmax out, and run applies it to
// the output view unless the caller asked for the logits.
type plan struct {
	steps   []step
	views   []view
	bufs    []int    // per-sample float32 volume of each arena buffer, border included
	dense   [][2]int // fan-in and fan-out of every step that takes the panel
	softmax bool     // the last step stops at the logits of a softmax
}

// step is one kernel launch: run reads views[in] and fills views[out],
// with the arena's panel for scratch.
type step struct {
	name    string
	run     func(pool *tensor.Pool, in, out *tensor.Tensor, panel []float32)
	in, out int
}

// A denseLayer is a fully connected layer, whose kernel the plan runs
// itself: with the panel for scratch, and in the last step without a
// softmax. linear returns the kernel's operands as they are at the call.
type denseLayer interface {
	linear() (w, bias *tensor.Tensor, act tensor.Activation)
}

// view is one tensor shape over a buffer.
type view struct {
	buf   int   // index into plan.bufs, or inputBuf
	shape []int // per-sample, border included
}

// inputBuf stands for the caller's input tensor, which the first step
// reads in place.
const inputBuf = -1

// compile checks that the layers chain from inputShape — each layer's
// OutputShape panics on an input it cannot take, and no dimension may
// vanish on the way — and lays out the plan. It returns the per-sample
// output shape with it.
func compile(name string, inputShape []int, layers []Layer) (*plan, []int) {
	p := &plan{}
	shape := inputShape
	checkShape(name, "input", shape)
	cur := p.view(inputBuf, shape, 0)
	for i := 0; i < len(layers); i++ {
		l := layers[i]
		if _, ok := l.(Flatten); ok {
			shape = l.OutputShape(shape)
			cur = p.view(p.views[cur].buf, shape, 0) // its writer left no border: a Flatten is not a padded conv
			continue
		}
		conv, _ := l.(*Conv)
		if conv != nil && conv.Pad > 0 && p.views[cur].buf == inputBuf {
			// The caller's tensor has no border: copy it into one that has.
			cur = p.step("pad", func(_ *tensor.Pool, in, out *tensor.Tensor, _ []float32) { tensor.Pad2DInto(out, in) },
				cur, shape, conv.Pad)
		}
		stepName, run := l.Name(), func(pool *tensor.Pool, in, out *tensor.Tensor, _ []float32) { l.ForwardInto(pool, in, out) }
		fanIn := shape[0]
		shape = l.OutputShape(shape)
		checkShape(name, l.Name(), shape)
		if dl, ok := l.(denseLayer); ok {
			_, _, act := dl.linear()
			logits := act == tensor.Softmax && i == len(layers)-1
			run = func(pool *tensor.Pool, in, out *tensor.Tensor, panel []float32) {
				w, bias, act := dl.linear()
				if logits {
					act = tensor.Identity
				}
				tensor.LinearPanelInto(pool, out, in, w, bias, act, panel)
			}
			p.dense = append(p.dense, [2]int{fanIn, shape[0]})
			p.softmax = logits
		}
		if conv != nil && i+1 < len(layers) {
			if mp, ok := layers[i+1].(*MaxPool); ok {
				stepName += "+" + mp.Name()
				run = func(pool *tensor.Pool, in, out *tensor.Tensor, _ []float32) {
					tensor.ConvPoolInto(pool, out, in, conv.Filters, conv.Bias, conv.Act, mp.K)
				}
				shape = mp.OutputShape(shape)
				checkShape(name, mp.Name(), shape)
				i++
			}
		}
		border := 0
		if i+1 < len(layers) && len(shape) == 3 {
			if next, ok := layers[i+1].(*Conv); ok {
				border = next.Pad
			}
		}
		cur = p.step(stepName, run, cur, shape, border)
	}
	return p, shape
}

func checkShape(network, layer string, shape []int) {
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("nn: network %q: %s has the per-sample shape %v", network, layer, shape))
		}
	}
}

// view adds a view of buf with the given per-sample shape, whose planes
// carry a border of that many elements, and returns its index.
func (p *plan) view(buf int, shape []int, border int) int {
	shape = append([]int(nil), shape...)
	if border > 0 {
		shape[1] += 2 * border
		shape[2] += 2 * border
	}
	p.views = append(p.views, view{buf: buf, shape: shape})
	return len(p.views) - 1
}

// step adds a step that reads view in and writes a new buffer of the
// given per-sample shape and border; it returns the view of that buffer.
func (p *plan) step(name string, run func(*tensor.Pool, *tensor.Tensor, *tensor.Tensor, []float32), in int, shape []int, border int) int {
	out := p.view(len(p.bufs), shape, border)
	vol := 1
	for _, d := range p.views[out].shape {
		vol *= d
	}
	p.bufs = append(p.bufs, vol)
	p.steps = append(p.steps, step{name: name, run: run, in: in, out: out})
	return out
}

// panelLen returns the panel a batch of the given size wants: the most
// any of the plan's fully connected steps asks for, which is nothing
// where all of them run the Go kernel.
func (p *plan) panelLen(batch int) int {
	n := 0
	for _, d := range p.dense {
		n = max(n, tensor.LinearPanelLen(batch, d[0], d[1]))
	}
	return n
}

// An arena is the activation memory of one forward pass at a time: the
// plan's buffers, each laid out sample after sample so that the first
// n·volume elements serve a batch of n, one tensor header per view, and
// the panel. Buffers are allocated — zeroed, which is what writes the
// borders — when the arena first meets a batch larger than it holds; a
// pass overwrites every interior element of the samples it uses and no
// border, so whatever an earlier, larger batch left behind is never read.
type arena struct {
	samples int // the batch the buffers hold
	bufs    [][]float32
	views   []*tensor.Tensor
	panel   []float32
}

// run executes the plan over a for the batch in in and returns the view
// holding the output, which is a's until the caller has copied it out.
// With logits, a plan that ends in a softmax returns the logits instead.
func (p *plan) run(pool *tensor.Pool, a *arena, in *tensor.Tensor, logits bool) *tensor.Tensor {
	batch := in.Dim(0)
	if a.views == nil {
		a.bufs = make([][]float32, len(p.bufs))
		a.views = make([]*tensor.Tensor, len(p.views))
		for i, v := range p.views {
			a.views[i] = tensor.New(append([]int{0}, v.shape...)...)
		}
	}
	if batch > a.samples {
		for i, vol := range p.bufs {
			a.bufs[i] = make([]float32, batch*vol)
		}
		if n := p.panelLen(batch); n > 0 {
			a.panel = make([]float32, n)
		}
		a.samples = batch
	}
	for i, v := range p.views {
		data := in.Data()
		if v.buf != inputBuf {
			data = a.bufs[v.buf]
		}
		a.views[i].Rebind(data, batch)
	}
	for _, s := range p.steps {
		s.run(pool, a.views[s.in], a.views[s.out], a.panel)
	}
	out := a.views[len(a.views)-1]
	if p.softmax && !logits {
		tensor.Softmax.Apply(pool, out)
	}
	return out
}
