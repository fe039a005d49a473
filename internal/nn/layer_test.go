package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"bomw/internal/tensor"
)

func TestDenseForwardKnownValues(t *testing.T) {
	d := &Dense{
		W:   tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3), // 2 out, 3 in
		B:   tensor.FromSlice([]float32{10, 20}, 2),
		Act: tensor.Identity,
	}
	in := tensor.FromSlice([]float32{1, 1, 1}, 1, 3)
	out := d.Forward(tensor.Serial, in)
	if out.Dim(0) != 1 || out.Dim(1) != 2 {
		t.Fatalf("Dense output shape %v", out.Shape())
	}
	if out.At(0, 0) != 16 || out.At(0, 1) != 35 {
		t.Fatalf("Dense output %v, want [16 35]", out)
	}
}

func TestDenseActivationApplied(t *testing.T) {
	d := &Dense{
		W:   tensor.FromSlice([]float32{-1}, 1, 1),
		B:   tensor.New(1),
		Act: tensor.ReLU,
	}
	out := d.Forward(tensor.Serial, tensor.FromSlice([]float32{5}, 1, 1))
	if out.At(0, 0) != 0 {
		t.Fatalf("ReLU not applied: %v", out)
	}
}

func TestDenseRejectsBadRank(t *testing.T) {
	d := NewDense(rand.New(rand.NewSource(1)), 3, 2, tensor.Identity)
	defer func() {
		if recover() == nil {
			t.Fatal("Dense.Forward with rank-3 input did not panic")
		}
	}()
	d.Forward(tensor.Serial, tensor.New(1, 3, 1))
}

func TestNewDenseXavierRange(t *testing.T) {
	d := NewDense(rand.New(rand.NewSource(2)), 100, 50, tensor.ReLU)
	if d.In() != 100 || d.Out() != 50 {
		t.Fatalf("fan in/out = %d/%d", d.In(), d.Out())
	}
	limit := float32(0.3) // sqrt(6/150) ≈ 0.2
	nonZero := 0
	for _, v := range d.W.Data() {
		if v < -limit || v > limit {
			t.Fatalf("weight %g outside Xavier bound", v)
		}
		if v != 0 {
			nonZero++
		}
	}
	if nonZero == 0 {
		t.Fatal("weights all zero")
	}
	for _, v := range d.B.Data() {
		if v != 0 {
			t.Fatal("bias should initialise to zero")
		}
	}
}

func TestDenseAccounting(t *testing.T) {
	d := NewDense(rand.New(rand.NewSource(3)), 10, 5, tensor.ReLU)
	// 2*10 MACs + 1 bias per neuron + relu per neuron = (21+1)*5.
	if got := d.FlopsPerSample([]int{10}); got != 21*5+5 {
		t.Fatalf("FlopsPerSample = %d", got)
	}
	if got := d.ParamBytes(); got != (10*5+5)*4 {
		t.Fatalf("ParamBytes = %d", got)
	}
	if got := d.OutputShape([]int{10}); len(got) != 1 || got[0] != 5 {
		t.Fatalf("OutputShape = %v", got)
	}
}

func TestConvForwardShapeAndAccounting(t *testing.T) {
	c := NewConvPad(rand.New(rand.NewSource(4)), 3, 8, 3, 0, tensor.ReLU)
	in := tensor.New(2, 3, 10, 10)
	out := c.Forward(tensor.Serial, in)
	want := []int{2, 8, 8, 8}
	for i, d := range want {
		if out.Dim(i) != d {
			t.Fatalf("Conv output shape %v, want %v", out.Shape(), want)
		}
	}
	shape := c.OutputShape([]int{3, 10, 10})
	if shape[0] != 8 || shape[1] != 8 || shape[2] != 8 {
		t.Fatalf("OutputShape = %v", shape)
	}
	// MACs: 8*8*8 outputs × 3*3*3 window; ×2 plus bias+relu per element.
	macs := int64(8*8*8) * 27
	elems := int64(8 * 8 * 8)
	if got := c.FlopsPerSample([]int{3, 10, 10}); got != 2*macs+2*elems {
		t.Fatalf("FlopsPerSample = %d, want %d", got, 2*macs+2*elems)
	}
	if got := c.ParamBytes(); got != (8*3*3*3+8)*4 {
		t.Fatalf("ParamBytes = %d", got)
	}
}

// A Conv holding non-square filters must report the shape Forward
// produces: OutputShape once used the filter height for both axes.
func TestConvOutputShapeMatchesForwardForNonSquareFilters(t *testing.T) {
	for _, k := range [][2]int{{2, 3}, {3, 2}} {
		for _, pad := range []int{0, 1} {
			c := &Conv{Filters: tensor.New(4, 3, k[0], k[1]), Bias: tensor.New(4), Act: tensor.ReLU, Pad: pad}
			got := c.OutputShape([]int{3, 7, 9})
			out := c.Forward(tensor.Serial, tensor.New(2, 3, 7, 9))
			if want := out.Shape()[1:]; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
				t.Errorf("%dx%d filters, pad %d: OutputShape = %v, Forward produces %v", k[0], k[1], pad, got, want)
			}
			if want := fmt.Sprintf("conv(%dx%dx3→4,relu)", k[0], k[1]); c.Name() != want {
				t.Errorf("Name = %q, want %q", c.Name(), want)
			}
		}
	}
}

func TestConvReLUClampsNegatives(t *testing.T) {
	c := NewConvPad(rand.New(rand.NewSource(5)), 1, 1, 1, 0, tensor.ReLU)
	c.Filters.Data()[0] = -1
	in := tensor.New(1, 1, 2, 2)
	in.Fill(1)
	out := c.Forward(tensor.Serial, in)
	for _, v := range out.Data() {
		if v != 0 {
			t.Fatalf("conv relu output %v", out)
		}
	}
}

func TestMaxPoolLayer(t *testing.T) {
	p := &MaxPool{K: 2}
	in := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	out := p.Forward(tensor.Serial, in)
	if out.Len() != 1 || out.Data()[0] != 4 {
		t.Fatalf("MaxPool output %v", out)
	}
	if got := p.OutputShape([]int{1, 2, 2}); got[1] != 1 || got[2] != 1 {
		t.Fatalf("OutputShape = %v", got)
	}
	if p.ParamBytes() != 0 {
		t.Fatal("pooling has no parameters")
	}
	if p.FlopsPerSample([]int{1, 4, 4}) != 2*2*2*2 {
		t.Fatalf("FlopsPerSample = %d", p.FlopsPerSample([]int{1, 4, 4}))
	}
}

func TestFlattenLayer(t *testing.T) {
	f := Flatten{}
	in := tensor.New(3, 2, 4, 4)
	out := f.Forward(tensor.Serial, in)
	if out.Dim(0) != 3 || out.Dim(1) != 32 {
		t.Fatalf("Flatten output shape %v", out.Shape())
	}
	if got := f.OutputShape([]int{2, 4, 4}); got[0] != 32 {
		t.Fatalf("OutputShape = %v", got)
	}
	if f.FlopsPerSample([]int{2, 4, 4}) != 0 || f.ParamBytes() != 0 {
		t.Fatal("flatten should be free")
	}
}

func TestFlattenForwardIntoCopiesInOrder(t *testing.T) {
	in := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8}, 2, 1, 2, 2)
	out := tensor.New(2, 4)
	Flatten{}.ForwardInto(tensor.Serial, in, out)
	if !out.Equal(Flatten{}.Forward(tensor.Serial, in)) {
		t.Fatalf("ForwardInto = %v", out)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a flatten into the wrong volume was accepted")
		}
	}()
	Flatten{}.ForwardInto(tensor.Serial, in, tensor.New(2, 3))
}

func TestLayerNames(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, c := range []struct {
		layer Layer
		want  string
	}{
		{NewDense(rng, 4, 6, tensor.ReLU), "dense(4→6,relu)"},
		{NewConvPad(rng, 1, 32, 3, 0, tensor.ReLU), "conv(3x3x1→32,relu)"},
		{&MaxPool{K: 2}, "maxpool(2x2)"},
		{Flatten{}, "flatten"},
	} {
		if got := c.layer.Name(); got != c.want {
			t.Fatalf("Name = %q, want %q", got, c.want)
		}
	}
}
