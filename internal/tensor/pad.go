package tensor

import "fmt"

// Pad2D returns a copy of input [batch, C, H, W] with pad rows/columns of
// zeros added on every spatial side, producing [batch, C, H+2p, W+2p].
// pad = 0 returns the input unchanged (no copy).
func Pad2D(input *Tensor, pad int) *Tensor {
	if input.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Pad2D needs rank-4 input, got %v", input.Shape()))
	}
	if pad < 0 {
		panic("tensor: Pad2D padding must be non-negative")
	}
	if pad == 0 {
		return input
	}
	out := New(input.Dim(0), input.Dim(1), input.Dim(2)+2*pad, input.Dim(3)+2*pad)
	Pad2DInto(out, input)
	return out
}

// Pad2DInto copies input [batch, C, H, W] into the interior of out
// [batch, C, H+2p, W+2p], which the caller owns, and leaves the border
// as it is: zeros the caller wrote once stay zeros.
func Pad2DInto(out, input *Tensor) {
	if input.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Pad2D needs rank-4 input, got %v", input.Shape()))
	}
	batch, ch, h, w := input.Dim(0), input.Dim(1), input.Dim(2), input.Dim(3)
	checkInterior("Pad2DInto", out, batch, ch, h, w)
	ph, pw := out.Dim(2), out.Dim(3)
	pad := (pw - w) / 2
	in, od := input.data, out.data
	for p := 0; p < batch*ch; p++ {
		src := in[p*h*w:]
		dst := od[p*ph*pw:]
		for y := 0; y < h; y++ {
			copy(dst[(y+pad)*pw+pad:(y+pad)*pw+pad+w], src[y*w:(y+1)*w])
		}
	}
}
