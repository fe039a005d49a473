package tensor

import "fmt"

// Conv2D computes a batched 2-D cross-correlation ("valid" padding,
// stride 1), the convolution variant used by the paper's CNN kernels.
//
//	input:   [batch, inC, inH, inW]
//	filters: [outC, inC, kH, kW]
//	bias:    [outC] (may be nil)
//	output:  [batch, outC, outH, outW], outH = inH-kH+1, outW = inW-kW+1
//
// Work is partitioned over (batch × outC) slices, mirroring the paper's
// per-filter, per-sample OpenCL parallelisation.
func Conv2D(pool *Pool, input, filters, bias *Tensor) *Tensor {
	if input.Rank() != 4 || filters.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Conv2D needs rank-4 input and filters, got %v, %v", input.Shape(), filters.Shape()))
	}
	batch, inC, inH, inW := input.Dim(0), input.Dim(1), input.Dim(2), input.Dim(3)
	outC, fc, kH, kW := filters.Dim(0), filters.Dim(1), filters.Dim(2), filters.Dim(3)
	if fc != inC {
		panic(fmt.Sprintf("tensor: Conv2D channel mismatch: input %d, filters %d", inC, fc))
	}
	outH, outW := inH-kH+1, inW-kW+1
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("tensor: Conv2D filter %dx%d larger than input %dx%d", kH, kW, inH, inW))
	}
	if bias != nil && (bias.Rank() != 1 || bias.Dim(0) != outC) {
		panic(fmt.Sprintf("tensor: Conv2D bias shape %v, want [%d]", bias.Shape(), outC))
	}
	out := New(batch, outC, outH, outW)
	in, fd, od := input.data, filters.data, out.data

	inPlane := inH * inW
	inVol := inC * inPlane
	fPlane := kH * kW
	fVol := inC * fPlane
	outPlane := outH * outW
	outVol := outC * outPlane

	pool.For(batch*outC, func(lo, hi int) {
		for w := lo; w < hi; w++ {
			b, oc := w/outC, w%outC
			src := in[b*inVol : (b+1)*inVol]
			filt := fd[oc*fVol : (oc+1)*fVol]
			dst := od[b*outVol+oc*outPlane : b*outVol+(oc+1)*outPlane]
			var bv float32
			if bias != nil {
				bv = bias.data[oc]
			}
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					sum := bv
					for c := 0; c < inC; c++ {
						plane := src[c*inPlane:]
						ftab := filt[c*fPlane:]
						for fy := 0; fy < kH; fy++ {
							srow := plane[(oy+fy)*inW+ox:]
							frow := ftab[fy*kW:]
							for fx := 0; fx < kW; fx++ {
								sum += srow[fx] * frow[fx]
							}
						}
					}
					dst[oy*outW+ox] = sum
				}
			}
		}
	})
	return out
}

// MaxPool2D applies non-overlapping max pooling with a square window of
// size k (stride k). Ragged borders are truncated, matching the paper's
// pooling layers.
//
//	input:  [batch, C, H, W]
//	output: [batch, C, H/k, W/k]
func MaxPool2D(pool *Pool, input *Tensor, k int) *Tensor {
	if input.Rank() != 4 {
		panic(fmt.Sprintf("tensor: MaxPool2D needs rank-4 input, got %v", input.Shape()))
	}
	if k <= 0 {
		panic("tensor: MaxPool2D window must be positive")
	}
	batch, ch, inH, inW := input.Dim(0), input.Dim(1), input.Dim(2), input.Dim(3)
	outH, outW := inH/k, inW/k
	if outH == 0 || outW == 0 {
		panic(fmt.Sprintf("tensor: MaxPool2D window %d larger than input %dx%d", k, inH, inW))
	}
	out := New(batch, ch, outH, outW)
	in, od := input.data, out.data
	inPlane, outPlane := inH*inW, outH*outW

	pool.For(batch*ch, func(lo, hi int) {
		for w := lo; w < hi; w++ {
			src := in[w*inPlane : (w+1)*inPlane]
			dst := od[w*outPlane : (w+1)*outPlane]
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					best := src[oy*k*inW+ox*k]
					for fy := 0; fy < k; fy++ {
						row := src[(oy*k+fy)*inW+ox*k:]
						for fx := 0; fx < k; fx++ {
							if row[fx] > best {
								best = row[fx]
							}
						}
					}
					dst[oy*outW+ox] = best
				}
			}
		}
	})
	return out
}

// Im2Col unrolls convolution windows of input [batch, C, H, W] into a
// matrix of shape [batch*outH*outW, C*kH*kW], so that Conv2D can be
// expressed as a single MatMul against flattened filters. This is the
// classic GPU-friendly lowering; bomw uses it as the "column-major
// friendly" alternative the paper evaluated.
func Im2Col(input *Tensor, kH, kW int) *Tensor {
	if input.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Im2Col needs rank-4 input, got %v", input.Shape()))
	}
	batch, ch, inH, inW := input.Dim(0), input.Dim(1), input.Dim(2), input.Dim(3)
	outH, outW := inH-kH+1, inW-kW+1
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("tensor: Im2Col window %dx%d larger than input %dx%d", kH, kW, inH, inW))
	}
	cols := New(batch*outH*outW, ch*kH*kW)
	in, cd := input.data, cols.data
	inPlane := inH * inW
	inVol := ch * inPlane
	rowLen := ch * kH * kW

	r := 0
	for b := 0; b < batch; b++ {
		src := in[b*inVol : (b+1)*inVol]
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				dst := cd[r*rowLen : (r+1)*rowLen]
				p := 0
				for c := 0; c < ch; c++ {
					plane := src[c*inPlane:]
					for fy := 0; fy < kH; fy++ {
						copy(dst[p:p+kW], plane[(oy+fy)*inW+ox:])
						p += kW
					}
				}
				r++
			}
		}
	}
	return cols
}

// Conv2DIm2Col computes the same result as Conv2D via the im2col+matmul
// lowering. Used in tests as a cross-check and by benchmarks comparing
// the two data layouts.
func Conv2DIm2Col(pool *Pool, input, filters, bias *Tensor) *Tensor {
	batch := input.Dim(0)
	outC, kH, kW := filters.Dim(0), filters.Dim(2), filters.Dim(3)
	outH, outW := input.Dim(2)-kH+1, input.Dim(3)-kW+1
	cols := Im2Col(input, kH, kW)                  // [batch*outH*outW, C*kH*kW]
	w := filters.Reshape(outC, filters.Len()/outC) // [outC, C*kH*kW]
	prod := Linear(pool, cols, w, bias, Identity)  // [batch*outH*outW, outC]
	out := New(batch, outC, outH, outW)            // transpose back to NCHW
	plane := outH * outW
	for b := 0; b < batch; b++ {
		for i := 0; i < plane; i++ {
			row := prod.Row(b*plane + i)
			for oc, v := range row {
				out.data[b*outC*plane+oc*plane+i] = v
			}
		}
	}
	return out
}
