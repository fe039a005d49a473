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
// It is Conv2DAct with the Identity activation.
func Conv2D(pool *Pool, input, filters, bias *Tensor) *Tensor {
	return Conv2DAct(pool, input, filters, bias, Identity)
}

// Conv2DAct computes the convolution layer out = act(Conv2D(input,
// filters) + bias), with the shapes documented on Conv2D: a new tensor,
// then ConvPoolInto with a pooling window of 1.
func Conv2DAct(pool *Pool, input, filters, bias *Tensor, act Activation) *Tensor {
	batch, outC, outH, outW := convDims(input, filters, bias, 1)
	out := New(batch, outC, outH, outW)
	ConvPoolInto(pool, out, input, filters, bias, act, 1)
	return out
}

// ConvPoolInto computes a convolution block into out, which the caller
// owns: out = MaxPool2D(act(Conv2D(input, filters) + bias), k), where
// k = 1 is the convolution layer alone. The full-resolution map is never
// stored: each pooled element is the scan of its k×k window of
// convolution outputs, computed, activated and compared one after the
// other.
//
// out is [batch, outC, outH/k + 2p, outW/k + 2p] for any border p ≥ 0:
// the interior is overwritten and the border is never touched, so a
// caller that keeps out as the zero-padded input of the next convolution
// pays for no padding copy.
//
// This is the paper's CNN kernel: a work-item is one convolution output
// element, batch·outC·outH·outW of them. They are split along (sample,
// filter) into groups of GroupSize/(outH·outW) filters of one sample, in
// whole tiles of four and at least one tile, so no output element is
// shared between workers and a group never spans two samples. A call
// small enough for Pool.inline runs on the caller.
//
// Every convolution output is one float32 accumulator: the bias, then
// += in·w over the input channel, the filter row and the filter column,
// each ascending; then the activation; then MaxPool2D's scan, in which
// a window's first element seeds and a later one wins only if greater.
// The result is the same to the bit on every pool, and the same as
// Conv2DAct followed by MaxPool2D. Speed comes from keeping four
// filters' accumulators in flight against one input window, never from
// splitting or reordering a sum; zero taps are not skipped, so 0·Inf
// yields NaN. Softmax, which needs rank-2 rows, panics as it does in
// Apply.
//
// Where the host and the shape allow (vectorConv) the same accumulators
// sit eight output columns to a vector register, eight filters in
// flight, and the groups are whole tiles of eight; convFilters below is
// what that path is held to.
func ConvPoolInto(pool *Pool, out, input, filters, bias *Tensor, act Activation, k int) {
	batch, outC, pH, pW := convDims(input, filters, bias, k)
	checkInterior("ConvPoolInto", out, batch, outC, pH, pW)
	if act == Softmax {
		act.Apply(pool, out) // rank 4: panics, as Conv2D followed by Apply does
	}
	convH, convW := input.Dim(2)-filters.Dim(2)+1, input.Dim(3)-filters.Dim(3)+1
	kernel, tile := convFilters, 4
	if vectorConv(convW, outC, filters.Dim(1)*filters.Dim(2)*filters.Dim(3), k, act) {
		kernel, tile = convFiltersVec, vecTile
	}
	if pool.inline(batch * outC * convH * convW) {
		for b := 0; b < batch; b++ {
			kernel(out, input, filters, bias, act, k, b, 0, outC) // no closure: an inline call allocates nothing
		}
		return
	}
	per := pool.perGroup(convH*convW, tile)
	perSample := (outC + per - 1) / per // groups per sample
	pool.forGroups(batch*perSample, 1, func(lo, hi int) {
		for g := lo; g < hi; g++ {
			first := g % perSample * per
			kernel(out, input, filters, bias, act, k, g/perSample, first, min(first+per, outC))
		}
	})
}

// convDims checks a convolution block's operands and returns the shape
// of its result, pooled by k.
func convDims(input, filters, bias *Tensor, k int) (batch, outC, outH, outW int) {
	if input.Rank() != 4 || filters.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Conv2D needs rank-4 input and filters, got %v, %v", input.Shape(), filters.Shape()))
	}
	batch, inC, inH, inW := input.Dim(0), input.Dim(1), input.Dim(2), input.Dim(3)
	outC, fc, kH, kW := filters.Dim(0), filters.Dim(1), filters.Dim(2), filters.Dim(3)
	if fc != inC {
		panic(fmt.Sprintf("tensor: Conv2D channel mismatch: input %d, filters %d", inC, fc))
	}
	if inH < kH || inW < kW {
		panic(fmt.Sprintf("tensor: Conv2D filter %dx%d larger than input %dx%d", kH, kW, inH, inW))
	}
	if bias != nil && (bias.Rank() != 1 || bias.Dim(0) != outC) {
		panic(fmt.Sprintf("tensor: Conv2D bias shape %v, want [%d]", bias.Shape(), outC))
	}
	if k <= 0 {
		panic("tensor: MaxPool2D window must be positive")
	}
	outH, outW = (inH-kH+1)/k, (inW-kW+1)/k
	if outH == 0 || outW == 0 {
		panic(fmt.Sprintf("tensor: MaxPool2D window %d larger than input %dx%d", k, inH-kH+1, inW-kW+1))
	}
	return batch, outC, outH, outW
}

// checkInterior panics unless out is [batch, c, h+2p, w+2p] for some
// border p ≥ 0, the output shape of the write-into map kernels.
func checkInterior(kernel string, out *Tensor, batch, c, h, w int) {
	if out.Rank() == 4 && out.Dim(0) == batch && out.Dim(1) == c {
		if p := out.Dim(2) - h; p >= 0 && p%2 == 0 && out.Dim(3)-w == p {
			return
		}
	}
	panic(fmt.Sprintf("tensor: %s output shape %v, want [%d %d %d %d] plus an optional border", kernel, out.Shape(), batch, c, h, w))
}

// convFilters fills the interior of planes [lo, hi) of sample b of out:
// tiles of four filters sharing each input load, then one filter at a
// time for the (hi-lo) mod 4 left over.
func convFilters(out, in, filters, bias *Tensor, act Activation, k, b, lo, hi int) {
	inC, inW := in.shape[1], in.shape[3]
	kH, kW := filters.shape[2], filters.shape[3]
	outC, outW := out.shape[1], out.shape[3]
	pH, pW := (in.shape[2]-kH+1)/k, (inW-kW+1)/k
	inPlane, outPlane := in.shape[2]*inW, out.shape[2]*outW
	origin := (outW - pW) / 2 * (outW + 1) // the interior's first element
	fVol := inC * kH * kW
	src := in.data[b*inC*inPlane : (b+1)*inC*inPlane]
	fd := filters.data
	var bv, v [4]float32
	var m0, m1, m2, m3 float32 // the running maxima of the current pooling windows

	oc := lo
	for ; oc+4 <= hi; oc += 4 {
		f0 := fd[oc*fVol:][:fVol]
		f1 := fd[(oc+1)*fVol:][:fVol]
		f2 := fd[(oc+2)*fVol:][:fVol]
		f3 := fd[(oc+3)*fVol:][:fVol]
		if bias != nil {
			copy(bv[:], bias.data[oc:oc+4])
		}
		tile := out.data[(b*outC+oc)*outPlane : (b*outC+oc+4)*outPlane]
		d0, d1, d2, d3 := tile[:outPlane], tile[outPlane:2*outPlane], tile[2*outPlane:3*outPlane], tile[3*outPlane:]
		for py := 0; py < pH; py++ {
			for px := 0; px < pW; px++ {
				for wy := 0; wy < k; wy++ {
					for wx := 0; wx < k; wx++ {
						at := (py*k+wy)*inW + px*k + wx
						s0, s1, s2, s3 := bv[0], bv[1], bv[2], bv[3]
						p := 0
						for c := 0; c < inC; c++ {
							for fy := 0; fy < kH; fy++ {
								row := src[c*inPlane+fy*inW+at:][:kW]
								w0, w1, w2, w3 := f0[p:][:kW], f1[p:][:kW], f2[p:][:kW], f3[p:][:kW]
								for fx, x := range row {
									s0 += x * w0[fx]
									s1 += x * w1[fx]
									s2 += x * w2[fx]
									s3 += x * w3[fx]
								}
								p += kW
							}
						}
						if act == ReLU {
							s0, s1, s2, s3 = relu(s0), relu(s1), relu(s2), relu(s3)
						} else if act != Identity {
							v = [4]float32{s0, s1, s2, s3}
							act.elementwise(v[:])
							s0, s1, s2, s3 = v[0], v[1], v[2], v[3]
						}
						if wy|wx == 0 {
							m0, m1, m2, m3 = s0, s1, s2, s3
							continue
						}
						if s0 > m0 {
							m0 = s0
						}
						if s1 > m1 {
							m1 = s1
						}
						if s2 > m2 {
							m2 = s2
						}
						if s3 > m3 {
							m3 = s3
						}
					}
				}
				i := origin + py*outW + px
				d0[i], d1[i], d2[i], d3[i] = m0, m1, m2, m3
			}
		}
	}
	for ; oc < hi; oc++ {
		filt := fd[oc*fVol:][:fVol]
		var bias0 float32
		if bias != nil {
			bias0 = bias.data[oc]
		}
		dst := out.data[(b*outC+oc)*outPlane : (b*outC+oc+1)*outPlane]
		for py := 0; py < pH; py++ {
			for px := 0; px < pW; px++ {
				for wy := 0; wy < k; wy++ {
					for wx := 0; wx < k; wx++ {
						at := (py*k+wy)*inW + px*k + wx
						sum := bias0
						p := 0
						for c := 0; c < inC; c++ {
							for fy := 0; fy < kH; fy++ {
								row := src[c*inPlane+fy*inW+at:][:kW]
								w := filt[p:][:kW]
								for fx, x := range row {
									sum += x * w[fx]
								}
								p += kW
							}
						}
						v[0] = sum
						act.elementwise(v[:1])
						if wy|wx == 0 || v[0] > m0 {
							m0 = v[0]
						}
					}
				}
				dst[origin+py*outW+px] = m0
			}
		}
	}
}

// MaxPool2D applies non-overlapping max pooling with a square window of
// size k (stride k). Ragged borders are truncated, matching the paper's
// pooling layers.
//
//	input:  [batch, C, H, W]
//	output: [batch, C, H/k, W/k]
func MaxPool2D(pool *Pool, input *Tensor, k int) *Tensor {
	batch, ch, outH, outW := poolDims(input, k)
	out := New(batch, ch, outH, outW)
	MaxPool2DInto(pool, out, input, k)
	return out
}

// MaxPool2DInto is MaxPool2D writing into out, which the caller owns
// and which may carry a border the kernel leaves untouched, as
// ConvPoolInto's may.
func MaxPool2DInto(pool *Pool, out, input *Tensor, k int) {
	batch, ch, outH, outW := poolDims(input, k)
	checkInterior("MaxPool2DInto", out, batch, ch, outH, outW)
	if pool.inline(batch * ch * outH * outW) {
		maxPoolPlanes(out, input, k, 0, batch*ch)
		return
	}
	pool.forGroups(batch*ch, pool.perGroup(outH*outW, 1), func(lo, hi int) { maxPoolPlanes(out, input, k, lo, hi) })
}

// poolDims checks MaxPool2D's operands and returns the output shape.
func poolDims(input *Tensor, k int) (batch, ch, outH, outW int) {
	if input.Rank() != 4 {
		panic(fmt.Sprintf("tensor: MaxPool2D needs rank-4 input, got %v", input.Shape()))
	}
	if k <= 0 {
		panic("tensor: MaxPool2D window must be positive")
	}
	batch, ch, inH, inW := input.Dim(0), input.Dim(1), input.Dim(2), input.Dim(3)
	outH, outW = inH/k, inW/k
	if outH == 0 || outW == 0 {
		panic(fmt.Sprintf("tensor: MaxPool2D window %d larger than input %dx%d", k, inH, inW))
	}
	return batch, ch, outH, outW
}

// maxPoolPlanes fills the interior of (sample, channel) planes [lo, hi)
// of out.
func maxPoolPlanes(out, in *Tensor, k, lo, hi int) {
	inW, outW := in.shape[3], out.shape[3]
	pH, pW := in.shape[2]/k, inW/k
	inPlane, outPlane := in.shape[2]*inW, out.shape[2]*outW
	origin := (outW - pW) / 2 * (outW + 1) // the interior's first element
	for w := lo; w < hi; w++ {
		src := in.data[w*inPlane : (w+1)*inPlane]
		dst := out.data[w*outPlane : (w+1)*outPlane]
		for oy := 0; oy < pH; oy++ {
			for ox := 0; ox < pW; ox++ {
				best := src[oy*k*inW+ox*k]
				for fy := 0; fy < k; fy++ {
					row := src[(oy*k+fy)*inW+ox*k:]
					for fx := 0; fx < k; fx++ {
						if row[fx] > best {
							best = row[fx]
						}
					}
				}
				dst[origin+oy*outW+ox] = best
			}
		}
	}
}
