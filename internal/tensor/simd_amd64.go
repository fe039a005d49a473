package tensor

// The assembly in simd_amd64.s. A kernel is reached only through the Go
// wrapper below it, which indexes the last element of every extent the
// kernel loads or stores — against the slice's length, not its capacity:
// an arena buffer is longer than the batch using it — before taking a
// pointer; a kernel never reads past what its wrapper checked to spare
// itself a tail case.

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax uint32)

// probeAVX2 reports whether the vector kernels may run and agree with
// the Go ones: the CPU has AVX2, the OS saves the YMM state, and the Go
// kernels of this build do not fuse (goKernelsFuse).
func probeAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx, avx2 = 1 << 27, 1 << 28, 1 << 5
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xgetbv0()&6 != 6 { // XMM and YMM state enabled in XCR0
		return false
	}
	if _, ebx, _, _ := cpuid(7, 0); ebx&avx2 == 0 {
		return false
	}
	return !goKernelsFuse()
}

// linearTileAVX2 loads panel[0 : 8k·panels], the cols rows
// w[t·wStride/4 : t·wStride/4 + k] and, unless nil, bias[0 : cols]; it
// stores the 8·panels rows dst[l·dstStride/4 : l·dstStride/4 + cols].
// k, panels ≥ 1, 1 ≤ cols ≤ 8.
//
//go:noescape
func linearTileAVX2(dst *float32, dstStride uintptr, panel, w *float32, wStride, k uintptr, bias *float32, relu, cols, panels uintptr)

// linearTile fills out[i : i+8·panels][j : j+cols], cols ≤ 8, of a
// Linear whose out is [·, n] and w [·, k]: neurons j…j+cols-1 against
// the samples packed in panel, eight to a panel. bias is nil or the
// layer's.
func linearTile(out []float32, i, j, cols, n int, panel, w []float32, k int, bias []float32, relu bool, panels int) {
	if k < 1 || panels < 1 || i < 0 || j < 0 || cols < 1 || cols > vecTile || j+cols > n {
		panic("tensor: linearTile outside its operands")
	}
	dst := i*n + j
	_, _, _ = out[dst+(vecTile*panels-1)*n+cols-1], panel[vecTile*k*panels-1], w[(j+cols)*k-1]
	var b *float32
	if bias != nil {
		_ = bias[j+cols-1]
		b = &bias[j]
	}
	linearTileAVX2(&out[dst], uintptr(n)*4, &panel[0], &w[j*k], uintptr(k)*4, uintptr(k), b, word(relu), uintptr(cols), uintptr(panels))
}

// neuronTileAVX2 loads x[0 : 4·blocks] and the eight rows
// w[t·wStride/4 : t·wStride/4 + 4·blocks]; it stores dst[0 : 8].
// blocks ≥ 1.
//
//go:noescape
func neuronTileAVX2(dst, x, w *float32, wStride, blocks uintptr)

// neuronTile sets dst[t], t < 8, to the sum over p < 4⌊k/4⌋ of
// x[p]·w[(j+t)·k + p], p ascending: neurons j…j+7 of a Linear whose w is
// [·, k] against the sample x, the first four-input blocks of each dot
// product.
func neuronTile(dst, x, w []float32, j, k int) {
	blocks := k / 4
	if blocks < 1 || j < 0 {
		panic("tensor: neuronTile outside its operands")
	}
	_, _, _ = dst[vecTile-1], x[4*blocks-1], w[(j+vecTile-1)*k+4*blocks-1]
	neuronTileAVX2(&dst[0], &x[0], &w[j*k], uintptr(k)*4, uintptr(blocks))
}

// packTileAVX2 loads the 8·panels rows in[l·inStride/4 : l·inStride/4
// + cols] and stores panel[q·panelStride/4 : q·panelStride/4 + 8·cols]
// for q < panels. 1 ≤ cols ≤ 8, panels ≥ 1.
//
//go:noescape
func packTileAVX2(panel, in *float32, inStride, cols, panelStride, panels uintptr)

// packTile transposes in[i : i+8·panels][p : p+cols], cols ≤ 8, of a
// batch [·, k] into panel[q·8k + 8p : q·8k + 8(p+cols)], eight samples
// to each of the panels q.
func packTile(panel, in []float32, i, p, cols, k, panels int) {
	if i < 0 || p < 0 || panels < 1 || cols < 1 || cols > vecTile || p+cols > k {
		panic("tensor: packTile outside its operands")
	}
	_, _ = panel[(panels-1)*vecTile*k+vecTile*(p+cols)-1], in[(i+vecTile*panels-1)*k+p+cols-1]
	packTileAVX2(&panel[vecTile*p], &in[i*k+p], uintptr(k)*4, uintptr(cols), uintptr(vecTile*k)*4, uintptr(panels))
}

// convPoolRowAVX2 loads, for every channel c < inC, rows 0 … window+kH-2
// and columns 0 … cols·window+kW-2 of the plane at in + c·inPlane (rows
// inW apart), the eight filters f[t·fVol/4 : t·fVol/4 + inC·kH·kW] and,
// unless nil, bias[0 : 8]; it stores dst[t·dstPlane/4 : t·dstPlane/4 +
// cols] for t < 8. window is 1 or 2, cols·window ≥ 8, inC, kH, kW ≥ 1.
//
//go:noescape
func convPoolRowAVX2(dst *float32, dstPlane uintptr, in *float32, inW, inPlane, inC uintptr, f *float32, fVol, kH, kW uintptr, bias *float32, cols, window, relu uintptr)

// convPoolRow fills one row of cols pooled outputs in each of the eight
// planes that start at out[dst], outPlane apart, for filters oc…oc+7:
// the window×window max-pool of the convolution rows whose input window
// starts at in[src], for an input of inC planes of inPlane elements in
// rows of inW.
func convPoolRow(out []float32, dst, outPlane int, in []float32, src, inW, inPlane, inC int, f []float32, oc, kH, kW int, bias []float32, cols, window int, relu bool) {
	if inC < 1 || kH < 1 || kW < 1 || window < 1 || window > 2 || cols*window < vecTile || cols*window+kW-1 > inW || dst < 0 || src < 0 || oc < 0 {
		panic("tensor: convPoolRow outside its operands")
	}
	fVol := inC * kH * kW
	_, _, _ = out[dst+(vecTile-1)*outPlane+cols-1], in[src+(inC-1)*inPlane+(window+kH-2)*inW+cols*window+kW-2], f[(oc+vecTile)*fVol-1]
	var b *float32
	if bias != nil {
		_ = bias[oc+vecTile-1]
		b = &bias[oc]
	}
	convPoolRowAVX2(&out[dst], uintptr(outPlane)*4, &in[src], uintptr(inW)*4, uintptr(inPlane)*4, uintptr(inC),
		&f[oc*fVol], uintptr(fVol)*4, uintptr(kH), uintptr(kW), b, uintptr(cols), uintptr(window), word(relu))
}

// word is a bool as the kernels take it.
func word(b bool) uintptr {
	if b {
		return 1
	}
	return 0
}
