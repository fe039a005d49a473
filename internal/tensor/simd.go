package tensor

// The drivers of the vector kernels: Linear and ConvPoolInto tiled onto
// micro-kernels whose eight float32 lanes are adjacent work-items —
// samples in Linear from eight samples up, neurons below that, output
// columns in ConvPoolInto (DESIGN.md §4 item 10). vectorLinear,
// neuronLanes and vectorConv (pool.go) decide who comes here; the Go
// kernels in linear.go and conv.go are the reference these are held to,
// bit for bit, and the only path where useAVX2 is false.

// vecTile is the edge of a micro-kernel tile: the float32 lanes of a YMM
// register, and the neurons or filters whose accumulators share one
// load of the lanes' input.
const vecTile = 8

// useAVX2 is the CPU probe's answer, read by the dispatch rule alone.
var useAVX2 = probeAVX2()

// goKernelsFuse reports whether this build's compiler contracts the Go
// kernels' s += x*w into a fused multiply-add (GOAMD64=v3 permits it;
// go1.24 fuses only math.FMA on amd64), which rounds once where the
// vector kernels' VMULPS and VADDPS round twice.
// (1+2⁻¹²)² is 1 + 2⁻¹¹ + 2⁻²⁴, which rounds to 1 + 2⁻¹¹: the sum is
// zero unless the product went into the add unrounded.
func goKernelsFuse() bool {
	return mulAdd(-(1+1.0/2048), 1+1.0/4096, 1+1.0/4096) != 0
}

//go:noinline
func mulAdd(s, x, w float32) float32 {
	s += x * w
	return s
}

// KernelISA names the instruction set Linear and ConvPoolInto run their
// large shapes on in this process: "avx2", or "portable" for the Go
// kernels alone.
func KernelISA() string {
	if useAVX2 {
		return "avx2"
	}
	return "portable"
}

// LinearPanelLen returns how many float32 of scratch LinearPanelInto
// wants for in [m,k] and w [n,k]: the batch packed into ⌈m/8⌉ panels of
// [k][8] where the sample-lane kernel runs, else 0.
func LinearPanelLen(m, k, n int) int {
	if !vectorLinear(m, k, n) {
		return 0
	}
	return (m + vecTile - 1) / vecTile * vecTile * k
}

// packPanels lays the batch in [m,k] out for the vector kernel: panel q
// holds samples 8q…8q+7 — the last one m-8…m-1, overlapping the one
// before it when 8 does not divide m — as [k][8], a sample per lane.
// Features go eight at a time through every whole panel, the k mod 8
// left over in one narrower transpose.
func packPanels(panel, in []float32, m, k int) {
	whole := m / vecTile
	for p := 0; p < k; p += vecTile {
		cols := min(vecTile, k-p)
		if whole > 0 {
			packTile(panel, in, 0, p, cols, k, whole)
		}
		if m%vecTile != 0 {
			packTile(panel[whole*vecTile*k:], in, m-vecTile, p, cols, k, 1)
		}
	}
}

// tileSteps bounds one sample-lane kernel call: it runs as many panels
// as keep it near this many steps (p values), and always at least one.
// The runtime cannot preempt assembly, so a call stays short (DESIGN.md
// §4 item 10); a narrow, shallow layer takes all its panels in one.
const tileSteps = 1024

// linearGroup fills columns [lo, hi) of out. With a packed batch it
// tiles them onto the sample-lane kernel: eight neurons at a time, the
// last tile pulled back to end at hi, each against every panel; a range
// of fewer than eight neurons — a narrow layer, or the tail group of a
// split — is one tile that stores only its own columns. Under eight
// samples, where neuronLanes admits the layer, tiles of eight go to the
// neuron-lane kernel instead (linearNeuronTiles). Otherwise it is
// linearNeurons.
func linearGroup(out, in, w, bias *Tensor, act Activation, panel []float32, lo, hi int) {
	m, k, n := in.shape[0], in.shape[1], w.shape[0]
	if hi-lo >= vecTile && neuronLanes(m, k, n) {
		linearNeuronTiles(out, in, w, bias, act, lo, hi)
		return
	}
	if panel == nil {
		linearNeurons(out, in, w, bias, act, lo, hi)
		return
	}
	var bv []float32
	if bias != nil {
		bv = bias.data
	}
	cols, whole, run := min(vecTile, hi-lo), m/vecTile, max(tileSteps/k, 1)
	for j := lo; j < hi; j += vecTile {
		j := min(j, hi-cols)
		for q := 0; q < whole; q += run {
			panels := min(run, whole-q)
			linearTile(out.data, q*vecTile, j, cols, n, panel[q*vecTile*k:(q+panels)*vecTile*k], w.data, k, bv, act == ReLU, panels)
		}
		if m%vecTile != 0 {
			linearTile(out.data, m-vecTile, j, cols, n, panel[whole*vecTile*k:(whole+1)*vecTile*k], w.data, k, bv, act == ReLU, 1)
		}
	}
	if act == Tanh || act == Sigmoid {
		for i := 0; i < m; i++ {
			act.elementwise(out.data[i*n+lo : i*n+hi])
		}
	}
}

// linearNeuronTiles fills columns [lo, hi), at least eight, of out a
// neuron per lane: eight neurons at a time, the last tile pulled back to
// end at hi, each against every sample row while its weights are in L1.
// The kernel sums each dot product's four-input blocks and this finishes
// the k mod 4 terms in the same order and roundings, then — as
// linearNeurons does, over each row's segment — bias and activation.
func linearNeuronTiles(out, in, w, bias *Tensor, act Activation, lo, hi int) {
	m, k, n := in.shape[0], in.shape[1], w.shape[0]
	body := k &^ 3
	for j := lo; j < hi; j += vecTile {
		j := min(j, hi-vecTile)
		for i := 0; i < m; i++ {
			x, dst := in.data[i*k:(i+1)*k], out.data[i*n+j:i*n+j+vecTile]
			neuronTile(dst, x, w.data, j, k)
			for t := range dst {
				s := dst[t]
				for p, v := range x[body:] {
					s += v * w.data[(j+t)*k+body+p]
				}
				dst[t] = s
			}
		}
	}
	for i := 0; i < m; i++ {
		seg := out.data[i*n+lo : i*n+hi]
		if bias != nil {
			for x, b := range bias.data[lo:hi] {
				seg[x] += b
			}
		}
		act.elementwise(seg)
	}
}

// convFiltersVec is convFilters over the vector kernel, for the blocks
// vectorConv admits: tiles of eight filters, the last one pulled
// back to end at hi, one pooled row per call. Fewer than eight filters
// — the tail group of a split — go to the Go kernel.
func convFiltersVec(out, in, filters, bias *Tensor, act Activation, k, b, lo, hi int) {
	if hi-lo < vecTile {
		convFilters(out, in, filters, bias, act, k, b, lo, hi)
		return
	}
	inC, inW := in.shape[1], in.shape[3]
	kH, kW := filters.shape[2], filters.shape[3]
	outC, outW := out.shape[1], out.shape[3]
	pH, pW := (in.shape[2]-kH+1)/k, (inW-kW+1)/k
	inPlane, outPlane := in.shape[2]*inW, out.shape[2]*outW
	origin := (outW - pW) / 2 * (outW + 1) // the interior's first element
	var bv []float32
	if bias != nil {
		bv = bias.data
	}
	for oc := lo; oc < hi; oc += vecTile {
		oc := min(oc, hi-vecTile)
		for py := 0; py < pH; py++ {
			convPoolRow(out.data, (b*outC+oc)*outPlane+origin+py*outW, outPlane,
				in.data, b*inC*inPlane+py*k*inW, inW, inPlane, inC,
				filters.data, oc, kH, kW, bv, pW, k, act == ReLU)
		}
	}
}
