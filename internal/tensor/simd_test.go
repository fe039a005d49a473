package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The vector kernels are held to the Go kernels they stand in for: the
// same operands through linearNeurons / convFilters and through the
// dispatching entry points, compared bit for bit. Operands end at a
// page the process may not touch (guardedFloats), so a kernel that
// loads or stores one element past an extent dies on the spot, and
// start after a run of sentinels that must come back intact.

func skipWithoutVectorKernels(t testing.TB) {
	t.Helper()
	if !useAVX2 {
		t.Skipf("KernelISA() = %q: no vector kernels in this process, nothing to hold to the Go kernels", KernelISA())
	}
}

// sameKernelBits reports the first element where got and want differ:
// a NaN must meet a NaN (the payload is the hardware's), anything else
// the same bits.
func sameKernelBits(got, want []float32) (int, bool) {
	for i, w := range want {
		g := got[i]
		if w != w || g != g {
			if (w != w) != (g != g) {
				return i, false
			}
			continue
		}
		if math.Float32bits(g) != math.Float32bits(w) {
			return i, false
		}
	}
	return 0, true
}

const guardSentinel = -7.5

// A guarded is float32 storage that ends at an inaccessible page. tail
// hands out its last n elements; what lies before them holds
// guardSentinel, and intact reports whether it still does.
type guarded struct{ all []float32 }

func newGuarded(t testing.TB, floats int) *guarded {
	g := &guarded{all: guardedFloats(t, floats)}
	for i := range g.all {
		g.all[i] = guardSentinel
	}
	return g
}

func (g *guarded) tail(n int) []float32 {
	return g.all[len(g.all)-n:]
}

// intact checks the 64 elements before the last n, and restores the
// sentinel over the n for the next user.
func (g *guarded) intact(n int) bool {
	ok := true
	lo := len(g.all) - n
	for _, v := range g.all[max(lo-64, 0):lo] {
		ok = ok && v == guardSentinel
	}
	for i := range g.all[lo:] {
		g.all[lo+i] = guardSentinel
	}
	return ok
}

// tensorAt is FromSlice over the end of g.
func (g *guarded) tensorAt(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return FromSlice(g.tail(n), shape...)
}

// kernelOperands owns one guarded region per operand of a kernel call.
type kernelOperands struct {
	in, w, bias, out, panel *guarded
}

func newKernelOperands(t testing.TB, in, w, bias, out, panel int) *kernelOperands {
	return &kernelOperands{newGuarded(t, in+64), newGuarded(t, w+64), newGuarded(t, bias+64), newGuarded(t, out+64), newGuarded(t, panel+64)}
}

// checkIntact fails the case if anything was written before the start of
// an operand, given how many elements of each region the case used.
func (o *kernelOperands) checkIntact(t testing.TB, name string, in, w, bias, out, panel int) {
	t.Helper()
	for _, r := range []struct {
		what string
		g    *guarded
		used int
	}{{"the input", o.in, in}, {"the weights", o.w, w}, {"the bias", o.bias, bias}, {"the output", o.out, out}, {"the panel", o.panel, panel}} {
		if !r.g.intact(r.used) {
			t.Fatalf("%s: wrote before the start of %s", name, r.what)
		}
	}
}

var negZero = float32(math.Copysign(0, -1))

// fillOperand draws values with exact zeros and negatives among them;
// with specials, about one in sixteen is -0, ±Inf or NaN.
func fillOperand(rng *rand.Rand, d []float32, specials bool) {
	for i := range d {
		switch r := rng.Intn(16); {
		case r == 0 && specials:
			d[i] = [...]float32{negZero, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}[rng.Intn(4)]
		case r < 3:
			d[i] = 0
		default:
			d[i] = float32(rng.NormFloat64())
		}
	}
}

var kernelPools = []*Pool{Serial, NewPool(2, 64), NewPool(2, 256), NewPool(3, 4096)}

// linearCase runs one Linear through the Go kernel and through
// LinearPanelInto on pool, and compares.
func linearCase(t testing.TB, ops *kernelOperands, rng *rand.Rand, pool *Pool, m, k, n int, withBias bool, act Activation, specials bool) {
	t.Helper()
	in, w := ops.in.tensorAt(m, k), ops.w.tensorAt(n, k)
	fillOperand(rng, in.data, specials)
	fillOperand(rng, w.data, specials)
	var bias *Tensor
	if withBias {
		bias = ops.bias.tensorAt(n)
		fillOperand(rng, bias.data, specials)
	}
	want := New(m, n)
	linearNeurons(want, in, w, bias, act, 0, n)
	if act == Softmax { // linearNeurons applies the element-wise ones itself
		act.Apply(Serial, want)
	}

	out := ops.out.tensorAt(m, n)
	panel := ops.panel.tail(LinearPanelLen(m, k, n))
	LinearPanelInto(pool, out, in, w, bias, act, panel)
	name := fmt.Sprintf("Linear m=%d k=%d n=%d bias=%v %s specials=%v on pool(%d,%d)", m, k, n, withBias, act, specials, pool.Workers(), pool.GroupSize())
	if i, ok := sameKernelBits(out.data, want.data); !ok {
		t.Fatalf("%s: element %d is %v (%#x), the Go kernel's %v (%#x)", name, i, out.data[i], math.Float32bits(out.data[i]), want.data[i], math.Float32bits(want.data[i]))
	}
	biasLen := 0
	if withBias {
		biasLen = n
	}
	ops.checkIntact(t, name, m*k, n*k, biasLen, m*n, len(panel))
}

func TestLinearVectorKernelBitIdenticalToGoKernel(t *testing.T) {
	skipWithoutVectorKernels(t)
	rng := rand.New(rand.NewSource(19))
	ops := newKernelOperands(t, 40*70, 20*70, 20, 40*20, 40*70)
	// Every m, k and n of these ranges; bias, activation, pool and special
	// values rotate through the shapes, coprime with their counts, so every
	// combination meets every tile tail and every k mod 4 of the neuron
	// lanes. Under eight samples every shape runs, whichever kernel it
	// takes.
	idx := 0
	for m := 1; m <= 40; m++ {
		for k := 1; k <= 70; k++ {
			for n := 1; n <= 20; n++ {
				if m >= vecTile && !vectorLinear(m, k, n) && idx%16 != 0 {
					idx++
					continue // the Go kernel against itself: a sample is enough
				}
				linearCase(t, ops, rng, kernelPools[idx%4], m, k, n, idx%3 != 0, allActivations[idx%5], idx%7 == 0)
				idx++
			}
		}
	}
	// The benchmark's layers, ragged batches around them; mnist-small's
	// three at every batch the neuron lanes take.
	big := newKernelOperands(t, 65*800, 800*784, 800, 65*800, 72*800)
	for _, m := range []int{8, 17, 64, 65} {
		for i, pool := range kernelPools {
			linearCase(t, big, rng, pool, m, 784, 800, true, ReLU, false)
			linearCase(t, big, rng, pool, m, 800, 10, i%2 == 0, Softmax, false)
		}
	}
	for m := 1; m < vecTile; m++ {
		for _, pool := range kernelPools {
			linearCase(t, big, rng, pool, m, 784, 784, true, ReLU, false)
			linearCase(t, big, rng, pool, m, 784, 800, true, ReLU, false)
			linearCase(t, big, rng, pool, m, 800, 10, true, Softmax, false)
		}
	}
	// The narrow tile on -0, ±Inf and NaN: layers under eight neurons
	// (the masked store, the aliased rows), under every activation, and
	// layers whose split leaves a last group under eight neurons beside
	// a full tile's.
	for _, m := range []int{8, 9, 64, 65} {
		for _, k := range []int{1, 4, 9} {
			for _, n := range []int{1, 3, 7} {
				for _, act := range allActivations {
					linearCase(t, big, rng, kernelPools[(m+k+n)%4], m, k, n, true, act, true)
					linearCase(t, big, rng, kernelPools[(m+k)%4], m, k, n, false, act, true)
				}
			}
		}
	}
	for _, s := range narrowSplits {
		for _, act := range allActivations {
			linearCase(t, big, rng, kernelPools[s.pool], s.m, s.k, s.n, true, act, true)
		}
	}
}

// narrowSplits are layers of eight neurons or more that a pool splits
// into groups of whole tiles and a last group under eight neurons.
var narrowSplits = []struct{ m, k, n, pool int }{
	{64, 9, 13, 1},  // pool(2,64): groups of 8, the last 5 wide
	{65, 4, 20, 2},  // pool(2,256): groups of 8, the last 4 wide
	{64, 33, 15, 1}, // pool(2,64): the last group 7 wide
}

func FuzzLinearKernels(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(64), uint8(8), uint8(1), uint8(0))
	f.Add(int64(4), uint8(0), uint8(98), uint8(12), uint8(1), uint8(7))
	f.Add(int64(2), uint8(17), uint8(33), uint8(19), uint8(4), uint8(7))
	f.Add(int64(3), uint8(40), uint8(70), uint8(20), uint8(2), uint8(2))
	// Under eight neurons: eight-sample blocks, with rows left over or not.
	f.Add(int64(5), uint8(63), uint8(3), uint8(5), uint8(1), uint8(1))
	f.Add(int64(6), uint8(8), uint8(5), uint8(2), uint8(3), uint8(7))
	f.Add(int64(7), uint8(16), uint8(0), uint8(6), uint8(4), uint8(5))
	// The narrow tile: m 8, 9, 64, 65 against n 1, 3, 7 and k 1, 4, 9,
	// bias, special values and pool rotating; then splits that leave a
	// last group under eight neurons.
	idx := 0
	for _, m := range []int{8, 9, 64, 65} {
		for _, n := range []int{1, 3, 7} {
			for _, k := range []int{1, 4, 9} {
				f.Add(int64(8+idx), uint8(m-1), uint8(k-1), uint8(n-1), uint8(idx), uint8(idx%16))
				idx++
			}
		}
	}
	for i, s := range narrowSplits {
		f.Add(int64(100+i), uint8(s.m-1), uint8(s.k-1), uint8(s.n-1), uint8(i), uint8(s.pool<<2|3))
	}
	ops := newKernelOperands(f, 72*128, 64*128, 64, 72*64, 72*128)
	f.Fuzz(func(t *testing.T, seed int64, m, k, n, act, flags uint8) {
		skipWithoutVectorKernels(t)
		rng := rand.New(rand.NewSource(seed))
		linearCase(t, ops, rng, kernelPools[flags>>2%4], 1+int(m%72), 1+int(k%128), 1+int(n%64), flags&1 != 0, allActivations[act%5], flags&2 != 0)
	})
}

// convCase runs one convolution block through convFilters and through
// ConvPoolInto on pool, into an output with the given border, and
// compares; the border must come back untouched.
func convCase(t testing.TB, ops *kernelOperands, rng *rand.Rand, pool *Pool, batch, inC, convH, convW, outC, kH, kW, window, border int, withBias bool, act Activation, specials bool) {
	t.Helper()
	in := ops.in.tensorAt(batch, inC, convH+kH-1, convW+kW-1)
	f := ops.w.tensorAt(outC, inC, kH, kW)
	fillOperand(rng, in.data, specials)
	fillOperand(rng, f.data, specials)
	var bias *Tensor
	if withBias {
		bias = ops.bias.tensorAt(outC)
		fillOperand(rng, bias.data, specials)
	}
	pH, pW := convH/window, convW/window
	want := New(batch, outC, pH+2*border, pW+2*border)
	want.Fill(borderSentinel)
	for b := 0; b < batch; b++ {
		convFilters(want, in, f, bias, act, window, b, 0, outC)
	}

	out := ops.out.tensorAt(batch, outC, pH+2*border, pW+2*border)
	out.Fill(borderSentinel)
	ConvPoolInto(pool, out, in, f, bias, act, window)
	name := fmt.Sprintf("ConvPoolInto in %v filters %v bias=%v %s window=%d border=%d specials=%v on pool(%d,%d)",
		in.Shape(), f.Shape(), withBias, act, window, border, specials, pool.Workers(), pool.GroupSize())
	if i, ok := sameKernelBits(out.data, want.data); !ok {
		t.Fatalf("%s: element %d is %v (%#x), the Go kernel's %v (%#x)", name, i, out.data[i], math.Float32bits(out.data[i]), want.data[i], math.Float32bits(want.data[i]))
	}
	biasLen := 0
	if withBias {
		biasLen = outC
	}
	ops.checkIntact(t, name, in.Len(), f.Len(), biasLen, out.Len(), 0)
}

func TestConvVectorKernelBitIdenticalToGoKernel(t *testing.T) {
	skipWithoutVectorKernels(t)
	rng := rand.New(rand.NewSource(20))
	ops := newKernelOperands(t, 3*5*74*74, 20*5*25, 20, 3*20*72*72, 0)
	acts := []Activation{ReLU, Identity, ReLU, Tanh, ReLU, Identity, Sigmoid}
	idx := 0
	// Every conv width against a drawn height, and every height against a
	// drawn width: all block counts and all overlaps of the last block.
	for size := 1; size <= 70; size++ {
		for _, hw := range [][2]int{{size, 1 + rng.Intn(24)}, {1 + rng.Intn(24), size}} {
			for window := 1; window <= 3 && window <= hw[0] && window <= hw[1]; window++ {
				kH, kW := 1+rng.Intn(5), 1+rng.Intn(5)
				if idx%3 == 0 {
					kW = kH
				}
				outC := 1 + rng.Intn(20)
				if idx%2 == 0 {
					outC = 8 + rng.Intn(13) // enough filters for a tile
				}
				convCase(t, ops, rng, kernelPools[idx%4], 1+idx%3, 1+rng.Intn(5), hw[0], hw[1], outC, kH, kW, window, idx%3, idx%4 != 0, acts[idx%7], idx%5 == 0)
				idx++
			}
		}
	}
	// Every filter count and every filter shape at one width.
	for outC := 1; outC <= 20; outC++ {
		convCase(t, ops, rng, kernelPools[outC%4], 2, 3, 9, 21, outC, 3, 3, 1+outC%2, outC%2, true, ReLU, false)
	}
	for kH := 1; kH <= 5; kH++ {
		for kW := 1; kW <= 5; kW++ {
			convCase(t, ops, rng, kernelPools[(kH+kW)%4], 1, 1+(kH+kW)%5, 10, 12, 11, kH, kW, 1+kW%2, kH%2, kW%2 == 0, Identity, false)
		}
	}
	// mnist-cnn's blocks as http_cnn_b8 runs them.
	cnn := newKernelOperands(t, 8*32*16*16, 32*32*9, 32, 8*32*16*16, 0)
	for _, pool := range kernelPools {
		convCase(t, cnn, rng, pool, 8, 1, 28, 28, 32, 3, 3, 2, 1, true, ReLU, false)
		convCase(t, cnn, rng, pool, 8, 32, 14, 14, 32, 3, 3, 2, 0, true, ReLU, false)
	}
}

func FuzzConvKernels(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(8), uint8(8), uint8(0x22), uint8(1), uint8(1))
	f.Add(int64(2), uint8(14), uint8(13), uint8(19), uint8(0x12), uint8(2), uint8(0x35))
	f.Add(int64(3), uint8(69), uint8(3), uint8(9), uint8(0x40), uint8(1), uint8(0x0e))
	ops := newKernelOperands(f, 2*5*74*74, 20*5*25, 20, 2*20*72*72, 0)
	f.Fuzz(func(t *testing.T, seed int64, convW, convH, outC, filter, window, flags uint8) {
		skipWithoutVectorKernels(t)
		rng := rand.New(rand.NewSource(seed))
		w, h, win := 1+int(convW%70), 1+int(convH%70), 1+int(window%3)
		if win > w || win > h {
			win = 1
		}
		act := []Activation{Identity, ReLU, Tanh, Sigmoid}[flags>>4%4]
		convCase(t, ops, rng, kernelPools[flags>>2%4], 1+int(seed&1), 1+int(filter>>6), h, w, 1+int(outC%20),
			1+int(filter&7)%5, 1+int(filter>>3&7)%5, win, int(flags>>6)%3, flags&1 != 0, act, flags&2 != 0)
	})
}

// packPanels against its definition, for batches that are not a multiple
// of the lane count and rows that are not a multiple of the tile.
func TestPackPanelsLayout(t *testing.T) {
	skipWithoutVectorKernels(t)
	rng := rand.New(rand.NewSource(21))
	for _, m := range []int{8, 9, 15, 16, 23, 64, 65} {
		for _, k := range []int{1, 4, 6, 7, 8, 9, 31, 64} {
			in := randTensor(rng, m, k)
			panels := (m + vecTile - 1) / vecTile
			g := newGuarded(t, panels*vecTile*k+64)
			panel := g.tail(panels * vecTile * k)
			packPanels(panel, in.data, m, k)
			for q := 0; q < panels; q++ {
				base := min(q*vecTile, m-vecTile)
				for p := 0; p < k; p++ {
					for l := 0; l < vecTile; l++ {
						if got, want := panel[(q*k+p)*vecTile+l], in.data[(base+l)*k+p]; got != want {
							t.Fatalf("m=%d k=%d: panel %d feature %d lane %d holds %v, want sample %d's %v", m, k, q, p, l, got, base+l, want)
						}
					}
				}
			}
			if !g.intact(len(panel)) {
				t.Fatalf("m=%d k=%d: packPanels wrote before the panel", m, k)
			}
		}
	}
}

// The rule: what must stay on the Go kernels stays there whatever the
// CPU — a layer under eight neurons at under eight samples, simple's
// 4→6→6→3 at batch 1 among them, and a neuron-lane layer under four
// inputs — and no batch under eight samples asks for a panel. From
// eight samples up every layer takes the sample lanes where the CPU has
// them, however narrow.
func TestVectorRuleKeepsSmallShapesOnGoKernels(t *testing.T) {
	for _, s := range [][3]int{{1, 4, 6}, {1, 6, 6}, {1, 6, 3}, {7, 4, 6}, {1, 784, 7}, {7, 784, 7}, {1, 3, 800}, {7, 3, 8}} {
		if vectorLinear(s[0], s[1], s[2]) || neuronLanes(s[0], s[1], s[2]) {
			t.Errorf("Linear %d×%d×%d takes a vector kernel: under 8 samples, a layer under 8 neurons or 4 inputs must run the Go kernel", s[0], s[1], s[2])
		}
	}
	for _, s := range [][3]int{{1, 784, 800}, {7, 784, 800}, {1, 3, 800}, {7, 4, 6}} {
		if n := LinearPanelLen(s[0], s[1], s[2]); n != 0 {
			t.Errorf("LinearPanelLen(%d, %d, %d) = %d, want 0 under 8 samples", s[0], s[1], s[2], n)
		}
	}
	for _, c := range []struct {
		convW, outC, fVol, k int
		act                  Activation
	}{{7, 32, 9, 1, ReLU}, {7, 32, 9, 2, ReLU}, {28, 7, 9, 1, ReLU}, {28, 32, 9, 3, ReLU}, {28, 32, 9, 2, Tanh}, {28, 32, 0, 1, ReLU}} {
		if vectorConv(c.convW, c.outC, c.fVol, c.k, c.act) {
			t.Errorf("vectorConv(%d, %d, %d, %d, %s): must run the Go kernel", c.convW, c.outC, c.fVol, c.k, c.act)
		}
	}
	if useAVX2 {
		if !vectorLinear(8, 1568, 128) || !vectorLinear(64, 784, 800) || !vectorConv(14, 32, 288, 2, ReLU) || !vectorConv(28, 32, 9, 2, ReLU) {
			t.Error("the benchmark's layers must take the vector kernels where the CPU has them")
		}
		for _, s := range [][3]int{{8, 4, 6}, {8, 6, 3}, {64, 4, 6}, {65, 6, 3}, {8, 784, 7}, {8, 1, 1}} {
			if !vectorLinear(s[0], s[1], s[2]) || LinearPanelLen(s[0], s[1], s[2]) != (s[0]+vecTile-1)/vecTile*vecTile*s[1] {
				t.Errorf("Linear %d×%d×%d must take the sample lanes, with a panel, where the CPU has them", s[0], s[1], s[2])
			}
		}
		for _, s := range [][3]int{{1, 784, 784}, {1, 784, 800}, {7, 784, 800}, {1, 800, 10}, {1, 4, 8}} {
			if !neuronLanes(s[0], s[1], s[2]) || vectorLinear(s[0], s[1], s[2]) {
				t.Errorf("Linear %d×%d×%d must take the neuron lanes where the CPU has them", s[0], s[1], s[2])
			}
		}
	}
}

// Where this build's Go kernels fuse s += x*w (a GOAMD64=v3 build may:
// `make test-v3`), no vector kernel may run — each of them rounds the
// product — and every test of package tensor holds on the Go kernels
// alone.
func TestProbeTurnsVectorKernelsOffWhereGoFuses(t *testing.T) {
	if !goKernelsFuse() {
		t.Skip("the Go kernels round every product in this build: the vector kernels may run")
	}
	if useAVX2 || vectorLinear(64, 784, 800) || neuronLanes(1, 784, 800) || vectorConv(28, 32, 9, 2, ReLU) {
		t.Fatal("the Go kernels fuse in this build, yet a vector kernel may run")
	}
}
