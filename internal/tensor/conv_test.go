package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConv2DKnownValues(t *testing.T) {
	// 1 batch, 1 channel, 3x3 input; one 2x2 averaging-ish filter.
	in := FromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	f := FromSlice([]float32{1, 0, 0, 1}, 1, 1, 2, 2) // main-diagonal sum
	out := Conv2D(Serial, in, f, nil)
	want := FromSlice([]float32{
		1 + 5, 2 + 6,
		4 + 8, 5 + 9,
	}, 1, 1, 2, 2)
	if !out.Equal(want) {
		t.Fatalf("Conv2D = %v, want %v", out, want)
	}
}

func TestConv2DBias(t *testing.T) {
	in := New(1, 1, 2, 2)
	f := New(2, 1, 1, 1) // two 1x1 zero filters
	bias := FromSlice([]float32{3, -1}, 2)
	out := Conv2D(Serial, in, f, bias)
	if out.At(0, 0, 1, 1) != 3 || out.At(0, 1, 0, 0) != -1 {
		t.Fatalf("Conv2D bias not applied: %v", out)
	}
}

func TestConv2DMultiChannelAccumulates(t *testing.T) {
	// Two input channels of ones; 1x1 filter with weights 2 and 3 → 5.
	in := New(1, 2, 2, 2)
	in.Fill(1)
	f := FromSlice([]float32{2, 3}, 1, 2, 1, 1)
	out := Conv2D(Serial, in, f, nil)
	for _, v := range out.Data() {
		if v != 5 {
			t.Fatalf("multi-channel accumulation wrong: %v", out)
		}
	}
}

func TestConv2DShapePanics(t *testing.T) {
	cases := []func(){
		func() { Conv2D(Serial, New(1, 1, 3, 3), New(1, 2, 2, 2), nil) },    // channel mismatch
		func() { Conv2D(Serial, New(1, 1, 2, 2), New(1, 1, 3, 3), nil) },    // filter too large
		func() { Conv2D(Serial, New(1, 1, 3), New(1, 1, 2, 2), nil) },       // bad input rank
		func() { Conv2D(Serial, New(1, 1, 3, 3), New(1, 1, 2, 2), New(2)) }, // bad bias
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestConv2DParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := randTensor(rng, 3, 4, 9, 9)
	f := randTensor(rng, 8, 4, 3, 3)
	bias := randTensor(rng, 8)
	serial := Conv2D(Serial, in, f, bias)
	par := Conv2D(NewPool(8, 2), in, f, bias)
	if !serial.ApproxEqual(par, 1e-4) {
		t.Fatal("parallel Conv2D differs from serial")
	}
}

func TestMaxPool2DKnownValues(t *testing.T) {
	in := FromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		-1, -2, 0, 0,
		-3, -4, 9, 0,
	}, 1, 1, 4, 4)
	out := MaxPool2D(Serial, in, 2)
	want := FromSlice([]float32{4, 8, -1, 9}, 1, 1, 2, 2)
	if !out.Equal(want) {
		t.Fatalf("MaxPool2D = %v, want %v", out, want)
	}
}

func TestMaxPool2DRaggedTruncates(t *testing.T) {
	in := New(1, 1, 5, 5)
	in.Fill(1)
	out := MaxPool2D(Serial, in, 2)
	if out.Dim(2) != 2 || out.Dim(3) != 2 {
		t.Fatalf("ragged pooling shape = %v, want [1 1 2 2]", out.Shape())
	}
}

func TestMaxPool2DPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { MaxPool2D(Serial, New(1, 1, 2), 2) },
		func() { MaxPool2D(Serial, New(1, 1, 2, 2), 0) },
		func() { MaxPool2D(Serial, New(1, 1, 2, 2), 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestMaxPool2DParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := randTensor(rng, 4, 6, 8, 8)
	a := MaxPool2D(Serial, in, 2)
	b := MaxPool2D(NewPool(6, 1), in, 2)
	if !a.Equal(b) {
		t.Fatal("parallel MaxPool2D differs from serial")
	}
}

// Property: max pooling never produces a value absent from its window, and
// the output max equals the input max for full coverage (even dims).
func TestPropertyMaxPoolPreservesMax(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := 2 * (1 + r.Intn(4))
		in := randTensor(r, 1, 1, h, h)
		out := MaxPool2D(Serial, in, 2)
		var inMax, outMax float32 = in.Data()[0], out.Data()[0]
		for _, v := range in.Data() {
			if v > inMax {
				inMax = v
			}
		}
		for _, v := range out.Data() {
			if v > outMax {
				outMax = v
			}
		}
		return inMax == outMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: convolution with an all-ones input and all-ones single filter
// yields inC*kH*kW everywhere.
func TestPropertyConvOnes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c, k, sz := 1+r.Intn(3), 1+r.Intn(3), 4+r.Intn(4)
		in := New(1, c, sz, sz)
		in.Fill(1)
		filt := New(1, c, k, k)
		filt.Fill(1)
		out := Conv2D(Serial, in, filt, nil)
		want := float32(c * k * k)
		for _, v := range out.Data() {
			if v != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// referenceConv2D is the five nested loops Conv2D ran before the
// four-filter kernel: one output at a time, bias first, then c, fy, fx
// ascending.
func referenceConv2D(input, filters, bias *Tensor) *Tensor {
	batch, inC, inH, inW := input.Dim(0), input.Dim(1), input.Dim(2), input.Dim(3)
	outC, kH, kW := filters.Dim(0), filters.Dim(2), filters.Dim(3)
	outH, outW := inH-kH+1, inW-kW+1
	out := New(batch, outC, outH, outW)
	in, fd, od := input.data, filters.data, out.data

	inPlane := inH * inW
	inVol := inC * inPlane
	fPlane := kH * kW
	fVol := inC * fPlane
	outPlane := outH * outW
	outVol := outC * outPlane

	for w := 0; w < batch*outC; w++ {
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
	return out
}

// referenceMaxPool2D is MaxPool2D's loop before the plane split.
func referenceMaxPool2D(input *Tensor, k int) *Tensor {
	batch, ch, inH, inW := input.Dim(0), input.Dim(1), input.Dim(2), input.Dim(3)
	outH, outW := inH/k, inW/k
	out := New(batch, ch, outH, outW)
	in, od := input.data, out.data
	inPlane, outPlane := inH*inW, outH*outW

	for w := 0; w < batch*ch; w++ {
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
	return out
}

var (
	cnnIdentityPools = []*Pool{Serial, NewPool(2, 64), NewPool(3, 1), NewPool(2, 256), NewPool(2, 4096)}
	convActivations  = []Activation{Identity, ReLU, Tanh, Sigmoid}
)

// cnnInput mixes the serving benchmark's k/1000 pattern with exact
// zeros (what Pad2D adds, and what a zero-skipping kernel would treat
// differently) and negatives.
func cnnInput(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		switch rng.Intn(8) {
		case 0:
		case 1:
			t.data[i] = -float32(1+rng.Intn(999)) / 1000
		default:
			t.data[i] = float32(1+rng.Intn(999)) / 1000
		}
	}
	return t
}

func checkConv2D(t *testing.T, in, f, bias *Tensor, act Activation) {
	t.Helper()
	want := referenceConv2D(in, f, bias)
	act.Apply(Serial, want)
	for _, pool := range cnnIdentityPools {
		if got := Conv2DAct(pool, in, f, bias, act); !sameBits(got, want) {
			t.Fatalf("Conv2DAct in %v filters %v bias %v %s on pool(%d,%d) differs from the single-accumulator loop + Apply",
				in.Shape(), f.Shape(), bias != nil, act, pool.Workers(), pool.GroupSize())
		}
	}
	if act == Identity {
		if got := Conv2D(cnnIdentityPools[1], in, f, bias); !sameBits(got, want) {
			t.Fatalf("Conv2D in %v filters %v differs from the single-accumulator loop", in.Shape(), f.Shape())
		}
	}
	// The block kernel: the same map pooled k×k, written into the
	// interior of a buffer whose border it must not touch.
	for k := 1; k <= 3 && k <= want.Dim(2) && k <= want.Dim(3); k++ {
		pooled := referenceMaxPool2D(want, k)
		border := (k + in.Dim(0)) % 3
		for _, pool := range cnnIdentityPools {
			out := bordered(pooled, border)
			ConvPoolInto(pool, out, in, f, bias, act, k)
			if !sameBits(out, borderedCopy(pooled, border)) {
				t.Fatalf("ConvPoolInto in %v filters %v bias %v %s k %d border %d on pool(%d,%d) differs from conv, Apply, max-pool (or wrote its border)",
					in.Shape(), f.Shape(), bias != nil, act, k, border, pool.Workers(), pool.GroupSize())
			}
		}
	}
}

// borderSentinel fills what a write-into kernel must overwrite or must
// leave alone; no kernel under test produces it.
const borderSentinel = -7.5

// bordered returns a sentinel-filled tensor shaped like t plus a border.
func bordered(t *Tensor, border int) *Tensor {
	out := New(t.Dim(0), t.Dim(1), t.Dim(2)+2*border, t.Dim(3)+2*border)
	out.Fill(borderSentinel)
	return out
}

// borderedCopy is bordered with t in the interior.
func borderedCopy(t *Tensor, border int) *Tensor {
	out := bordered(t, border)
	Pad2DInto(out, t)
	return out
}

func TestConv2DBitIdenticalToSingleAccumulatorLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(15))

	// Every tile tail (outC mod 4), one and many input channels, square
	// and non-square filters, the benchmark's batch; the activation and
	// the bias rotate so the large shapes are not run eight times over.
	idx := 0
	for _, outC := range []int{1, 2, 3, 4, 5, 7, 32} {
		for _, inC := range []int{1, 3, 32} {
			for _, k := range [][2]int{{1, 1}, {3, 3}, {2, 3}, {5, 5}} {
				for _, batch := range []int{1, 3, 8} {
					in := cnnInput(rng, batch, inC, 5+rng.Intn(4), 5+rng.Intn(4))
					f := randTensor(rng, outC, inC, k[0], k[1])
					bias := randTensor(rng, outC)
					if idx%3 == 2 {
						bias = nil
					}
					checkConv2D(t, in, f, bias, convActivations[idx%len(convActivations)])
					idx++
				}
			}
		}
	}
	// mnist-cnn's two layers as http_cnn_b8 runs them.
	checkConv2D(t, cnnInput(rng, 8, 1, 30, 30), randTensor(rng, 32, 1, 3, 3), randTensor(rng, 32), ReLU)
	checkConv2D(t, cnnInput(rng, 8, 32, 16, 16), randTensor(rng, 32, 32, 3, 3), randTensor(rng, 32), ReLU)

	for i := 0; i < 40; i++ {
		kH, kW := 1+rng.Intn(4), 1+rng.Intn(4)
		in := cnnInput(rng, 1+rng.Intn(4), 1+rng.Intn(5), kH+rng.Intn(9), kW+rng.Intn(9))
		f := randTensor(rng, 1+rng.Intn(13), in.Dim(1), kH, kW)
		for _, act := range convActivations {
			checkConv2D(t, in, f, randTensor(rng, f.Dim(0)), act)
		}
		checkConv2D(t, in, f, nil, ReLU)
	}
}

// The write-into map kernels accept the result's shape plus a symmetric
// border and nothing else.
func TestWriteIntoKernelsRejectMisshapenOutputs(t *testing.T) {
	in, f := New(2, 3, 6, 6), New(4, 3, 3, 3) // conv → [2 4 4 4], pooled by 2 → [2 4 2 2]
	for name, call := range map[string]func(){
		"conv: wrong batch":         func() { ConvPoolInto(Serial, New(1, 4, 2, 2), in, f, nil, ReLU, 2) },
		"conv: wrong channels":      func() { ConvPoolInto(Serial, New(2, 3, 2, 2), in, f, nil, ReLU, 2) },
		"conv: odd border":          func() { ConvPoolInto(Serial, New(2, 4, 3, 3), in, f, nil, ReLU, 2) },
		"conv: lopsided border":     func() { ConvPoolInto(Serial, New(2, 4, 4, 6), in, f, nil, ReLU, 2) },
		"conv: smaller than result": func() { ConvPoolInto(Serial, New(2, 4, 1, 1), in, f, nil, ReLU, 2) },
		"conv: window of zero":      func() { ConvPoolInto(Serial, New(2, 4, 4, 4), in, f, nil, ReLU, 0) },
		"conv: window too large":    func() { ConvPoolInto(Serial, New(2, 4, 1, 1), in, f, nil, ReLU, 5) },
		"pool: wrong shape":         func() { MaxPool2DInto(Serial, New(2, 3, 2, 2), in, 2) },
		"pad: smaller than input":   func() { Pad2DInto(New(2, 3, 4, 4), in) },
		"pad: rank":                 func() { Pad2DInto(New(2, 3, 8, 8), New(2, 3, 36)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: accepted", name)
				}
			}()
			call()
		}()
	}
}

func TestConv2DActSoftmaxPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Conv2DAct with Softmax did not panic")
		}
	}()
	Conv2DAct(Serial, New(1, 1, 3, 3), New(1, 1, 2, 2), nil, Softmax)
}

func TestMaxPool2DBitIdenticalToPlaneLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	negZero := float32(math.Copysign(0, -1))
	check := func(in *Tensor, k int) {
		t.Helper()
		want := referenceMaxPool2D(in, k)
		for _, pool := range cnnIdentityPools {
			if got := MaxPool2D(pool, in, k); !sameBits(got, want) {
				t.Fatalf("MaxPool2D in %v k %d on pool(%d,%d) differs from the plane loop", in.Shape(), k, pool.Workers(), pool.GroupSize())
			}
			out := bordered(want, k)
			MaxPool2DInto(pool, out, in, k)
			if !sameBits(out, borderedCopy(want, k)) {
				t.Fatalf("MaxPool2DInto in %v k %d on pool(%d,%d) differs from the plane loop or wrote its border", in.Shape(), k, pool.Workers(), pool.GroupSize())
			}
		}
	}
	for _, k := range []int{1, 2, 3} {
		for _, batch := range []int{1, 3, 8} {
			for _, ch := range []int{1, 5, 32} {
				// Ragged: H and W are rarely multiples of k. Windows of
				// signed zeros: `>` keeps the first, the max builtin
				// would prefer +0.
				in := cnnInput(rng, batch, ch, 3+rng.Intn(12), 3+rng.Intn(12))
				for i := range in.data {
					switch rng.Intn(6) {
					case 0:
						in.data[i] = negZero
					case 1:
						in.data[i] = 0
					}
				}
				check(in, k)
			}
		}
	}
	check(cnnInput(rng, 8, 32, 28, 28), 2)
	check(cnnInput(rng, 8, 32, 14, 14), 2)
	check(FromSlice([]float32{negZero, 0, 0, negZero, 0, negZero, negZero, 0}, 1, 2, 2, 2), 2)
}
