package tensor

import (
	"math"
	"math/rand"
	"testing"
)

var allActivations = []Activation{Identity, ReLU, Tanh, Sigmoid, Softmax}

// linearReference spells out the call sequence Linear replaced.
func linearReference(in, w, bias *Tensor, act Activation) *Tensor {
	out := MatMul(Serial, in, Transpose(w))
	if bias != nil {
		AddBiasRows(Serial, out, bias)
	}
	act.Apply(Serial, out)
	return out
}

// sameBits is stricter than Equal: it tells -0 from +0.
func sameBits(a, b *Tensor) bool {
	if !a.Equal(b) {
		return false
	}
	for i, v := range a.data {
		if math.Float32bits(v) != math.Float32bits(b.data[i]) {
			return false
		}
	}
	return true
}

// linearOperands draws a layer whose input has exact zeros (the old
// kernel's av == 0 skip) and negatives.
func linearOperands(rng *rand.Rand, m, k, n int) (in, w, bias *Tensor) {
	in = randTensor(rng, m, k)
	for i := range in.data {
		if rng.Intn(4) == 0 {
			in.data[i] = 0
		}
	}
	return in, randTensor(rng, n, k), randTensor(rng, n)
}

func checkLinear(t *testing.T, pools []*Pool, in, w, bias *Tensor, act Activation) {
	t.Helper()
	want := linearReference(in, w, bias, act)
	for _, pool := range pools {
		into := New(want.Dim(0), want.Dim(1))
		into.Fill(-7.5) // LinearInto owes every element a value
		LinearInto(pool, into, in, w, bias, act)
		if !sameBits(into, want) {
			t.Fatalf("LinearInto m=%d k=%d n=%d bias=%v %s on pool(%d,%d) differs from the MatMul sequence", in.Dim(0), in.Dim(1), w.Dim(0), bias != nil, act, pool.Workers(), pool.GroupSize())
		}
		if got := Linear(pool, in, w, bias, act); !sameBits(got, want) {
			t.Fatalf("Linear in %v w %v %s on pool(%d,%d) differs from MatMul+Transpose+AddBiasRows+Apply",
				in.Shape(), w.Shape(), act, pool.Workers(), pool.GroupSize())
		}
	}
}

func TestLinearBitIdenticalToMatMulSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pools := []*Pool{Serial, NewPool(2, 64), NewPool(3, 1), NewPool(2, 4096)}

	// The grid holds every tile tail (n mod 4), k below and at the tile
	// width, the mnist-small layer, and batches of whole eight-sample
	// blocks with and without rows left over; the activation rotates so
	// the large shapes are not run five times over.
	idx := 0
	for _, m := range []int{1, 2, 5, 8, 9, 16, 17, 64} {
		for _, k := range []int{1, 3, 4, 784} {
			for _, n := range []int{1, 2, 3, 4, 5, 7, 10, 800} {
				in, w, bias := linearOperands(rng, m, k, n)
				checkLinear(t, pools, in, w, bias, allActivations[idx%len(allActivations)])
				idx++
			}
		}
	}
	// Layers under eight neurons, simple's among them: every narrow
	// shape, blocks and leftover rows, with and without bias, under
	// every activation. Linear and LinearInto bring no panel, so these
	// run the Go kernel on every host; the narrow sample-lane tile is
	// held to it in simd_test.go.
	for _, m := range []int{1, 7, 8, 9, 17} {
		for k := 1; k < 8; k++ {
			for n := 1; n < 8; n++ {
				in, w, bias := linearOperands(rng, m, k, n)
				for _, act := range allActivations {
					checkLinear(t, pools, in, w, bias, act)
					checkLinear(t, pools, in, w, nil, act)
				}
			}
		}
	}
	for i := 0; i < 40; i++ {
		in, w, bias := linearOperands(rng, 1+rng.Intn(20), 1+rng.Intn(40), 1+rng.Intn(40))
		for _, act := range allActivations {
			checkLinear(t, pools, in, w, bias, act)
		}
		checkLinear(t, pools, in, w, nil, ReLU)
	}
}

// The eight-sample blocks and the rows left over sum the same way: a
// batch through linearNeurons equals its rows one at a time, each a
// batch of one, to the bit, on -0, ±Inf and NaN too — which the MatMul
// sequence, skipping zero inputs, cannot be held to.
func TestLinearSampleBlocksMatchOneRowAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	idx := 0
	for _, m := range []int{8, 9, 15, 16, 17, 24} {
		for _, k := range []int{1, 2, 3, 4, 5, 8, 33} {
			for n := 1; n <= 9; n++ {
				in, w, bias := New(m, k), New(n, k), New(n)
				for _, d := range [][]float32{in.data, w.data, bias.data} {
					fillOperand(rng, d, true)
				}
				if idx%3 == 0 {
					bias = nil
				}
				act := allActivations[idx%len(allActivations)]
				idx++
				got := New(m, n)
				linearNeurons(got, in, w, bias, act, 0, n)
				for i := 0; i < m; i++ {
					row := New(1, n)
					linearNeurons(row, FromSlice(in.data[i*k:(i+1)*k], 1, k), w, bias, act, 0, n)
					if j, ok := sameKernelBits(got.data[i*n:(i+1)*n], row.data); !ok {
						t.Fatalf("m=%d k=%d n=%d bias=%v %s: row %d neuron %d is %v, one row at a time %v",
							m, k, n, bias != nil, act, i, j, got.data[i*n+j], row.data[j])
					}
				}
			}
		}
	}
}

func TestLinearShapePanics(t *testing.T) {
	for name, call := range map[string]func(){
		"inner":     func() { Linear(Serial, New(2, 3), New(4, 5), nil, Identity) },
		"rank":      func() { Linear(Serial, New(3), New(4, 3), nil, Identity) },
		"bias size": func() { Linear(Serial, New(2, 3), New(4, 3), New(3), Identity) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Linear %s mismatch did not panic", name)
				}
			}()
			call()
		}()
	}
}

func TestLinearEmptyBatch(t *testing.T) {
	out := Linear(NewPool(2, 64), New(0, 3), New(4, 3), New(4), ReLU)
	if out.Dim(0) != 0 || out.Dim(1) != 4 {
		t.Fatalf("Linear on an empty batch has shape %v, want [0 4]", out.Shape())
	}
}

// A layer of at most 4·GroupSize work-items must stay on the caller: a
// fan-out there ties a batch-1 request's latency to the host waking a
// second CPU. Goroutines and their closure allocate, so the inline path
// shows as the Serial call's allocation count; one work-item over the
// limit, the split must still happen.
func TestLinearSmallLayerRunsInline(t *testing.T) {
	pool := NewPool(2, 256)
	in, bias := New(1, 784), New(1024)
	allocs := func(pool *Pool, w, bias *Tensor) float64 {
		return testing.AllocsPerRun(20, func() { Linear(pool, in, w, bias, ReLU) })
	}
	w := New(1024, 784)
	if got, want := allocs(pool, w, bias), allocs(Serial, w, bias); got != want {
		t.Errorf("1×1024 layer on pool(2,256): %v allocs per call, want the inline call's %v", got, want)
	}
	w, bias = New(1028, 784), New(1028)
	if got, inline := allocs(pool, w, bias), allocs(Serial, w, bias); got <= inline {
		t.Errorf("1×1028 layer on pool(2,256): %v allocs per call, no more than inline (%v): it was not split", got, inline)
	}
}
