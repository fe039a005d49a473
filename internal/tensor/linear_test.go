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
	// width, and the mnist-small layer; the activation rotates so the
	// large shapes are not run five times over.
	idx := 0
	for _, m := range []int{1, 2, 5, 64} {
		for _, k := range []int{1, 3, 4, 784} {
			for _, n := range []int{1, 2, 3, 4, 5, 7, 10, 800} {
				in, w, bias := linearOperands(rng, m, k, n)
				checkLinear(t, pools, in, w, bias, allActivations[idx%len(allActivations)])
				idx++
			}
		}
	}
	for i := 0; i < 40; i++ {
		in, w, bias := linearOperands(rng, 1+rng.Intn(9), 1+rng.Intn(40), 1+rng.Intn(40))
		for _, act := range allActivations {
			checkLinear(t, pools, in, w, bias, act)
		}
		checkLinear(t, pools, in, w, nil, ReLU)
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
