package nn_test

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"bomw/internal/models"
	"bomw/internal/nn"
	"bomw/internal/tensor"
)

// The plan is what Forward runs; these tests hold it, by bits, to the
// layer-by-layer reference of forward_identity_test.go in the places
// where a plan can go wrong and a layer loop cannot: memory that
// outlives a pass, borders nobody rewrites, two layers in one kernel.

func TestPlanFusesConvBlocksAndDropsPadAndFlatten(t *testing.T) {
	for _, tc := range []struct {
		spec *nn.Spec
		want []string
	}{
		{models.MnistSmall(), []string{"dense(784→784,relu)", "dense(784→800,relu)", "dense(800→10,softmax)"}},
		{models.MnistCNN(), []string{"pad", "conv(3x3x1→32,relu)+maxpool(2x2)", "conv(3x3x32→32,relu)+maxpool(2x2)",
			"dense(1568→128,relu)", "dense(128→10,softmax)"}},
		{blockCNN(), []string{"pad", "conv(3x3x2→5,relu)", "conv(3x3x5→5,relu)+maxpool(2x2)", "conv(3x3x5→5,relu)",
			"conv(3x3x5→5,relu)+maxpool(2x2)", "dense(20→11,relu)", "dense(11→3,softmax)"}},
	} {
		if got := tc.spec.MustBuild(1).StepNames(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s plan:\n got %q\nwant %q", tc.spec.Name, got, tc.want)
		}
	}
}

// One arena, driven 8 → 2 → 8 → 1: the small batches run over what the
// large ones left in the interiors, and the second large one would read
// any border a pass had written.
func TestOneArenaAcrossBatchSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, spec := range []*nn.Spec{blockCNN(), models.MnistCNN(), models.MnistSmall()} {
		net := spec.MustBuild(1)
		arena := &nn.Arena{}
		for _, batch := range []int{8, 2, 8, 1} {
			in := identityInput(rng, append([]int{batch}, spec.InputShape...)...)
			for i := range in.Data() {
				in.Data()[i] += 1 // no zeros: a stale or clobbered element cannot pass for a fresh one
			}
			for _, pool := range []*tensor.Pool{tensor.Serial, tensor.NewPool(2, 64)} {
				if !sameBits(net.ForwardOn(arena, pool, in), referenceForward(net, in)) {
					t.Errorf("%s batch %d on pool(%d,%d): a reused arena differs from the reference", spec.Name, batch, pool.Workers(), pool.GroupSize())
				}
			}
		}
	}
}

// -0, +Inf and NaN on the rim of the input, where every one of them meets
// a border tap: the stored zeros must give 0·Inf = NaN and leave -0
// alone exactly as Pad2D's copy did.
func TestNonFiniteInputsNextToTheBorder(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	specials := []float32{negZero, float32(math.Inf(1)), float32(math.NaN()), float32(math.Inf(-1))}
	rng := rand.New(rand.NewSource(17))
	spec := blockCNN()
	net := spec.MustBuild(1)
	c, h, w := spec.InputShape[0], spec.InputShape[1], spec.InputShape[2]
	for i, v := range specials {
		in := identityInput(rng, 3, c, h, w)
		// Sample 0: v in a corner; sample 1: -0 everywhere on the rim;
		// sample 2 stays finite, so a leak across samples would show.
		in.Set(v, 0, i%c, 0, 0)
		in.Set(v, 0, (i+1)%c, h-1, w-1)
		for x := 0; x < w; x++ {
			in.Set(negZero, 1, 0, 0, x)
			in.Set(negZero, 1, 0, h-1, x)
		}
		want := referenceForward(net, in)
		for _, pool := range identityPools {
			if !sameBits(net.Forward(pool, in), want) {
				t.Errorf("input with %v on the rim: Forward on pool(%d,%d) differs from the reference", v, pool.Workers(), pool.GroupSize())
			}
		}
	}
}

// The pruned and the half-precision dense layers run through the plan
// too; the reference is their own allocating Forward, layer by layer.
func TestSparseAndHalfNetworksThroughThePlan(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	base := models.Simple().MustBuild(3)
	if _, err := nn.Prune(base, 0.5); err != nil {
		t.Fatal(err)
	}
	for _, net := range []*nn.Network{nn.SparsifyNetwork(base), nn.HalveNetwork(base)} {
		for _, batch := range []int{1, 5} {
			in := identityInput(rng, batch, 4)
			want := referenceForward(net, in)
			for _, pool := range identityPools {
				if !sameBits(net.Forward(pool, in), want) {
					t.Errorf("%s batch %d: Forward on pool(%d,%d) differs from the layer-by-layer result", net.Name(), batch, pool.Workers(), pool.GroupSize())
				}
			}
		}
	}
}

// Eight goroutines share one Network and nothing else: each pass has an
// arena to itself, so every result equals the one computed alone. Run
// with -race this is also the proof that no arena is visible to two
// passes.
func TestConcurrentForwardsEqualSerialResults(t *testing.T) {
	for _, spec := range []*nn.Spec{blockCNN(), models.MnistSmall()} {
		net := spec.MustBuild(1)
		pool := tensor.NewPool(2, 64)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100 + g)))
				for pass := 0; pass < 6; pass++ {
					batch := 1 + (g+3*pass)%8
					in := identityInput(rng, append([]int{batch}, spec.InputShape...)...)
					want := net.ForwardOn(&nn.Arena{}, tensor.Serial, in)
					if got := net.Forward(pool, in); !sameBits(got, want) {
						t.Errorf("%s goroutine %d pass %d batch %d: concurrent Forward differs from the pass run alone", spec.Name, g, pass, batch)
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// NewNetwork sizes the arena from these shapes, so it must not accept a
// stack whose shapes do not chain.
func TestNewNetworkRejectsStacksThatDoNotChain(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for name, build := range map[string]func(){
		"dense fan-in differs from the input volume": func() {
			nn.NewNetwork("bad", []int{50}, nn.NewDense(rng, 100, 10, tensor.Softmax))
		},
		"dense fan-in differs from the predecessor's fan-out": func() {
			nn.NewNetwork("bad", []int{4}, nn.NewDense(rng, 4, 6, tensor.ReLU), nn.NewDense(rng, 7, 3, tensor.Softmax))
		},
		"dense on an unflattened map": func() {
			nn.NewNetwork("bad", []int{1, 2, 2}, nn.NewDense(rng, 4, 3, tensor.Softmax))
		},
		"conv channels differ from the input's": func() {
			nn.NewNetwork("bad", []int{1, 8, 8}, nn.NewConvPad(rng, 3, 4, 3, 0, tensor.ReLU), nn.Flatten{}, nn.NewDense(rng, 144, 2, tensor.Softmax))
		},
		"filter larger than the plane": func() {
			nn.NewNetwork("bad", []int{1, 2, 2}, nn.NewConvPad(rng, 1, 4, 3, 0, tensor.ReLU), nn.Flatten{})
		},
		"pool window larger than the plane": func() {
			nn.NewNetwork("bad", []int{1, 7, 7}, &nn.MaxPool{K: 9}, nn.Flatten{})
		},
		"pool window of zero": func() {
			nn.NewNetwork("bad", []int{1, 7, 7}, &nn.MaxPool{K: 0}, nn.Flatten{})
		},
		"empty input dimension": func() {
			nn.NewNetwork("bad", []int{0}, nn.NewDense(rng, 0, 3, tensor.Softmax))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewNetwork accepted it", name)
				}
			}()
			build()
		}()
	}
}

// The arena's size is the memory a (model, batch) pair holds while it
// runs — ROADMAP item 2's table, and the figure memory-aware placement
// will admit against.
func TestArenaBytesOfThePaperModels(t *testing.T) {
	want := map[string]int64{ // bytes per sample
		"simple":      4 * (6 + 6 + 3),
		"mnist-small": 4 * (784 + 800 + 10),
		"mnist-deep":  4 * (784 + 2500 + 2000 + 1500 + 1000 + 500 + 10),
		"mnist-cnn":   4 * (30*30 + 32*16*16 + 32*7*7 + 128 + 10),
		"cifar-10":    4 * (3*34*34 + 32*34*34 + 32*18*18 + 32*18*18 + 32*10*10 + 32*10*10 + 32*4*4 + 128 + 10),
	}
	for _, spec := range models.PaperModels() {
		net := spec.MustBuild(1)
		if got := net.ArenaBytes(1); got != want[spec.Name] {
			t.Errorf("%s: arena holds %d B per sample, want %d", spec.Name, got, want[spec.Name])
		}
		t.Logf("%-12s arena bytes at batch 1 / 8 / 64: %d / %d / %d", spec.Name, net.ArenaBytes(1), net.ArenaBytes(8), net.ArenaBytes(64))
	}
}
