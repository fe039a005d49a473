package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"bomw/internal/device"
	"bomw/internal/models"
	"bomw/internal/nn"
	"bomw/internal/opencl"
	"bomw/internal/tensor"
)

// liveHeap is the heap in use once everything unreachable is gone: two
// collections, the second of which frees what the first one's
// finalizers and pool clean-up released.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// What bomwsrv holds before its first request — a trained scheduler with
// the five paper models loaded — is the models' weights and little
// else: no second, serialised copy beside each network.
func TestLoadedSchedulerHoldsEachWeightOnce(t *testing.T) {
	before := liveHeap()
	s, err := New(Config{TrainModels: models.AllModels()})
	if err != nil {
		t.Fatal(err)
	}
	var weights uint64
	for _, spec := range models.PaperModels() {
		if err := s.LoadModel(spec, 1); err != nil {
			t.Fatal(err)
		}
		net, err := s.Dispatcher().Network(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		weights += uint64(net.ParamBytes())
	}
	held := liveHeap() - before
	t.Logf("%.1f MB held for %.1f MB of weights", float64(held)/1e6, float64(weights)/1e6)
	if limit := weights + weights/10 + 8<<20; held < weights || held > limit {
		t.Errorf("a loaded scheduler holds %.1f MB for %.1f MB of weights, want between that and %.1f MB",
			float64(held)/1e6, float64(weights)/1e6, float64(limit)/1e6)
	}
	runtime.KeepAlive(s)
}

// The forests the default configuration trains, as SaveState writes
// them, hashed at the commit before the split search stopped sorting per
// node and the sweeper stopped building weights. Neither may change one
// bit of one threshold, importance or leaf.
func TestDefaultSchedulerStateIsByteIdentical(t *testing.T) {
	for seed, want := range map[int64]string{
		1: "625eb86a4f3f4e9649d5bda3feda261811159a1c91027dc430efb17f18cdb9e1",
		2: "f70fe96612c3ecf2e1054a542b5dc3ae22e1041c60b4af0ce4ec6ed9eaa9d086",
		3: "7ae9edccf78c616a11118812f4b6ada4629aa7b37e84a33857b3ee3aa36e42c4",
	} {
		s, err := New(Config{TrainModels: models.AllModels(), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var state bytes.Buffer
		if err := s.SaveState(&state); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(state.Bytes())); got != want {
			t.Errorf("seed %d: SaveState hashes to %s (%d bytes), want %s", seed, got, state.Len(), want)
		}
	}
}

// The weights LoadModel draws for the five paper models with seed 1,
// hashed at the commit before NewDense and NewConvPad stopped calling
// rand.Float32 per weight: drawing them inline must not move one bit.
func TestPaperModelWeightsAreByteIdentical(t *testing.T) {
	want := map[string]string{
		"simple":      "aa7b48f7d9678e73879b36d7f754cbeddaaeb8c86b66eb005ba5b3c12e1834e3",
		"mnist-small": "702738f9c2a2c0f8c8128de15135b3945768428c57b89bc5d860100e7b164b23",
		"mnist-deep":  "096583285c1d085e88b8a6d4c85de03b9585ae805fa7d9362b41141959fd2755",
		"mnist-cnn":   "2eca90a2103bf62a813d154c80624eb88ed49ceae921b30a4da84d2417faf817",
		"cifar-10":    "ea86b244c775ed0e1a2ecbc3035e9fa6ed587d4f45043a6a0d276136a50068f1",
	}
	rt, err := opencl.NewRuntime(device.New(device.DefaultProfiles()[0]))
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(rt)
	for _, spec := range models.PaperModels() {
		if _, err := d.Load(spec, 1); err != nil {
			t.Fatal(err)
		}
		w, err := d.WeightBytes(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(w)); got != want[spec.Name] {
			t.Errorf("%s: weights hash to %s, want %s", spec.Name, got, want[spec.Name])
		}
	}
}

// Loading a name that is taken is refused before the network is built:
// mnist-deep is 50 MB of weights to draw.
func TestLoadOfALoadedNameBuildsNothing(t *testing.T) {
	s := testScheduler(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := s.LoadModel(models.MnistDeep(), 2)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a second mnist-deep was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing a loaded name allocated %d bytes", grew)
	}
}

// A replica asked for the seed its template loaded a model with serves
// from the template's network; any other seed gets weights of its own.
// Register is how both, and POST /v1/models, hand a built network over.
func TestReplicaSharesTheNetworkOnlyForTheSameSeed(t *testing.T) {
	tmpl := testScheduler(t) // loaded with seed 1
	same, err := tmpl.Replica(1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := tmpl.Replica(2)
	if err != nil {
		t.Fatal(err)
	}
	in := simpleSamples(8)
	for _, name := range tmpl.Dispatcher().Models() {
		orig, _ := tmpl.Dispatcher().Network(name)
		if shared, _ := same.Dispatcher().Network(name); shared != orig {
			t.Errorf("%s: a replica with the template's seed built its own network", name)
		}
		if own, _ := other.Dispatcher().Network(name); own == orig || own == nil {
			t.Errorf("%s: a replica with another seed was handed the template's weights", name)
		} else if name == "simple" && own.Forward(tensor.Serial, in).Equal(orig.Forward(tensor.Serial, in)) {
			t.Error("seed 2 drew the weights of seed 1")
		}
	}

	spec := &nn.Spec{Name: "extra", Kind: nn.FFNN, InputShape: []int{4}, Hidden: []int{8}, Classes: 3}
	net := spec.MustBuild(5)
	for _, s := range []*Scheduler{same, other} {
		if err := s.Dispatcher().Register(spec, 5, net); err != nil {
			t.Fatal(err)
		}
		if got, _ := s.Dispatcher().Network("extra"); got != net {
			t.Error("Register stored a different network than it was given")
		}
		if err := s.Dispatcher().Register(spec, 5, net); err == nil {
			t.Error("the same name registered twice")
		}
	}
	if err := same.Dispatcher().Register(models.Simple(), 5, net); err == nil {
		t.Error("a network registered under another model's spec")
	}
	// A replica of a replica still finds the seed beside the spec.
	again, err := same.Replica(5)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := again.Dispatcher().Network("extra"); got != net {
		t.Error("extra (seed 5) was rebuilt for a replica asked for seed 5")
	}
	if got, _ := again.Dispatcher().Network("simple"); got == nil {
		t.Error("simple (seed 1) missing from a replica asked for seed 5")
	}
}
