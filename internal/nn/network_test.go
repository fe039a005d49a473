package nn

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"bomw/internal/tensor"
)

func irisSpec() *Spec {
	return &Spec{
		Name:       "simple",
		Kind:       FFNN,
		InputShape: []int{4},
		Hidden:     []int{6, 6},
		Classes:    3,
		Act:        tensor.ReLU,
	}
}

func tinyCNNSpec() *Spec {
	return &Spec{
		Name:          "tiny-cnn",
		Kind:          CNN,
		InputShape:    []int{1, 12, 12},
		Hidden:        []int{16},
		Classes:       10,
		Act:           tensor.ReLU,
		VGGBlocks:     2,
		ConvsPerBlock: 1,
		Filters:       4,
		FilterSize:    3,
		PoolSize:      2,
	}
}

func TestBuildFFNNShapes(t *testing.T) {
	net := irisSpec().MustBuild(1)
	if net.Classes() != 3 {
		t.Fatalf("Classes = %d", net.Classes())
	}
	if len(net.Layers()) != 3 {
		t.Fatalf("layer count = %d, want 3", len(net.Layers()))
	}
	out := net.Forward(tensor.Default, tensor.New(5, 4))
	if out.Dim(0) != 5 || out.Dim(1) != 3 {
		t.Fatalf("forward output shape %v", out.Shape())
	}
}

func TestBuildCNNShapes(t *testing.T) {
	net := tinyCNNSpec().MustBuild(2)
	// 12 → conv3 → 10 → pool2 → 5 → conv3 → 3 → pool2 → 1.
	out := net.Forward(tensor.Default, tensor.New(3, 1, 12, 12))
	if out.Dim(0) != 3 || out.Dim(1) != 10 {
		t.Fatalf("forward output shape %v", out.Shape())
	}
}

func TestForwardOutputIsDistribution(t *testing.T) {
	net := irisSpec().MustBuild(3)
	rng := rand.New(rand.NewSource(9))
	in := tensor.New(8, 4)
	for i := range in.Data() {
		in.Data()[i] = rng.Float32()
	}
	out := net.Forward(tensor.Default, in)
	for i := 0; i < out.Dim(0); i++ {
		var sum float64
		for _, v := range out.Row(i) {
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-4 {
			t.Fatalf("row %d sums to %g (softmax output expected)", i, sum)
		}
	}
}

func TestForwardDeterministicAcrossPools(t *testing.T) {
	net := tinyCNNSpec().MustBuild(4)
	in := tensor.New(4, 1, 12, 12)
	rng := rand.New(rand.NewSource(10))
	for i := range in.Data() {
		in.Data()[i] = rng.Float32()
	}
	a := net.Forward(tensor.Serial, in.Clone())
	b := net.Forward(tensor.NewPool(8, 2), in.Clone())
	if !a.ApproxEqual(b, 1e-4) {
		t.Fatal("forward result depends on pool configuration")
	}
}

func TestBuildDeterministicBySeed(t *testing.T) {
	a := irisSpec().MustBuild(42)
	b := irisSpec().MustBuild(42)
	c := irisSpec().MustBuild(43)
	wa := a.Layers()[0].(*Dense).W
	wb := b.Layers()[0].(*Dense).W
	wc := c.Layers()[0].(*Dense).W
	if !wa.Equal(wb) {
		t.Fatal("same seed produced different weights")
	}
	if wa.Equal(wc) {
		t.Fatal("different seeds produced identical weights")
	}
}

func TestClassifyReturnsValidClasses(t *testing.T) {
	net := irisSpec().MustBuild(5)
	got := net.Classify(tensor.Default, tensor.New(10, 4))
	if len(got) != 10 {
		t.Fatalf("Classify returned %d labels", len(got))
	}
	for _, c := range got {
		if c < 0 || c >= 3 {
			t.Fatalf("class %d out of range", c)
		}
	}
}

func TestForwardRejectsWrongShape(t *testing.T) {
	net := irisSpec().MustBuild(6)
	for i, in := range []*tensor.Tensor{
		tensor.New(2, 5),    // wrong feature count
		tensor.New(2, 4, 1), // wrong rank
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: bad input accepted", i)
				}
			}()
			net.Forward(tensor.Serial, in)
		}()
	}
}

func TestFlopsAndBytesAccounting(t *testing.T) {
	net := irisSpec().MustBuild(7)
	// dense 4→6: (2*4+1)*6 + 6 relu = 60; dense 6→6: (13)*6+6 = 84;
	// dense 6→3: (13)*3 + 10*3 softmax = 69. Total 213.
	if got := net.FlopsPerSample(); got != 213 {
		t.Fatalf("FlopsPerSample = %d, want 213", got)
	}
	if got := net.ParamBytes(); got != ((4*6+6)+(6*6+6)+(6*3+3))*4 {
		t.Fatalf("ParamBytes = %d", got)
	}
	if got := net.SampleBytes(); got != 16 {
		t.Fatalf("SampleBytes = %d, want 16", got)
	}
	if net.ActivationBytesPerSample() <= net.SampleBytes() {
		t.Fatal("activation traffic should exceed input size")
	}
}

func TestNetworkString(t *testing.T) {
	s := irisSpec().MustBuild(8).String()
	for _, frag := range []string{"simple", "dense(4→6,relu)", "dense(6→3,softmax)"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() = %q missing %q", s, frag)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []*Spec{
		{Name: "", Kind: FFNN, InputShape: []int{4}, Classes: 3},
		{Name: "x", Kind: FFNN, InputShape: []int{4}, Classes: 0},
		{Name: "x", Kind: FFNN, InputShape: []int{4, 4}, Classes: 3},
		{Name: "x", Kind: FFNN, InputShape: []int{4}, Hidden: []int{0}, Classes: 3},
		{Name: "x", Kind: CNN, InputShape: []int{28, 28}, Classes: 10, VGGBlocks: 1, ConvsPerBlock: 1, Filters: 8, FilterSize: 3, PoolSize: 2},
		{Name: "x", Kind: CNN, InputShape: []int{1, 28, 28}, Classes: 10, VGGBlocks: 0, ConvsPerBlock: 1, Filters: 8, FilterSize: 3, PoolSize: 2},
		// Feature map vanishes: 6x6 input through 3 blocks of pool 2.
		{Name: "x", Kind: CNN, InputShape: []int{1, 6, 6}, Classes: 10, VGGBlocks: 3, ConvsPerBlock: 1, Filters: 8, FilterSize: 3, PoolSize: 2},
		{Name: "x", Kind: Kind(9), InputShape: []int{4}, Classes: 3},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d: Validate accepted invalid spec", i)
		}
		if _, err := s.Build(1); err == nil {
			t.Fatalf("case %d: Build accepted invalid spec", i)
		}
	}
	if err := irisSpec().Validate(); err != nil {
		t.Fatalf("valid FFNN spec rejected: %v", err)
	}
	if err := tinyCNNSpec().Validate(); err != nil {
		t.Fatalf("valid CNN spec rejected: %v", err)
	}
}

func TestKindString(t *testing.T) {
	if FFNN.String() != "ffnn" || CNN.String() != "cnn" {
		t.Fatal("Kind.String mismatch")
	}
}

func TestDescriptorFFNN(t *testing.T) {
	d := irisSpec().Descriptor()
	if d.IsCNN {
		t.Fatal("FFNN descriptor marked CNN")
	}
	if d.Depth != 3 { // two hidden + output
		t.Fatalf("Depth = %d, want 3", d.Depth)
	}
	if d.TotalNeurons != 6+6+3 {
		t.Fatalf("TotalNeurons = %d, want 15", d.TotalNeurons)
	}
	if d.VGGBlocks != 0 || d.FilterSize != 0 {
		t.Fatal("FFNN descriptor has CNN fields set")
	}
}

func TestDescriptorCNN(t *testing.T) {
	d := tinyCNNSpec().Descriptor()
	if !d.IsCNN {
		t.Fatal("CNN descriptor not marked CNN")
	}
	if d.Depth != 2*1+1+1 { // convs + hidden dense + output
		t.Fatalf("Depth = %d, want 4", d.Depth)
	}
	if d.VGGBlocks != 2 || d.ConvsPerBlock != 1 || d.FilterSize != 3 || d.PoolSize != 2 {
		t.Fatalf("descriptor = %+v", d)
	}
}

func TestDescriptorFeaturesAlignWithNames(t *testing.T) {
	f := tinyCNNSpec().Descriptor().Features()
	names := FeatureNames()
	if len(f) != len(names) {
		t.Fatalf("features %d, names %d", len(f), len(names))
	}
	// NumFeatures sizes the scheduler's feature vector up front: were it
	// short, adding a column would grow the slice a second time.
	if NumFeatures != len(names) {
		t.Fatalf("NumFeatures = %d, FeatureNames has %d", NumFeatures, len(names))
	}
	if f[0] != 1 {
		t.Fatal("is_cnn feature should be 1 for CNN")
	}
}

func TestWeightsRoundTrip(t *testing.T) {
	src := tinyCNNSpec().MustBuild(99)
	dst := tinyCNNSpec().MustBuild(1) // different weights
	var buf bytes.Buffer
	if err := src.WriteWeights(&buf); err != nil {
		t.Fatal(err)
	}
	if err := dst.ReadWeights(&buf); err != nil {
		t.Fatal(err)
	}
	in := tensor.New(2, 1, 12, 12)
	rng := rand.New(rand.NewSource(11))
	for i := range in.Data() {
		in.Data()[i] = rng.Float32()
	}
	a := src.Forward(tensor.Serial, in.Clone())
	b := dst.Forward(tensor.Serial, in.Clone())
	if !a.Equal(b) {
		t.Fatal("weights round trip changed forward results")
	}
}

func TestReadWeightsArchitectureMismatch(t *testing.T) {
	src := irisSpec().MustBuild(1)
	var buf bytes.Buffer
	if err := src.WriteWeights(&buf); err != nil {
		t.Fatal(err)
	}
	other := tinyCNNSpec().MustBuild(1)
	if err := other.ReadWeights(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("ReadWeights accepted mismatched architecture")
	}
}

func TestReadWeightsBadMagic(t *testing.T) {
	net := irisSpec().MustBuild(1)
	if err := net.ReadWeights(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})); err == nil {
		t.Fatal("ReadWeights accepted garbage header")
	}
	if err := net.ReadWeights(bytes.NewReader(nil)); err == nil {
		t.Fatal("ReadWeights accepted empty stream")
	}
}

// payloadOffset returns the byte offset, in net's weight stream, of the
// first payload value of tensor idx.
func payloadOffset(net *Network, idx int) int {
	off := 12 // magic, version, count
	for i, wt := range net.weightTensors() {
		off += 4 + 4*wt.Rank()
		if i == idx {
			break
		}
		off += 4 * wt.Len()
	}
	return off
}

// A rejected stream must leave the network as it was: ReadWeights used
// to overwrite tensor by tensor as it read, so a stream that failed at
// tensor 2 had already replaced tensors 0 and 1.
func TestReadWeightsRejectsWithoutTouchingTheNetwork(t *testing.T) {
	src := irisSpec().MustBuild(99)
	var buf bytes.Buffer
	if err := src.WriteWeights(&buf); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	corrupt := func(idx int, v float32) []byte {
		bad := append([]byte(nil), stream...)
		binary.LittleEndian.PutUint32(bad[payloadOffset(src, idx):], math.Float32bits(v))
		return bad
	}
	in := tensor.FromSlice([]float32{5.1, 3.5, 1.4, 0.2, -1, 0, 2, 7}, 2, 4)
	for _, tc := range []struct {
		name, wantErr string
		stream        []byte
	}{
		{"truncated inside tensor 2", "tensor 2", stream[:payloadOffset(src, 2)+8]},
		{"NaN in tensor 1", "tensor 1", corrupt(1, float32(math.NaN()))},
		{"+Inf in tensor 4", "tensor 4", corrupt(4, float32(math.Inf(1)))},
		{"-Inf in tensor 0", "tensor 0", corrupt(0, float32(math.Inf(-1)))},
	} {
		dst := irisSpec().MustBuild(1)
		before := dst.Forward(tensor.Serial, in)
		err := dst.ReadWeights(bytes.NewReader(tc.stream))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: ReadWeights error = %v, want one naming %q", tc.name, err, tc.wantErr)
		}
		if after := dst.Forward(tensor.Serial, in); !after.Equal(before) {
			t.Errorf("%s: rejected stream changed the network's outputs", tc.name)
		}
	}
}

// Property: for any seed, building and serialising then restoring into a
// fresh network preserves every forward output bit-exactly.
func TestPropertySerializationFaithful(t *testing.T) {
	f := func(seed int64) bool {
		src := irisSpec().MustBuild(seed)
		dst := irisSpec().MustBuild(seed + 1)
		var buf bytes.Buffer
		if src.WriteWeights(&buf) != nil {
			return false
		}
		if dst.ReadWeights(&buf) != nil {
			return false
		}
		in := tensor.New(1, 4)
		r := rand.New(rand.NewSource(seed))
		for i := range in.Data() {
			in.Data()[i] = r.Float32()
		}
		return src.Forward(tensor.Serial, in.Clone()).Equal(dst.Forward(tensor.Serial, in.Clone()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	for _, spec := range []*Spec{irisSpec(), tinyCNNSpec()} {
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := ParseSpecJSON(raw)
		if err != nil {
			t.Fatal(err)
		}
		if restored.Name != spec.Name || restored.Kind != spec.Kind ||
			restored.Classes != spec.Classes || restored.Act != spec.Act ||
			restored.VGGBlocks != spec.VGGBlocks || restored.SamePad != spec.SamePad {
			t.Fatalf("round trip changed spec: %+v vs %+v", restored, spec)
		}
		if restored.Descriptor() != spec.Descriptor() {
			t.Fatal("round trip changed descriptor")
		}
	}
}

func TestSpecJSONValidation(t *testing.T) {
	cases := []string{
		`{bad json`,
		`{"name":"x","kind":"rnn","input_shape":[4],"classes":2}`,
		`{"name":"x","kind":"ffnn","input_shape":[4],"classes":0}`,
		`{"name":"x","kind":"ffnn","input_shape":[4],"classes":2,"activation":"swish"}`,
		`{"name":"x","kind":"cnn","input_shape":[4],"classes":2}`,
	}
	for i, c := range cases {
		if _, err := ParseSpecJSON([]byte(c)); err == nil {
			t.Fatalf("case %d accepted: %s", i, c)
		}
	}
	// Defaults: kind ffnn, activation relu.
	s, err := ParseSpecJSON([]byte(`{"name":"d","input_shape":[4],"hidden":[8],"classes":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != FFNN || s.Act != tensor.ReLU {
		t.Fatalf("defaults wrong: %+v", s)
	}
}

// Property: the forward pass is batch-split invariant — classifying a
// concatenated batch equals classifying its halves independently. This
// is what lets the scheduler and batcher regroup samples freely.
func TestPropertyForwardBatchSplitInvariant(t *testing.T) {
	net := tinyCNNSpec().MustBuild(90)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		in := tensor.New(n, 1, 12, 12)
		for i := range in.Data() {
			in.Data()[i] = r.Float32()
		}
		whole := net.Forward(tensor.Serial, in.Clone())

		cut := 1 + r.Intn(n-1)
		per := in.Len() / n
		first := tensor.FromSlice(append([]float32(nil), in.Data()[:cut*per]...), cut, 1, 12, 12)
		second := tensor.FromSlice(append([]float32(nil), in.Data()[cut*per:]...), n-cut, 1, 12, 12)
		a := net.Forward(tensor.Serial, first)
		b := net.Forward(tensor.Serial, second)

		for i := 0; i < cut; i++ {
			for j := 0; j < whole.Dim(1); j++ {
				if whole.At(i, j) != a.At(i, j) {
					return false
				}
			}
		}
		for i := cut; i < n; i++ {
			for j := 0; j < whole.Dim(1); j++ {
				if whole.At(i, j) != b.At(i-cut, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
