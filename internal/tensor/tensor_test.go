package tensor

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	tt := New(2, 3, 4)
	if tt.Rank() != 3 {
		t.Fatalf("Rank = %d, want 3", tt.Rank())
	}
	if tt.Len() != 24 {
		t.Fatalf("Len = %d, want 24", tt.Len())
	}
	if tt.Dim(0) != 2 || tt.Dim(1) != 3 || tt.Dim(2) != 4 {
		t.Fatalf("Shape = %v, want [2 3 4]", tt.Shape())
	}
	for _, v := range tt.Data() {
		if v != 0 {
			t.Fatal("New tensor not zero-filled")
		}
	}
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1, 2)
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	tt := New(3, 4)
	tt.Set(7.5, 2, 1)
	if got := tt.At(2, 1); got != 7.5 {
		t.Fatalf("At(2,1) = %g, want 7.5", got)
	}
	// Row-major layout: offset of (2,1) in a 3x4 tensor is 2*4+1 = 9.
	if tt.Data()[9] != 7.5 {
		t.Fatal("row-major offset incorrect")
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	tt := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	tt.At(2, 0)
}

func TestAtWrongRankPanics(t *testing.T) {
	tt := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At with wrong rank did not panic")
		}
	}()
	tt.At(1)
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.Set(99, 0, 0)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares backing data")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("Clone not equal to original")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.Set(42, 0, 0)
	if a.At(0, 0) != 42 {
		t.Fatal("Reshape should share data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reshape with wrong volume did not panic")
		}
	}()
	a.Reshape(4, 2)
}

func TestRowView(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	r := a.Row(1)
	if len(r) != 3 || r[0] != 4 || r[2] != 6 {
		t.Fatalf("Row(1) = %v, want [4 5 6]", r)
	}
	r[0] = -1
	if a.At(1, 0) != -1 {
		t.Fatal("Row should be a view")
	}
}

func TestFillAndEqual(t *testing.T) {
	a := New(2, 2)
	a.Fill(3)
	b := FromSlice([]float32{3, 3, 3, 3}, 2, 2)
	if !a.Equal(b) {
		t.Fatal("Fill/Equal mismatch")
	}
	c := FromSlice([]float32{3, 3, 3, 3}, 4)
	if a.Equal(c) {
		t.Fatal("Equal ignored shape")
	}
}

func TestApproxEqual(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{1.0005, 2}, 2)
	if !a.ApproxEqual(b, 1e-3) {
		t.Fatal("ApproxEqual too strict")
	}
	if a.ApproxEqual(b, 1e-5) {
		t.Fatal("ApproxEqual too lax")
	}
}

func TestStringTruncates(t *testing.T) {
	a := New(100)
	s := a.String()
	if !strings.Contains(s, "more") {
		t.Fatalf("String() should truncate long tensors: %s", s)
	}
	b := FromSlice([]float32{1, 2}, 2)
	if !strings.Contains(b.String(), "1, 2") {
		t.Fatalf("short String() = %s", b.String())
	}
}

func TestSizeBytes(t *testing.T) {
	if got := New(10, 10).SizeBytes(); got != 400 {
		t.Fatalf("SizeBytes = %d, want 400", got)
	}
}

// Property: for any data, FromSlice→Clone→Equal holds, and reshaping to a
// factored shape preserves the element sequence.
func TestPropertyCloneEqual(t *testing.T) {
	f := func(raw []float32) bool {
		tt := FromSlice(raw, len(raw))
		return tt.Equal(tt.Clone())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	d := t.Data()
	for i := range d {
		d[i] = float32(rng.NormFloat64())
	}
	return t
}

// A tensor costs its data and one header: the shape lives in the
// header's allocation, and the variadic shape stays on the caller's
// stack.
func TestNewMakesTwoAllocations(t *testing.T) {
	data := make([]float32, 24)
	for name, tc := range map[string]struct {
		want float64
		make func() *Tensor
	}{
		"New":       {2, func() *Tensor { return New(2, 3, 4) }},
		"FromSlice": {1, func() *Tensor { return FromSlice(data, 2, 3, 4) }},
		"Reshape":   {1, func() *Tensor { return benchSink.Reshape(4, 6) }},
	} {
		benchSink = New(2, 3, 4)
		if got := testing.AllocsPerRun(20, func() { benchSink = tc.make() }); got != tc.want {
			t.Errorf("%s makes %v allocations, want %v", name, got, tc.want)
		}
	}
	if five := New(1, 2, 3, 4, 5); five.Rank() != 5 || five.Len() != 120 || five.Dim(4) != 5 {
		t.Errorf("rank-5 tensor = %v", five.Shape())
	}
}

func TestRebindReslicesInPlace(t *testing.T) {
	buf := make([]float32, 4*6)
	for i := range buf {
		buf[i] = float32(i)
	}
	v := New(0, 2, 3)
	if allocs := testing.AllocsPerRun(10, func() { v.Rebind(buf, 3) }); allocs != 0 {
		t.Errorf("Rebind allocates %v times", allocs)
	}
	if v.Dim(0) != 3 || v.Len() != 18 || v.At(2, 1, 2) != 17 {
		t.Fatalf("view of 3 samples = %v", v)
	}
	v.Set(-1, 0, 0, 0)
	if buf[0] != -1 {
		t.Error("the view does not share the buffer")
	}
	v.Rebind(buf, 1)
	if v.Dim(0) != 1 || v.Len() != 6 {
		t.Fatalf("view of 1 sample = %v", v)
	}
	defer func() {
		if recover() == nil {
			t.Error("a view of more samples than the buffer holds was accepted")
		}
	}()
	v.Rebind(buf, 5)
}
