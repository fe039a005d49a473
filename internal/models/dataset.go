package models

import (
	"fmt"
	"math/rand"

	"bomw/internal/nn"
	"bomw/internal/tensor"
)

// Dataset is a labelled batch of samples in the input shape of one model.
// Synthetic datasets substitute for Iris, MNIST and CIFAR-10: inference
// *performance* (the quantity the paper evaluates) depends only on tensor
// shapes, but the samples still carry per-class structure so that
// end-to-end classification demos behave sensibly.
type Dataset struct {
	Name    string
	X       *tensor.Tensor // [n, sampleShape...]
	Y       []int
	Classes int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// Batch returns a view-free copy of samples [lo, hi).
func (d *Dataset) Batch(lo, hi int) *tensor.Tensor {
	if lo < 0 || hi > d.Len() || lo >= hi {
		panic(fmt.Sprintf("models: bad batch range [%d,%d) of %d", lo, hi, d.Len()))
	}
	per := d.X.Len() / d.Len()
	shape := append([]int{hi - lo}, d.X.Shape()[1:]...)
	out := tensor.New(shape...)
	copy(out.Data(), d.X.Data()[lo*per:hi*per])
	return out
}

// Synthesize generates n deterministic samples shaped for the given model
// spec. Each class is a Gaussian cluster around a class-specific centroid,
// so simple models can separate them; labels cycle through the classes so
// every class is populated.
func Synthesize(spec *nn.Spec, n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	shape := append([]int{n}, spec.InputShape...)
	x := tensor.New(shape...)
	y := make([]int, n)
	per := x.Len() / n

	// One centroid pattern per class, fixed by the seed.
	centroids := make([][]float32, spec.Classes)
	for c := range centroids {
		centroids[c] = make([]float32, per)
		for i := range centroids[c] {
			centroids[c][i] = rng.Float32()
		}
	}
	data := x.Data()
	for i := 0; i < n; i++ {
		c := i % spec.Classes
		y[i] = c
		row := data[i*per : (i+1)*per]
		for j := range row {
			row[j] = centroids[c][j] + 0.15*float32(rng.NormFloat64())
		}
	}
	return &Dataset{Name: spec.Name, X: x, Y: y, Classes: spec.Classes}
}
