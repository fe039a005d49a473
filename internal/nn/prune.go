package nn

import (
	"fmt"

	"bomw/internal/tensor"
)

// Magnitude pruning and sparse inference — the sparsification line the
// paper cites as orthogonal, adoptable device-side optimisation (§VII,
// refs [14]-[16]): dropping small weights shrinks a model's FLOP and
// byte footprint, which the device cost models translate directly into
// faster, cheaper classification.

// PruneStats summarises one pruning pass.
type PruneStats struct {
	LayersPruned int
	WeightsTotal int
	WeightsZero  int
	// FlopsBefore/After are whole-network per-sample costs assuming
	// sparse execution of the pruned layers.
	FlopsBefore int64
	FlopsAfter  int64
}

// Prune zeroes the smallest-magnitude fraction of every Dense layer's
// weights in place. Convolutions are left untouched (filter pruning is a
// different technique). Returns per-network statistics.
func Prune(net *Network, fraction float64) (PruneStats, error) {
	if fraction < 0 || fraction >= 1 {
		return PruneStats{}, fmt.Errorf("nn: prune fraction must be in [0,1), got %g", fraction)
	}
	stats := PruneStats{FlopsBefore: net.FlopsPerSample()}
	for _, l := range net.Layers() {
		d, ok := l.(*Dense)
		if !ok {
			continue
		}
		stats.LayersPruned++
		stats.WeightsTotal += d.W.Len()
		stats.WeightsZero += tensor.PruneMagnitude(d.W, fraction)
	}
	// Sparse execution skips zeroed MACs.
	stats.FlopsAfter = stats.FlopsBefore - 2*int64(stats.WeightsZero)
	return stats, nil
}

// SparseDense is a pruned fully connected layer executing in CSR form:
// compute and weight traffic scale with surviving non-zeros.
type SparseDense struct {
	W   *tensor.CSRMatrix
	B   *tensor.Tensor
	Act tensor.Activation
}

// Sparsify converts a (typically pruned) Dense layer to CSR execution.
func Sparsify(d *Dense) *SparseDense {
	return &SparseDense{W: tensor.NewCSR(d.W, 0), B: d.B, Act: d.Act}
}

// Forward implements Layer.
func (l *SparseDense) Forward(pool *tensor.Pool, in *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(in.Dim(0), l.W.Rows)
	l.ForwardInto(pool, in, out)
	return out
}

// ForwardInto implements Layer.
func (l *SparseDense) ForwardInto(pool *tensor.Pool, in, out *tensor.Tensor) {
	tensor.MatMulCSRInto(pool, out, in, l.W)
	tensor.AddBiasRows(pool, out, l.B)
	l.Act.Apply(pool, out)
}

// OutputShape implements Layer.
func (l *SparseDense) OutputShape(in []int) []int { return denseShape(l, in, l.W.Cols, l.W.Rows) }

// FlopsPerSample implements Layer: two flops per stored non-zero.
func (l *SparseDense) FlopsPerSample(in []int) int64 {
	return 2*int64(l.W.NNZ()) + int64(l.W.Rows)*(1+l.Act.FlopsPerElement())
}

// ParamBytes implements Layer.
func (l *SparseDense) ParamBytes() int64 { return l.W.SizeBytes() + l.B.SizeBytes() }

// Name implements Layer.
func (l *SparseDense) Name() string {
	return fmt.Sprintf("sparse-dense(%d→%d,%.0f%%,%s)", l.W.Cols, l.W.Rows, 100*l.W.Density(), l.Act)
}

// SparsifyNetwork rebuilds a network with every Dense layer converted to
// sparse execution. The original network is unchanged.
func SparsifyNetwork(net *Network) *Network {
	layers := make([]Layer, 0, len(net.Layers()))
	for _, l := range net.Layers() {
		if d, ok := l.(*Dense); ok {
			layers = append(layers, Sparsify(d))
		} else {
			layers = append(layers, l)
		}
	}
	return NewNetwork(net.Name()+"-sparse", net.InputShape(), layers...)
}

// HalfDense is a Dense layer whose weights live in fp16 storage (the
// half-precision optimisation of the paper's ref [4]): half the weight
// bytes, float32 arithmetic. Compute cost is unchanged; the device
// models reward the reduced memory traffic on bandwidth-bound layers.
type HalfDense struct {
	W   *tensor.HalfTensor
	B   *tensor.Tensor
	Act tensor.Activation

	expanded *tensor.Tensor // float32 view, materialised once
}

// Halve converts a Dense layer to fp16 weight storage.
func Halve(d *Dense) *HalfDense {
	h := &HalfDense{W: tensor.NewHalf(d.W), B: d.B, Act: d.Act}
	h.expanded = h.W.Expand()
	return h
}

// Forward implements Layer.
func (l *HalfDense) Forward(pool *tensor.Pool, in *tensor.Tensor) *tensor.Tensor {
	return tensor.Linear(pool, in, l.expanded, l.B, l.Act)
}

// ForwardInto implements Layer.
func (l *HalfDense) ForwardInto(pool *tensor.Pool, in, out *tensor.Tensor) {
	tensor.LinearInto(pool, out, in, l.expanded, l.B, l.Act)
}

// linear returns the kernel's operands for the plan, as Dense's does.
func (l *HalfDense) linear() (w, bias *tensor.Tensor, act tensor.Activation) {
	return l.expanded, l.B, l.Act
}

// OutputShape implements Layer.
func (l *HalfDense) OutputShape(in []int) []int {
	return denseShape(l, in, l.W.Shape()[1], l.W.Shape()[0])
}

// FlopsPerSample implements Layer.
func (l *HalfDense) FlopsPerSample(in []int) int64 {
	out := int64(l.W.Shape()[0])
	return int64(2*l.W.Shape()[1]+1)*out + l.Act.FlopsPerElement()*out
}

// ParamBytes implements Layer: the fp16 footprint.
func (l *HalfDense) ParamBytes() int64 { return l.W.SizeBytes() + l.B.SizeBytes() }

// Name implements Layer.
func (l *HalfDense) Name() string {
	return fmt.Sprintf("half-dense(%d→%d,%s)", l.W.Shape()[1], l.W.Shape()[0], l.Act)
}

// HalveNetwork rebuilds a network with fp16 weight storage on every
// Dense layer.
func HalveNetwork(net *Network) *Network {
	layers := make([]Layer, 0, len(net.Layers()))
	for _, l := range net.Layers() {
		if d, ok := l.(*Dense); ok {
			layers = append(layers, Halve(d))
		} else {
			layers = append(layers, l)
		}
	}
	return NewNetwork(net.Name()+"-fp16", net.InputShape(), layers...)
}
