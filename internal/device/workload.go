package device

import (
	"bomw/internal/nn"
)

// Workload is the device-independent cost summary of one kernel launch:
// one layer of a model's classification pass, extracted once from a
// built network (LayerWorkloads). The device models consume only these
// aggregates.
type Workload struct {
	Model string
	// FlopsPerSample is the floating-point work the kernel does for one
	// sample.
	FlopsPerSample int64
	// WeightBytes is the layer's parameter footprint staged on the
	// device.
	WeightBytes int64
	// ActivationBytes is the mean of the layer's input and output tensor
	// bytes per sample: the kernel reads one and writes the other.
	ActivationBytes int64
	// ItemsPerSample is the number of OpenCL work-items one sample
	// spawns (thread-per-node, §IV-B): the kernel's concurrency.
	ItemsPerSample int64
}

// isReshape reports whether a layer moves no data and runs no compute
// (Flatten): such layers are not kernels. Any other layer type — built
// in or user defined (sparse, fp16, future custom layers) — is charged
// as one kernel launch.
func isReshape(l nn.Layer) bool {
	_, ok := l.(nn.Flatten)
	return ok
}

// LayerWorkloads splits a network into one Workload per kernel launch,
// preserving per-layer parallelism so kernel utilisation follows each
// layer's own width. Pure reshapes fold into their consumer (§IV-B).
func LayerWorkloads(net *nn.Network) []Workload {
	var out []Workload
	shape := net.InputShape()
	inBytes := int64(4)
	for _, d := range shape {
		inBytes *= int64(d)
	}
	for _, l := range net.Layers() {
		outShape := l.OutputShape(shape)
		outBytes := int64(4)
		items := int64(1)
		for _, d := range outShape {
			outBytes *= int64(d)
			items *= int64(d)
		}
		if !isReshape(l) {
			out = append(out, Workload{
				Model:           net.Name() + "/" + l.Name(),
				FlopsPerSample:  l.FlopsPerSample(shape),
				WeightBytes:     l.ParamBytes(),
				ActivationBytes: (inBytes + outBytes) / 2,
				ItemsPerSample:  items,
			})
		}
		shape = outShape
		inBytes = outBytes
	}
	return out
}
