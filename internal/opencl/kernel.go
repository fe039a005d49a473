package opencl

import (
	"fmt"

	"bomw/internal/device"
	"bomw/internal/nn"
)

// Kernel is one compiled compute kernel as the device models see it: the
// per-launch cost summary of one layer. The paper develops two kernel
// families — one for FFNN layers, one for CNN layers (§IV-B); here every
// layer type lowers to its own kernel, with reshape-only layers folded
// into their successor for free. The host math is not per kernel: it is
// the network's plan (nn.Network.Forward), which the runtime runs once
// per batch.
type Kernel struct {
	Name     string
	Workload device.Workload
	// event is the name a launch of this kernel carries in the profiling
	// log, "clEnqueueNDRangeKernel:" + Name: spelt once here, not once
	// per launch.
	event string
}

// Program is a network compiled for execution through command queues:
// the network, whose plan computes a batch, and the ordered kernel
// launches a batch is charged for. It is immutable once built, so one
// Program may be loaded into any number of runtimes.
type Program struct {
	Net     *nn.Network
	Kernels []*Kernel
}

// BuildProgram compiles a network into a kernel pipeline. Weight-bearing
// and pooling layers become kernels; Flatten (a pure reshape on row-major
// unified buffers) launches nothing.
func BuildProgram(net *nn.Network) (*Program, error) {
	layerLoads := device.LayerWorkloads(net)
	p := &Program{Net: net}
	for _, l := range net.Layers() {
		if _, ok := l.(nn.Flatten); ok {
			continue
		}
		if len(p.Kernels) == len(layerLoads) {
			return nil, fmt.Errorf("opencl: layer/workload count mismatch in %s", net.Name())
		}
		name := l.Name()
		p.Kernels = append(p.Kernels, &Kernel{Name: name, Workload: layerLoads[len(p.Kernels)], event: "clEnqueueNDRangeKernel:" + name})
	}
	if len(p.Kernels) != len(layerLoads) {
		return nil, fmt.Errorf("opencl: compiled %d kernels for %d workloads in %s", len(p.Kernels), len(layerLoads), net.Name())
	}
	return p, nil
}
