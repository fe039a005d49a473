// Package opencl is a simulated OpenCL 2.1-style runtime mirroring the
// paper's implementation layer (§IV): devices in a context, in-order
// command queues with profiling events, the map-versus-copy staging of
// unified and discrete memory, and compute kernels built from neural
// networks (one kernel per layer, thread-per-node).
//
// The network's plan runs the real tensor math on the host; the command
// queue charges each command's virtual time and energy through the
// device models of internal/device. That sequence is the only cost path:
// Explain decomposes the same charge.
package opencl

import (
	"fmt"

	"bomw/internal/device"
	"bomw/internal/tensor"
)

// ClDevice is an OpenCL view of a simulated processor, carrying the host
// execution pool that actually runs the kernel math. The pool's work-group
// size follows §IV-B: 4096 work-items per group on CPUs, 256 on GPUs.
type ClDevice struct {
	Sim  *device.Device
	Pool *tensor.Pool
}

// Name returns the underlying device name.
func (d *ClDevice) Name() string { return d.Sim.Name() }

// UnifiedMemory reports whether the device shares physical memory with
// the host (CPU and iGPU; §II-A).
func (d *ClDevice) UnifiedMemory() bool { return d.Sim.UnifiedMemory() }

// NewClDevice wraps a simulated device with a host pool sized per §IV-B.
func NewClDevice(sim *device.Device) *ClDevice {
	return &ClDevice{Sim: sim, Pool: tensor.NewPool(0, sim.Profile().WorkGroupSize)}
}

// Context holds the devices a program and its buffers are shared across.
type Context struct {
	Devices []*ClDevice
}

// CreateContext builds a context over the given devices.
func CreateContext(devices ...*ClDevice) (*Context, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("opencl: context needs at least one device")
	}
	return &Context{Devices: devices}, nil
}

// DeviceByName finds a context device.
func (c *Context) DeviceByName(name string) (*ClDevice, error) {
	for _, d := range c.Devices {
		if d.Name() == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("opencl: device %q not in context", name)
}
