package power

import "bomw/internal/device"

// Accountant implements the paper's component-set energy methodology
// (§IV-C): "we measure the power consumption of all the components that
// are required for the execution" — a dGPU run is charged for the GPU
// board *and* the host CPU orchestrating it; CPU and iGPU runs exclude
// the discrete GPU entirely.
type Accountant struct{}

// EnergyOf returns the total Joules of a report under the paper's
// accounting: the device's own energy plus host-assist energy. (The
// device models already bake this split into their reports; the
// accountant makes the methodology explicit and testable.)
func (Accountant) EnergyOf(rep device.Report) float64 {
	return rep.DeviceEnergyJ + rep.HostEnergyJ
}
