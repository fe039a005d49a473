// Package core implements the paper's primary contribution: the online,
// adaptive, device-agnostic scheduler of §V and Fig. 5, together with the
// Dispatcher of Fig. 2 that builds models, stages their weights and loads
// them onto every available processing device.
//
// The scheduler reads classification requests, probes the state of the
// discrete GPU over (simulated) PCIe, assembles the feature vector of
// §V-B — architecture descriptor, batch size, GPU state — and asks a
// trained classifier (a random forest by default) for the device that
// best serves the active policy: best throughput, lowest latency or
// energy efficiency. It adapts online: device queues are observed, so
// overloads spill to the next-ranked device, and every decision re-probes
// the GPU clock state.
package core

import (
	"bytes"
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"bomw/internal/nn"
	"bomw/internal/opencl"
)

// Dispatcher realises Fig. 2: the Model Building Module turns an
// architecture spec into a network, the Weights Building Module
// serialises the trained weights into buffers, and the resulting models
// are loaded into each of the available processing devices through the
// OpenCL runtime.
//
// The process holds every weight once. On this port the devices run on
// host memory, so the network the Model Building Module built is the
// copy each device reads; the serialised buffer is written when someone
// asks for it (WeightBytes), not staged beside the network for as long
// as the model is loaded. And a built network is immutable, so the
// dispatchers of a fleet's nodes register one network between them
// (Register) instead of one each.
type Dispatcher struct {
	rt *opencl.Runtime

	// models is the table of registered models, copied on write: Spec
	// sits on the serving pipeline's per-request admission path, so
	// readers load the current map without a lock, while Register (rare:
	// models register once) replaces it under mu.
	models atomic.Pointer[map[string]loadedModel]
	mu     sync.Mutex
}

// loadedModel is one registered model: the network, and the spec and
// seed it was built from — what a replica needs to tell whether the
// weights it is asked for are the ones already built.
type loadedModel struct {
	spec *nn.Spec
	seed int64
	net  *nn.Network
}

// NewDispatcher wraps a runtime.
func NewDispatcher(rt *opencl.Runtime) *Dispatcher {
	d := &Dispatcher{rt: rt}
	d.models.Store(&map[string]loadedModel{})
	return d
}

// model looks a registered model up without a lock.
func (d *Dispatcher) model(name string) (loadedModel, error) {
	if m, ok := (*d.models.Load())[name]; ok {
		return m, nil
	}
	return loadedModel{}, fmt.Errorf("core: model %q not loaded", name)
}

// Load performs the full Fig. 2 cycle for one model: build from the spec
// (1-2) and load model plus weights into every device (5). A name that
// is already loaded is refused before anything is built.
func (d *Dispatcher) Load(spec *nn.Spec, seed int64) (*nn.Network, error) {
	if _, err := d.model(spec.Name); err == nil {
		return nil, fmt.Errorf("core: model %q already loaded", spec.Name)
	}
	net, err := spec.Build(seed) // Model Building Module
	if err != nil {
		return nil, err
	}
	if err := d.Register(spec, seed, net); err != nil {
		return nil, err
	}
	return net, nil
}

// Register loads a network that is already built — spec.Build(seed), by
// this dispatcher's caller or by another node's dispatcher — into every
// device of this runtime. Nothing is copied: every dispatcher a network
// is registered with serves from the same weights.
func (d *Dispatcher) Register(spec *nn.Spec, seed int64, net *nn.Network) error {
	if net.Name() != spec.Name {
		return fmt.Errorf("core: network %q registered under spec %q", net.Name(), spec.Name)
	}
	if err := d.rt.LoadModel(net); err != nil { // load into devices; refuses a loaded name
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	next := maps.Clone(*d.models.Load())
	next[spec.Name] = loadedModel{spec: spec, seed: seed, net: net}
	d.models.Store(&next)
	return nil
}

// Spec returns the registered spec for a model. Lock-free: this is the
// admission hot path (once per Submit).
func (d *Dispatcher) Spec(model string) (*nn.Spec, error) {
	m, err := d.model(model)
	return m.spec, err
}

// Network returns the built network for a model.
func (d *Dispatcher) Network(model string) (*nn.Network, error) {
	m, err := d.model(model)
	return m.net, err
}

// WeightBytes is the Weights Building Module of Fig. 2: the model's
// weights serialised into one buffer (nn.Network.ReadWeights reads it
// back), written afresh for each call.
func (d *Dispatcher) WeightBytes(model string) ([]byte, error) {
	net, err := d.Network(model)
	if err != nil {
		return nil, err
	}
	// The stream is the parameters plus a few words of shape per tensor.
	buf := bytes.NewBuffer(make([]byte, 0, net.ParamBytes()+1024))
	if err := net.WriteWeights(buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Models lists loaded model names, sorted so API responses and test
// goldens are stable regardless of load order or map iteration.
func (d *Dispatcher) Models() []string {
	return sortedNames(*d.models.Load())
}

// loaded snapshots the registered models in name order.
func (d *Dispatcher) loaded() []loadedModel {
	models := *d.models.Load()
	names := sortedNames(models)
	out := make([]loadedModel, len(names))
	for i, name := range names {
		out[i] = models[name]
	}
	return out
}

func sortedNames(models map[string]loadedModel) []string {
	names := make([]string, 0, len(models))
	for name := range models {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
