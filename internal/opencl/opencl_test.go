package opencl

import (
	"slices"
	"strings"
	"testing"
	"time"

	"bomw/internal/device"
	"bomw/internal/models"
	"bomw/internal/nn"
	"bomw/internal/tensor"
)

func testDevices() []*device.Device {
	return []*device.Device{
		device.New(device.IntelCoreI7_8700()),
		device.New(device.IntelUHD630()),
		device.New(device.NvidiaGTX1080Ti()),
	}
}

// A runtime's context lists the devices in the order given: an
// accelerator, or a dGPU named first, keeps its place.
func TestNewRuntimeKeepsDeviceOrder(t *testing.T) {
	npu := device.New(device.Profile{Name: "npu", Kind: device.Accelerator, PeakGFLOPS: 100,
		ParallelWidth: 64, WorkGroupSize: 64, MemBandwidthGBs: 10, CacheBytes: 1 << 20,
		WeightReuse: 4, IdleWatts: 1, ActiveWatts: 5})
	devs := testDevices()
	for _, order := range [][]*device.Device{
		devs,
		{npu, devs[2], devs[0], devs[1]},
	} {
		rt, err := NewRuntime(order...)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range rt.Devices() {
			if d.Sim != order[i] {
				t.Fatalf("context device %d is %s, want %s", i, d.Name(), order[i].Name())
			}
		}
	}
}

func TestClDevicePoolsFollowPaperWorkGroups(t *testing.T) {
	for _, d := range testDevices() {
		cd := NewClDevice(d)
		want := d.Profile().WorkGroupSize
		if cd.Pool.GroupSize() != want {
			t.Fatalf("%s: pool group size %d, want %d (§IV-B)", d.Name(), cd.Pool.GroupSize(), want)
		}
	}
}

func TestCreateContextValidation(t *testing.T) {
	if _, err := CreateContext(); err == nil {
		t.Fatal("empty context accepted")
	}
	ctx, err := CreateContext(NewClDevice(testDevices()[0]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.DeviceByName("nope"); err == nil {
		t.Fatal("unknown device accepted")
	}
	if d, err := ctx.DeviceByName("i7-8700 CPU"); err != nil || d == nil {
		t.Fatalf("DeviceByName failed: %v", err)
	}
}

// TestWriteReadBufferRoundTrip runs a real batch on the discrete GPU:
// the input crosses PCIe before the kernels and the results cross back
// after them, each transfer charged and in queue order.
func TestWriteReadBufferRoundTrip(t *testing.T) {
	rt, err := NewRuntime(device.New(device.NvidiaGTX1080Ti()))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.LoadModel(models.Simple().MustBuild(1)); err != nil {
		t.Fatal(err)
	}
	res, log, err := rt.Profile("GTX 1080 Ti", "simple", tensor.New(4, 4), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	write, read := log[0], log[len(log)-1]
	if write.Name != "clEnqueueWriteBuffer" || write.Duration() <= 0 {
		t.Fatalf("first command %s took %v, want a charged write", write.Name, write.Duration())
	}
	if read.Name != "clEnqueueReadBuffer" || read.Duration() <= 0 {
		t.Fatalf("last command %s took %v, want a charged read", read.Name, read.Duration())
	}
	if read.Start < log[len(log)-2].End {
		t.Fatal("in-order queue violated: read started before the last kernel ended")
	}
	if len(res.Classes) != 4 {
		t.Fatalf("%d classes read back, want 4", len(res.Classes))
	}
}

// TestMapBufferZeroCopyOnUnified: on unified memory the input is mapped
// for free and nothing is read back (§IV-B).
func TestMapBufferZeroCopyOnUnified(t *testing.T) {
	rt, err := NewRuntime(testDevices()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.LoadModel(models.Simple().MustBuild(1)); err != nil {
		t.Fatal(err)
	}
	for _, dev := range []string{"i7-8700 CPU", "UHD Graphics 630"} {
		_, log, err := rt.Profile(dev, "simple", nil, 64, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if ev := log[0]; ev.Name != "clEnqueueMapBuffer" || ev.Duration() != 0 {
			t.Fatalf("%s: first command %s took %v, want a free map", dev, ev.Name, ev.Duration())
		}
		for _, ev := range log {
			if ev.Name == "clEnqueueReadBuffer" {
				t.Fatalf("%s: unified memory read its output back", dev)
			}
		}
	}
}

func TestBuildProgramFoldsFlatten(t *testing.T) {
	net := models.MnistCNN().MustBuild(1)
	prog, err := BuildProgram(net)
	if err != nil {
		t.Fatal(err)
	}
	// conv, pool, conv, pool, dense, dense = 6 kernels; flatten folded.
	if len(prog.Kernels) != 6 {
		t.Fatalf("kernels = %d, want 6", len(prog.Kernels))
	}
	for _, k := range prog.Kernels {
		if want := net.Name() + "/" + k.Name; k.Workload.Model != want {
			t.Fatalf("kernel %s charges workload %q, want %q", k.Name, k.Workload.Model, want)
		}
	}
}

// The runtime charges one launch per kernel and classifies the batch
// with the network's own pass: there is no second implementation to
// disagree with Network.Forward.
func TestClassifyOutputIsTheNetworksForward(t *testing.T) {
	rt, err := NewRuntime(testDevices()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"simple", "mnist-cnn"} {
		s, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		net := s.MustBuild(7)
		if err := rt.LoadModel(net); err != nil {
			t.Fatal(err)
		}
		prog, err := rt.Program(name)
		if err != nil {
			t.Fatal(err)
		}
		in := models.Synthesize(s, 6, 3).Batch(0, 6)
		for _, d := range rt.Devices() {
			res, log, err := rt.Profile(d.Name(), name, in, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want := tensor.Argmax(net.Forward(d.Pool, in)); !slices.Equal(res.Classes, want) {
				t.Errorf("%s on %s: Classify labels %v, the argmax of Network.Forward %v", name, d.Name(), res.Classes, want)
			}
			var launches []string
			for _, ev := range log {
				if strings.HasPrefix(ev.Name, "clEnqueueNDRangeKernel:") {
					launches = append(launches, ev.Name)
				}
			}
			if len(launches) != len(prog.Kernels) {
				t.Fatalf("%s on %s: %d kernel launches logged, want %d", name, d.Name(), len(launches), len(prog.Kernels))
			}
			for i, k := range prog.Kernels {
				if want := "clEnqueueNDRangeKernel:" + k.Name; launches[i] != want {
					t.Errorf("%s on %s: launch %d logged as %q, want %q", name, d.Name(), i, launches[i], want)
				}
			}
		}
	}
}

// Charging a batch allocates its Result and nothing else, whatever the
// number of kernels it launches: the charge keeps no per-command log
// (only Profile builds one). Classifying a batch adds its labels, read
// straight from the network's arena.
func TestChargingABatchAllocatesTheSameForAnyKernelCount(t *testing.T) {
	rt, err := NewRuntime(testDevices()...)
	if err != nil {
		t.Fatal(err)
	}
	dev := rt.Devices()[0].Name()
	allocs := map[string]float64{}
	kernels := map[string]int{}
	for _, name := range []string{"simple", "mnist-cnn"} {
		s, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.LoadModel(s.MustBuild(1)); err != nil {
			t.Fatal(err)
		}
		prog, err := rt.Program(name)
		if err != nil {
			t.Fatal(err)
		}
		kernels[name] = len(prog.Kernels)
		allocs[name] = testing.AllocsPerRun(20, func() {
			if _, err := rt.Estimate(dev, name, 8, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	if kernels["simple"] == kernels["mnist-cnn"] {
		t.Fatalf("both models compile to %d kernels: the comparison says nothing", kernels["simple"])
	}
	if allocs["simple"] != allocs["mnist-cnn"] || allocs["simple"] > 1 {
		t.Errorf("Estimate allocates %v times for %d kernels and %v for %d, want 1 (the Result)", allocs["simple"], kernels["simple"], allocs["mnist-cnn"], kernels["mnist-cnn"])
	}
	if raceEnabled {
		return // sync.Pool drops Puts at random under -race, so arenas are remade
	}
	in := models.Synthesize(models.Simple(), 8, 1).Batch(0, 8)
	if n := testing.AllocsPerRun(20, func() {
		if _, err := rt.Classify(dev, "simple", in, 0); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("Classify of 8 simple samples allocates %v times, want at most 2 (the Result and the labels)", n)
	}
}

// Estimate is Classify without the math: for every model and device the
// two log the same commands at the same virtual times for the same
// energy, whichever runs — and Profile's log sums to what the batch was
// charged.
func TestClassifyAndEstimateLogTheSameEvents(t *testing.T) {
	for _, spec := range models.PaperModels() {
		net := spec.MustBuild(1)
		in := models.Synthesize(spec, 4, 3).Batch(0, 4)
		for i := range testDevices() {
			var logs [2][]Event
			var energy [2]float64
			for side := range logs {
				rt, err := NewRuntime(testDevices()[i]) // a fresh device: the same clock and boost state on both sides
				if err != nil {
					t.Fatal(err)
				}
				if err := rt.LoadModel(net); err != nil {
					t.Fatal(err)
				}
				dev := rt.Devices()[0].Name()
				batch := in
				if side == 1 {
					batch = nil
				}
				for _, at := range []time.Duration{0, time.Millisecond} { // the second batch queues behind the first
					res, log, err := rt.Profile(dev, spec.Name, batch, 4, at)
					if err != nil {
						t.Fatal(err)
					}
					var sum float64
					for _, ev := range log {
						sum += ev.Report.EnergyJ()
					}
					if sum != res.EnergyJ || log[0].Start != res.Start || log[len(log)-1].End != res.Completed {
						t.Fatalf("%s on %s: the log spans [%v, %v] for %g J, the result [%v, %v] for %g J",
							spec.Name, dev, log[0].Start, log[len(log)-1].End, sum, res.Start, res.Completed, res.EnergyJ)
					}
					logs[side] = append(logs[side], log...)
					energy[side] += res.EnergyJ
				}
			}
			dev := testDevices()[i].Name()
			if len(logs[0]) != len(logs[1]) || energy[0] != energy[1] {
				t.Fatalf("%s on %s: Classify logged %d events for %g J, Estimate %d for %g J", spec.Name, dev, len(logs[0]), energy[0], len(logs[1]), energy[1])
			}
			for j, c := range logs[0] {
				e := logs[1][j]
				if c.Name != e.Name || c.Queued != e.Queued || c.Start != e.Start || c.End != e.End || c.Report.EnergyJ() != e.Report.EnergyJ() {
					t.Errorf("%s on %s: event %d is %s [%v, %v] %g J under Classify, %s [%v, %v] %g J under Estimate",
						spec.Name, dev, j, c.Name, c.Start, c.End, c.Report.EnergyJ(), e.Name, e.Start, e.End, e.Report.EnergyJ())
				}
			}
		}
	}
}

func TestRuntimeClassifyProducesRealResults(t *testing.T) {
	rt, err := NewRuntime(testDevices()...)
	if err != nil {
		t.Fatal(err)
	}
	spec := models.Simple()
	net := spec.MustBuild(5)
	if err := rt.LoadModel(net); err != nil {
		t.Fatal(err)
	}
	ds := models.Synthesize(spec, 16, 2)
	in := ds.Batch(0, 16)

	var outputs []*tensor.Tensor
	for _, d := range rt.Devices() {
		res, err := rt.Classify(d.Name(), "simple", in.Clone(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Latency() <= 0 || res.EnergyJ <= 0 {
			t.Fatalf("%s: degenerate result %+v", d.Name(), res)
		}
		out := net.Forward(d.Pool, in)
		if want := tensor.Argmax(out); !slices.Equal(res.Classes, want) {
			t.Fatalf("%s: classes %v, want %v", d.Name(), res.Classes, want)
		}
		outputs = append(outputs, out)
	}
	// Every device computes the same real math.
	for i := 1; i < len(outputs); i++ {
		if !outputs[0].ApproxEqual(outputs[i], 1e-5) {
			t.Fatal("devices disagree on classification output")
		}
	}
}

func TestRuntimeEstimateMatchesClassifyTiming(t *testing.T) {
	mk := func() *Runtime {
		rt, err := NewRuntime(testDevices()...)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.LoadModel(models.Simple().MustBuild(5)); err != nil {
			t.Fatal(err)
		}
		return rt
	}
	ds := models.Synthesize(models.Simple(), 64, 2)
	in := ds.Batch(0, 64)
	for _, devName := range []string{"i7-8700 CPU", "GTX 1080 Ti"} {
		a, err := mk().Classify(devName, "simple", in.Clone(), 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := mk().Estimate(devName, "simple", 64, 0)
		if err != nil {
			t.Fatal(err)
		}
		if a.Latency() != b.Latency() {
			t.Fatalf("%s: estimate %v != classify %v", devName, b.Latency(), a.Latency())
		}
		if a.EnergyJ != b.EnergyJ {
			t.Fatalf("%s: estimate energy %g != classify %g", devName, b.EnergyJ, a.EnergyJ)
		}
		if a.Start != b.Start {
			t.Fatalf("%s: estimate starts at %v, classify at %v", devName, b.Start, a.Start)
		}
		if b.Classes != nil {
			t.Fatal("estimate should not produce outputs")
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	rt, _ := NewRuntime(testDevices()...)
	net := models.Simple().MustBuild(1)
	if err := rt.LoadModel(net); err != nil {
		t.Fatal(err)
	}
	if err := rt.LoadModel(net); err == nil {
		t.Fatal("duplicate model load accepted")
	}
	if _, err := rt.Classify("nope", "simple", tensor.New(1, 4), 0); err == nil {
		t.Fatal("unknown device accepted")
	}
	if _, err := rt.Classify("i7-8700 CPU", "nope", tensor.New(1, 4), 0); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := rt.Classify("i7-8700 CPU", "simple", tensor.New(1, 5), 0); err == nil {
		t.Fatal("wrong input shape accepted")
	}
	if _, err := rt.Estimate("i7-8700 CPU", "simple", 0, 0); err == nil {
		t.Fatal("zero batch accepted")
	}
	if _, err := rt.State("nope", 0); err == nil {
		t.Fatal("unknown device state probe accepted")
	}
	if len(rt.Models()) != 1 {
		t.Fatalf("Models = %v", rt.Models())
	}
}

func TestRuntimeStateProbe(t *testing.T) {
	sims := testDevices()
	rt, _ := NewRuntime(sims...)
	st, err := rt.State("GTX 1080 Ti", 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Warm {
		t.Fatal("fresh dGPU should be cold")
	}
	sims[2].Warm(0)
	st, _ = rt.State("GTX 1080 Ti", 0)
	if !st.Warm {
		t.Fatal("warmed dGPU should probe warm")
	}
}

func TestQueueEventsProfiling(t *testing.T) {
	rt, _ := NewRuntime(testDevices()...)
	if err := rt.LoadModel(models.MnistCNN().MustBuild(1)); err != nil {
		t.Fatal(err)
	}
	res, log, err := rt.Profile("GTX 1080 Ti", "mnist-cnn", nil, 256, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// write + 6 kernels + read = 8 events, all in order.
	if len(log) != 8 {
		t.Fatalf("events = %d, want 8", len(log))
	}
	if log[0].Name != "clEnqueueWriteBuffer" || log[7].Name != "clEnqueueReadBuffer" {
		t.Fatalf("event order wrong: %s … %s", log[0].Name, log[7].Name)
	}
	for i := 1; i < len(log); i++ {
		if log[i].Start < log[i-1].End {
			t.Fatalf("event %d starts before predecessor ends", i)
		}
	}
	if res.Submitted != time.Millisecond || res.Completed <= res.Submitted {
		t.Fatalf("submit/complete wrong: %v/%v", res.Submitted, res.Completed)
	}
	// Unified devices log a map instead of a write and skip the read.
	_, log2, _ := rt.Profile("i7-8700 CPU", "mnist-cnn", nil, 256, 0)
	if log2[0].Name != "clEnqueueMapBuffer" || len(log2) != 7 {
		t.Fatalf("unified event log wrong: %d events, first %s", len(log2), log2[0].Name)
	}
}

func TestThroughputGbpsHelper(t *testing.T) {
	r := &Result{Batch: 1000, Submitted: 0, Completed: time.Millisecond}
	if g := r.ThroughputGbps(125); g < 0.999 || g > 1.001 {
		t.Fatalf("ThroughputGbps = %g", g)
	}
	if (&Result{}).ThroughputGbps(125) != 0 {
		t.Fatal("zero-latency throughput should be 0")
	}
}

func TestRuntimeRunsOptimizedNetworks(t *testing.T) {
	// Regression: sparse and fp16 layer types are not the built-in
	// Dense/Conv/MaxPool, and must still compile into kernel pipelines.
	spec := models.Simple()
	net := spec.MustBuild(9)
	if _, err := nn.Prune(net, 0.5); err != nil {
		t.Fatal(err)
	}
	sparse := nn.SparsifyNetwork(net)
	half := nn.HalveNetwork(net)
	rt, err := NewRuntime(testDevices()...)
	if err != nil {
		t.Fatal(err)
	}
	ds := models.Synthesize(spec, 8, 4)
	for _, variant := range []*nn.Network{sparse, half} {
		if err := rt.LoadModel(variant); err != nil {
			t.Fatalf("%s: %v", variant.Name(), err)
		}
		res, err := rt.Classify("i7-8700 CPU", variant.Name(), ds.Batch(0, 8), 0)
		if err != nil {
			t.Fatalf("%s: %v", variant.Name(), err)
		}
		if len(res.Classes) != 8 || res.Latency() <= 0 {
			t.Fatalf("%s: degenerate result", variant.Name())
		}
	}
	// A heavily pruned compute-bound model must be charged less than its
	// dense original (fresh devices so no queueing skews the numbers).
	big := models.MnistSmall().MustBuild(9)
	if _, err := nn.Prune(big, 0.9); err != nil {
		t.Fatal(err)
	}
	bigSparse := nn.SparsifyNetwork(big)
	rt2, err := NewRuntime(device.New(device.IntelCoreI7_8700()))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt2.LoadModel(big); err != nil {
		t.Fatal(err)
	}
	if err := rt2.LoadModel(bigSparse); err != nil {
		t.Fatal(err)
	}
	dense, err := rt2.Estimate("i7-8700 CPU", big.Name(), 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := rt2.Estimate("i7-8700 CPU", bigSparse.Name(), 4096, dense.Completed)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Latency() >= dense.Latency() {
		t.Fatalf("90%%-pruned mnist-small (%v) not cheaper than dense (%v)", sp.Latency(), dense.Latency())
	}
}
