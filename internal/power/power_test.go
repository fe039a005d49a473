package power

import (
	"math"
	"strings"
	"testing"
	"time"

	"bomw/internal/core"
	"bomw/internal/device"
	"bomw/internal/models"
	"bomw/internal/opencl"
	"bomw/internal/trace"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// record adds an execution of dev over [start, end) that drew watts.
func record(r *Recorder, dev string, start, end time.Duration, watts float64) {
	r.Record(device.Report{Device: dev, Start: start, Latency: end - start, DeviceEnergyJ: watts * (end - start).Seconds()})
}

func recorderWithOneInterval() *Recorder {
	r := NewRecorder()
	r.Register("gpu", 50)
	record(r, "gpu", ms(100), ms(200), 200)
	return r
}

func TestPowerAtIdleAndActive(t *testing.T) {
	r := recorderWithOneInterval()
	if got := r.PowerAt("gpu", ms(50)); got != 50 {
		t.Fatalf("idle power = %g, want 50", got)
	}
	if got := r.PowerAt("gpu", ms(150)); got != 200 {
		t.Fatalf("active power = %g, want 200", got)
	}
	if got := r.PowerAt("gpu", ms(200)); got != 50 {
		t.Fatalf("power at interval end = %g, want idle 50", got)
	}
	if got := r.PowerAt("unknown", ms(0)); got != 0 {
		t.Fatalf("unknown device power = %g, want 0", got)
	}
}

func TestEnergyBetweenMixesIdleAndActive(t *testing.T) {
	r := recorderWithOneInterval()
	// [0, 300ms): 200ms idle at 50W + 100ms active at 200W = 10 + 20 J.
	got := r.EnergyBetween("gpu", 0, ms(300))
	if math.Abs(got-30) > 1e-9 {
		t.Fatalf("energy = %g, want 30", got)
	}
	// Window clipped to half the interval.
	got = r.EnergyBetween("gpu", ms(150), ms(200))
	if math.Abs(got-10) > 1e-9 {
		t.Fatalf("clipped energy = %g, want 10", got)
	}
	if r.EnergyBetween("gpu", ms(200), ms(100)) != 0 {
		t.Fatal("inverted window should integrate to zero")
	}
}

func TestRecordFromDeviceReport(t *testing.T) {
	r := NewRecorder()
	r.Register(device.NvidiaGTX1080Ti().Name, device.NvidiaGTX1080Ti().IdleWatts)
	d := device.New(device.NvidiaGTX1080Ti())
	rep := d.Execute(0, device.Workload{
		Model: "m", FlopsPerSample: 1e6, SampleBytes: 64, OutputBytes: 8,
		WeightBytes: 1024, ActivationBytes: 64, ItemsPerSample: 100, Kernels: 1, AvgLayerWidth: 100,
	}, 1024)
	r.Record(rep)
	name := device.NvidiaGTX1080Ti().Name
	mid := rep.Start + rep.Latency/2
	if got := r.PowerAt(name, mid); got <= device.NvidiaGTX1080Ti().IdleWatts {
		t.Fatalf("mid-execution power %g should exceed idle", got)
	}
	e := r.EnergyBetween(name, rep.Start, rep.Start+rep.Latency)
	if math.Abs(e-rep.DeviceEnergyJ)/rep.DeviceEnergyJ > 1e-6 {
		t.Fatalf("integrated energy %g, want report's %g", e, rep.DeviceEnergyJ)
	}
	// Zero-latency reports are ignored.
	r.Record(device.Report{Device: name})
}

func TestOverlappingIntervalsTakeMax(t *testing.T) {
	r := NewRecorder()
	r.Register("d", 10)
	record(r, "d", 0, ms(100), 50)
	record(r, "d", ms(50), ms(150), 80)
	if got := r.PowerAt("d", ms(75)); got != 80 {
		t.Fatalf("overlapping power = %g, want max 80", got)
	}
}

func TestNvidiaSMIQuery(t *testing.T) {
	r := recorderWithOneInterval()
	smi := &NvidiaSMI{Rec: r, Device: "gpu", Limit: 250}
	if got := smi.PowerDraw(ms(150)); got != 200 {
		t.Fatalf("PowerDraw = %g", got)
	}
	q := smi.Query(ms(150))
	if !strings.Contains(q, "200.0W / 250W") || !strings.HasPrefix(q, "P0") {
		t.Fatalf("Query = %q, want P0 200.0W / 250W", q)
	}
	if q := smi.Query(ms(10)); !strings.HasPrefix(q, "P8") {
		t.Fatalf("idle Query = %q, want P8 state", q)
	}
}

func TestPCMPackageAggregation(t *testing.T) {
	r := NewRecorder()
	r.Register("cpu", 8)
	r.Register("igpu", 2)
	record(r, "cpu", 0, time.Second, 60)
	record(r, "igpu", 0, time.Second, 18)
	pcm := &PCM{Rec: r, CPU: "cpu", IGPU: "igpu"}
	if got := pcm.PackagePower(ms(50)); got != 78 {
		t.Fatalf("PackagePower = %g, want 78", got)
	}
	if got := pcm.PackageEnergy(0, ms(100)); math.Abs(got-7.8) > 1e-9 {
		t.Fatalf("PackageEnergy = %g, want 7.8", got)
	}
	solo := &PCM{Rec: r, CPU: "cpu"}
	if got := solo.PackagePower(ms(50)); got != 60 {
		t.Fatalf("cores-only PackagePower = %g, want 60", got)
	}
}

func TestAccountantEfficiency(t *testing.T) {
	var a Accountant
	rep := device.Report{Batch: 100, DeviceEnergyJ: 4, HostEnergyJ: 1, Latency: time.Second}
	if a.EnergyOf(rep) != 5 {
		t.Fatalf("EnergyOf = %g, want 5", a.EnergyOf(rep))
	}
}

// recordLog feeds every command of a batch's profiling log into r, as
// the paper's nvidia-smi and PCM loops see the device executing them.
func recordLog(r *Recorder, log []opencl.Event) {
	for _, ev := range log {
		r.Record(ev.Report)
	}
}

func TestMonitorRecordsExecutions(t *testing.T) {
	rt, err := opencl.NewRuntime(
		device.New(device.IntelCoreI7_8700()),
		device.New(device.NvidiaGTX1080Ti()),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.LoadModel(models.MnistSmall().MustBuild(1)); err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	for _, d := range rt.Devices() {
		rec.Register(d.Name(), d.Sim.Profile().IdleWatts)
	}
	res, log, err := rt.Profile("GTX 1080 Ti", "mnist-small", nil, 8192, 0)
	if err != nil {
		t.Fatal(err)
	}
	recordLog(rec, log)
	mid := res.Submitted + res.Latency()/2
	if p := rec.PowerAt("GTX 1080 Ti", mid); p <= device.NvidiaGTX1080Ti().IdleWatts {
		t.Fatalf("mid-run board power %g should exceed idle", p)
	}
	after := res.Completed + time.Second
	if p := rec.PowerAt("GTX 1080 Ti", after); p != device.NvidiaGTX1080Ti().IdleWatts {
		t.Fatalf("post-run power %g should be the idle floor", p)
	}
	smi := &NvidiaSMI{Rec: rec, Device: "GTX 1080 Ti", Limit: 250}
	if q := smi.Query(mid); !strings.Contains(q, "/ 250W") {
		t.Fatalf("smi query = %q", q)
	}
	pcm := &PCM{Rec: rec, CPU: "i7-8700 CPU"}
	if pcm.PackagePower(mid) <= 0 {
		t.Fatal("PCM should read the CPU idle floor at least")
	}
}

func TestMonitorOverSchedulerReplay(t *testing.T) {
	// End-to-end instrumentation: replay a trace through a scheduler,
	// record every command it executed, and verify the power trace shows
	// device activity where executions happened.
	sched, err := core.New(core.Config{
		TrainModels: models.PaperModels(),
		Batches:     []int{8, 8192, 65536},
		Reps:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.LoadModel(models.MnistSmall(), 1); err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	for _, d := range sched.Runtime().Devices() {
		rec.Register(d.Name(), d.Sim.Profile().IdleWatts)
	}
	tr, err := trace.Poisson(20, 100, []string{"mnist-small"}, []int{8192, 65536}, 3)
	if err != nil {
		t.Fatal(err)
	}
	var makespan time.Duration
	for _, req := range tr {
		dec, err := sched.Select(req.Model, req.Batch, core.BestThroughput, req.At)
		if err != nil {
			t.Fatal(err)
		}
		res, log, err := sched.Runtime().Profile(dec.Device, req.Model, nil, req.Batch, req.At)
		if err != nil {
			t.Fatal(err)
		}
		recordLog(rec, log)
		makespan = max(makespan, res.Completed)
	}
	// Some device must have drawn above-idle power during the replay.
	active := false
	for _, name := range sched.Devices() {
		idle := rec.PowerAt(name, makespan+time.Hour)
		for at := time.Duration(0); at < makespan; at += makespan / 200 {
			if rec.PowerAt(name, at) > idle+1 {
				active = true
			}
		}
	}
	if !active {
		t.Fatal("recorder saw no device activity over a 20-request replay")
	}
	var total float64
	for _, name := range sched.Devices() {
		total += rec.EnergyBetween(name, 0, makespan)
	}
	if total <= 0 {
		t.Fatal("integrated energy non-positive")
	}
}
