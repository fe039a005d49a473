package core

import (
	"fmt"
	"testing"
	"time"

	"bomw/internal/trace"
)

func TestObserveUpdatesHealth(t *testing.T) {
	s := testScheduler(t)
	res, dec, err := s.Estimate("mnist-small", 4096, LowestLatency, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Observe(dec, res); err != nil {
		t.Fatal(err)
	}
	slow, degraded := s.DeviceHealth(dec.Device)
	if degraded {
		t.Fatal("uncontended device flagged degraded")
	}
	if slow < 0.5 || slow > 1.5 {
		t.Fatalf("healthy slowdown estimate %.2f, want ≈1", slow)
	}
	if err := s.Observe(dec, nil); err == nil {
		t.Fatal("Observe(nil) accepted")
	}
}

func TestHealthMonitorDetectsInterference(t *testing.T) {
	s := testScheduler(t)
	// Find which device the scheduler prefers, then slam it with an
	// external tenant.
	first, err := s.Select("mnist-small", 4096, LowestLatency, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range s.cfg.Devices {
		if d.Name() == first.Device {
			d.SetSlowdown(5)
		}
	}
	// A few observed executions must push the EWMA past the threshold.
	at := time.Duration(0)
	for i := 0; i < 4; i++ {
		res, err := s.rt.Estimate(first.Device, "mnist-small", 4096, at)
		if err != nil {
			t.Fatal(err)
		}
		at = res.Completed
		if err := s.Observe(Decision{Model: "mnist-small", Batch: 4096, Device: first.Device}, res); err != nil {
			t.Fatal(err)
		}
	}
	slow, degraded := s.DeviceHealth(first.Device)
	if !degraded {
		t.Fatalf("5x contended device not flagged (estimate %.2f)", slow)
	}
	// The next decision must route around the contended device.
	dec, err := s.Select("mnist-small", 4096, LowestLatency, at)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Device == first.Device {
		t.Fatal("scheduler kept using the degraded device")
	}
	if !dec.Spilled {
		t.Fatal("interference reroute should count as a spill")
	}
}

func TestHealthRecovers(t *testing.T) {
	s := testScheduler(t)
	first, err := s.Select("mnist-small", 4096, LowestLatency, 0)
	if err != nil {
		t.Fatal(err)
	}
	var dev = first.Device
	for _, d := range s.cfg.Devices {
		if d.Name() == dev {
			d.SetSlowdown(5)
		}
	}
	at := time.Duration(0)
	for i := 0; i < 4; i++ {
		res, _ := s.rt.Estimate(dev, "mnist-small", 4096, at)
		at = res.Completed
		if err := s.Observe(Decision{Model: "mnist-small", Batch: 4096, Device: dev}, res); err != nil {
			t.Fatal(err)
		}
	}
	if _, degraded := s.DeviceHealth(dev); !degraded {
		t.Fatal("device should be degraded")
	}
	// Interference clears; healthy observations bring the EWMA back.
	for _, d := range s.cfg.Devices {
		if d.Name() == dev {
			d.SetSlowdown(1)
		}
	}
	for i := 0; i < 6; i++ {
		res, _ := s.rt.Estimate(dev, "mnist-small", 4096, at)
		at = res.Completed
		if err := s.Observe(Decision{Model: "mnist-small", Batch: 4096, Device: dev}, res); err != nil {
			t.Fatal(err)
		}
	}
	if _, degraded := s.DeviceHealth(dev); degraded {
		t.Fatal("device should have recovered")
	}
}

func TestReplayRoutesAroundInterference(t *testing.T) {
	// End to end: a replay with the preferred device contended should
	// end up cheaper than naively pinning to that device. No queue is
	// ever an hour deep, and a negative threshold switches the queue
	// spill off, so in both cases only the observed slowdown ratio can
	// move work away; with the default threshold, the 8× device's
	// backlog alone would.
	for _, maxDelay := range []time.Duration{time.Hour, -1} {
		t.Run(fmt.Sprintf("MaxQueueDelay=%v", maxDelay), func(t *testing.T) {
			replayRoutesAroundInterference(t, maxDelay)
		})
	}
}

func replayRoutesAroundInterference(t *testing.T, maxDelay time.Duration) {
	s := smallScheduler(t, Config{MaxQueueDelay: maxDelay})
	tr, err := trace.Poisson(60, 50, []string{"mnist-small"}, []int{4096, 32768}, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline replay to find the dominant device.
	base, err := s.Replay(tr, LowestLatency)
	if err != nil {
		t.Fatal(err)
	}
	dominant, max := "", 0
	for dev, n := range base.PerDevice {
		if n > max {
			dominant, max = dev, n
		}
	}
	// Contend it. Replay resets devices, so apply slowdown inside a
	// wrapper replay: set after reset via fresh replay with prepared
	// devices — simplest is to re-run Select/Estimate manually.
	s.ResetDevices()
	for _, d := range s.cfg.Devices {
		if d.Name() == dominant {
			d.SetSlowdown(8)
		}
	}
	var adaptiveSum time.Duration
	movedAway := 0
	for _, req := range tr {
		res, dec, err := s.Estimate(req.Model, req.Batch, LowestLatency, req.At)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Observe(dec, res); err != nil {
			t.Fatal(err)
		}
		adaptiveSum += res.Latency()
		if dec.Device != dominant {
			movedAway++
		}
	}
	if movedAway == 0 {
		t.Fatal("scheduler never adapted to the contended device")
	}
	// Pinned-to-contended baseline for the same trace.
	for _, d := range s.cfg.Devices {
		d.Reset()
		if d.Name() == dominant {
			d.SetSlowdown(8)
		}
	}
	var pinnedSum time.Duration
	for _, req := range tr {
		res, err := s.rt.Estimate(dominant, req.Model, req.Batch, req.At)
		if err != nil {
			t.Fatal(err)
		}
		pinnedSum += res.Latency()
	}
	if adaptiveSum >= pinnedSum {
		t.Fatalf("adaptive (%v) did not beat pinned-to-contended (%v)", adaptiveSum, pinnedSum)
	}
}
