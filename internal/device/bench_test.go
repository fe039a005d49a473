package device_test

import (
	"testing"

	"bomw/internal/device"
)

// BenchmarkCharge charges a batch of cifar-10 on a discrete GPU through
// the runtime's command sequence: a write, eleven kernel launches and a
// read.
func BenchmarkCharge(b *testing.B) {
	prog := program(b, "cifar-10")
	rt := runtimeOn(b, device.New(device.NvidiaGTX1080Ti()), prog)
	dev := rt.Devices()[0].Name()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Estimate(dev, "cifar-10", 4096, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStateProbe(b *testing.B) {
	d := device.New(device.NvidiaGTX1080Ti())
	d.Warm(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.StateAt(0)
	}
}

func BenchmarkLayerWorkloads(b *testing.B) {
	net := program(b, "cifar-10").Net
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		device.LayerWorkloads(net)
	}
}
