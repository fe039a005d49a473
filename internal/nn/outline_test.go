package nn_test

import (
	"reflect"
	"runtime"
	"testing"

	"bomw/internal/device"
	"bomw/internal/models"
	"bomw/internal/nn"
	"bomw/internal/tensor"
)

// An outline must answer every question about shape and cost as the
// built network does: the device models and the kernel compiler are
// handed one in place of the other.
func TestOutlineDescribesTheBuiltNetwork(t *testing.T) {
	specs := append(models.AllModels(), models.UnseenModels()...)
	specs = append(specs, blockCNN())
	for _, spec := range specs {
		built := spec.MustBuild(1)
		outline, err := spec.Outline()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if got, want := outline.String(), built.String(); got != want {
			t.Errorf("%s: outline is %s, built network %s", spec.Name, got, want)
		}
		for _, q := range []struct {
			what      string
			got, want any
		}{
			{"InputShape", outline.InputShape(), built.InputShape()},
			{"Classes", outline.Classes(), built.Classes()},
			{"SampleBytes", outline.SampleBytes(), built.SampleBytes()},
			{"FlopsPerSample", outline.FlopsPerSample(), built.FlopsPerSample()},
			{"ParamBytes", outline.ParamBytes(), built.ParamBytes()},
			{"ActivationBytesPerSample", outline.ActivationBytesPerSample(), built.ActivationBytesPerSample()},
			{"device.LayerWorkloads", device.LayerWorkloads(outline), device.LayerWorkloads(built)},
		} {
			if !reflect.DeepEqual(q.got, q.want) {
				t.Errorf("%s: %s of the outline is %v, of the built network %v", spec.Name, q.what, q.got, q.want)
			}
		}
		shape := built.InputShape()
		for i, l := range built.Layers() {
			o := outline.Layers()[i]
			if o.Name() != l.Name() || o.ParamBytes() != l.ParamBytes() || o.FlopsPerSample(shape) != l.FlopsPerSample(shape) {
				t.Errorf("%s layer %d: outline %s (%d B, %d flops), built %s (%d B, %d flops)", spec.Name, i,
					o.Name(), o.ParamBytes(), o.FlopsPerSample(shape), l.Name(), l.ParamBytes(), l.FlopsPerSample(shape))
			}
			shape = l.OutputShape(shape)
		}
	}
}

func TestOutlineHoldsNoWeightsAndCannotRun(t *testing.T) {
	spec := models.MnistDeep() // 50 MB built
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	outline, err := spec.Outline()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<10 {
		t.Errorf("outlining %s allocated %d bytes; its weights are %d", spec.Name, grew, outline.ParamBytes())
	}
	cnn, err := models.MnistCNN().Outline()
	if err != nil {
		t.Fatal(err)
	}
	dense, conv := outline.Layers()[0], cnn.Layers()[0]
	in, img := tensor.New(1, 784), tensor.New(1, 1, 28, 28)
	for what, run := range map[string]func(){
		"Network.Forward":   func() { outline.Forward(tensor.Serial, in) },
		"dense Forward":     func() { dense.Forward(tensor.Serial, in) },
		"dense ForwardInto": func() { dense.ForwardInto(tensor.Serial, in, tensor.New(1, dense.OutputShape([]int{784})[0])) },
		"conv Forward":      func() { conv.Forward(tensor.Serial, img) },
		"conv ForwardInto": func() {
			conv.ForwardInto(tensor.Serial, img, tensor.New(append([]int{1}, conv.OutputShape([]int{1, 28, 28})...)...))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an outline did not panic", what)
				}
			}()
			run()
		}()
	}
	if _, err := (&nn.Spec{Name: "bad", Kind: nn.FFNN, InputShape: []int{4}}).Outline(); err == nil {
		t.Error("Outline accepted a spec Build refuses")
	}
}
