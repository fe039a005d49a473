package cluster

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"bomw/internal/core"
	"bomw/internal/models"
)

// liveHeap is the heap in use after two collections (the second frees
// what the first one's pool clean-up released).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// A fleet built from a template serves every node from the template's
// networks: an extra node costs its pipeline and devices, not another
// 57 MB of weights, the nodes answer alike because they read the same
// floats, and two of them running the same network at once share nothing
// that is written (run under -race).
func TestFleetSharesOneCopyOfTheWeights(t *testing.T) {
	tmpl, err := core.New(core.Config{TrainModels: models.PaperModels(), Batches: []int{8, 512, 8192}, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range models.PaperModels() {
		if err := tmpl.LoadModel(spec, 1); err != nil {
			t.Fatal(err)
		}
	}
	const n = 4
	before := liveHeap()
	c, nodes, err := Build(tmpl, n, 1, core.PipelineConfig{ProbeInterval: -1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if grew := int64(liveHeap()) - int64(before); grew > (n-1)*2<<20 {
		t.Errorf("a %d-node fleet holds %.1f MB more than its template, want under 2 MB per extra node", n, float64(grew)/1e6)
	}
	for _, name := range tmpl.Dispatcher().Models() {
		want, _ := tmpl.Dispatcher().Network(name)
		for _, nd := range nodes {
			if got, _ := nd.Scheduler().Dispatcher().Network(name); got != want {
				t.Errorf("%s serves %s from a network of its own", nd.Name(), name)
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	in := models.Synthesize(models.MnistCNN(), 8, 3).Batch(0, 8)
	classify := func(nd *core.Node) []int {
		done, err := nd.Do(ctx, core.PipelineRequest{Model: "mnist-cnn", Policy: core.LowestLatency, Input: in})
		if err == nil {
			err = done.Err
		}
		if err != nil {
			t.Errorf("%s: %v", nd.Name(), err)
		}
		return done.Classes
	}
	want := classify(nodes[0])
	if len(want) != 8 {
		t.Fatalf("node0 returned %d classes for 8 samples", len(want))
	}
	var wg sync.WaitGroup
	for _, nd := range nodes[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if got := classify(nd); !reflect.DeepEqual(got, want) {
					t.Errorf("%s classifies %v, node0 %v", nd.Name(), got, want)
				}
			}
		}()
	}
	wg.Wait()

	// Another seed is another model: such a replica draws its own.
	other, err := tmpl.Replica(2)
	if err != nil {
		t.Fatal(err)
	}
	shared, _ := tmpl.Dispatcher().Network("mnist-cnn")
	if own, _ := other.Dispatcher().Network("mnist-cnn"); own == shared {
		t.Error("a replica with another seed was handed the template's weights")
	}
}
