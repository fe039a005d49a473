package fault

import (
	"fmt"
	"sync"
	"testing"
)

// TestInjectorStreamsAreIndependent: one injector serves a whole fleet,
// so nodes execute on it concurrently. Each (node, device) stream must
// draw exactly what it draws alone, however the others interleave.
func TestInjectorStreamsAreIndependent(t *testing.T) {
	const runs = 200
	plan := Plan{Seed: 3, Faults: []Fault{{Node: AllNodes, Effect: Err, P: 0.5}}}
	devices := []string{"cpu", "gpu"}
	sequence := func(in *Injector, node int, device string) string {
		out := make([]byte, runs)
		for i := range out {
			out[i] = '.'
			if fail, _ := in.Exec(fmt.Sprintf("node%d", node), node, device, 0); fail != "" {
				out[i] = 'x'
			}
		}
		return string(out)
	}
	alone := map[string]string{}
	for node := range testNodes {
		for _, dev := range devices {
			alone[fmt.Sprint(node, dev)] = sequence(NewInjector(plan), node, dev)
		}
	}

	shared := NewInjector(plan)
	var mu sync.Mutex
	got := map[string]string{}
	var wg sync.WaitGroup
	for node := range testNodes {
		for _, dev := range devices {
			wg.Add(1)
			go func(node int, dev string) {
				defer wg.Done()
				seq := sequence(shared, node, dev)
				shared.Counts(node, "")
				mu.Lock()
				got[fmt.Sprint(node, dev)] = seq
				mu.Unlock()
			}(node, dev)
		}
	}
	wg.Wait()
	if len(got) != len(alone) {
		t.Fatalf("%d streams ran, want %d", len(got), len(alone))
	}
	for key, want := range alone {
		if got[key] != want {
			t.Errorf("stream %s drew %s sharing the injector, %s alone", key, got[key], want)
		}
	}
	if c := shared.Counts(0, ""); c.Executions != 2*runs {
		t.Fatalf("node0 counts %+v, want %d executions", c, 2*runs)
	}
}
