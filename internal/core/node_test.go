package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNodeServesAndObserves(t *testing.T) {
	s := testScheduler(t)
	n := NewNode("node0", s, PipelineConfig{ProbeInterval: -1})
	defer n.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := n.Do(ctx, PipelineRequest{Model: "simple", Policy: LowestLatency, Input: simpleSamples(3)})
	if err != nil || c.Err != nil {
		t.Fatalf("Do: %v / %v", err, c.Err)
	}
	if len(c.Classes) != 3 {
		t.Fatalf("classes = %v", c.Classes)
	}
	if n.State() != NodeReady {
		t.Fatalf("state = %v, want ready", n.State())
	}
	st := n.Stats()
	if st.Name != "node0" || st.State != NodeReady {
		t.Fatalf("stats identity = %q/%v", st.Name, st.State)
	}
	if st.Pipeline.Submitted != 1 || st.Pipeline.Completed != 1 {
		t.Fatalf("pipeline stats = %+v", st.Pipeline)
	}
	if st.Decisions < 1 {
		t.Fatalf("decisions = %d", st.Decisions)
	}
	h := n.Health()
	if !h.Ready || h.State != NodeReady {
		t.Fatalf("health = %+v, want ready", h)
	}
	if h.Devices != len(s.Devices()) || h.Quarantined != 0 {
		t.Fatalf("health devices = %+v", h)
	}
}

// TestNodeReadyMatchesHealth: the router's lock-free readiness read
// gives Health's answer through every way in and out of Ready —
// quarantining the devices one by one, a readmission, ResetDevices,
// and the drain.
func TestNodeReadyMatchesHealth(t *testing.T) {
	s, err := testScheduler(t).Replica(1) // a failure domain of its own
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode("node0", s, PipelineConfig{ProbeInterval: -1})
	check := func(step string, want bool) {
		t.Helper()
		if h := n.Health(); n.Ready() != want || h.Ready != want {
			t.Fatalf("%s: Ready() %t, Health() %+v; want ready %t from both", step, n.Ready(), h, want)
		}
	}
	check("fresh", true)
	devs := s.Devices()
	fail := errors.New("injected")
	for i, d := range devs {
		for k := 0; k < 3; k++ {
			s.ReportExecution(d, fail)
		}
		check(fmt.Sprintf("%d of %d devices quarantined", i+1, len(devs)), i+1 < len(devs))
	}
	s.ReportExecution(devs[0], nil)
	check("one device readmitted", true)
	s.ReportExecution(devs[0], fail)
	s.ReportExecution(devs[0], fail)
	s.ReportExecution(devs[0], fail)
	check("every device quarantined again", false)
	s.ResetDevices()
	check("after ResetDevices", true)
	release := holdDrain(t, n)
	check("draining", false)
	release()
	check("drained", false)
}

func TestNodeDrainRefusesNewWorkAndSettles(t *testing.T) {
	s := testScheduler(t)
	n := NewNode("node0", s, PipelineConfig{ProbeInterval: -1})
	n.Drain()
	if n.State() != NodeDrained {
		t.Fatalf("state after drain = %v, want drained", n.State())
	}
	if _, err := n.Submit(context.Background(), PipelineRequest{Model: "simple", Batch: 4}); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Submit after drain = %v, want ErrNodeDown", err)
	}
	if h := n.Health(); h.Ready {
		t.Fatalf("drained node reports ready: %+v", h)
	}
	n.Drain() // idempotent
	n.Close() // alias, also idempotent
}

// holdDrain starts a Drain that cannot finish: one accepted request is
// held in its device worker, so the node stays Draining until the
// returned release is called. release lets the worker go and waits for
// the drain and the held request.
func holdDrain(t *testing.T, n *Node) (release func()) {
	t.Helper()
	free, held := make(chan struct{}), make(chan struct{})
	var hold sync.Once
	n.testExecHook = func(string) {
		hold.Do(func() { close(held) })
		<-free
	}
	fut, err := n.Submit(context.Background(), PipelineRequest{Model: "simple", Batch: 4})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-held
	drained := make(chan struct{})
	go func() { n.Drain(); close(drained) }()
	for n.State() == NodeReady {
		runtime.Gosched()
	}
	var once sync.Once
	release = func() {
		once.Do(func() {
			close(free)
			<-drained
			if c, err := fut.Wait(context.Background()); err != nil || c.Err != nil {
				t.Errorf("held request: %v / %v", err, c.Err)
			}
		})
	}
	t.Cleanup(release)
	return release
}

func TestNodeDrainingRejectsSubmit(t *testing.T) {
	n := NewNode("node0", testScheduler(t), PipelineConfig{ProbeInterval: -1})
	release := holdDrain(t, n)
	if st := n.State(); st != NodeDraining {
		t.Fatalf("state while the tail is held = %v, want draining", st)
	}
	_, err := n.Submit(context.Background(), PipelineRequest{Model: "simple", Batch: 4})
	if !errors.Is(err, ErrNodeDraining) || !errors.Is(err, ErrPipelineClosed) {
		t.Fatalf("Submit while draining = %v, want ErrNodeDraining and ErrPipelineClosed", err)
	}
	if !strings.Contains(err.Error(), "node0") {
		t.Fatalf("refusal %q does not name the node", err)
	}
	release()
	if st := n.State(); st != NodeDrained {
		t.Fatalf("state = %v, want drained", st)
	}
	_, err = n.Submit(context.Background(), PipelineRequest{Model: "simple", Batch: 4})
	if !errors.Is(err, ErrNodeDown) || !errors.Is(err, ErrPipelineClosed) || !strings.Contains(err.Error(), "node0") {
		t.Fatalf("Submit after drain = %v, want ErrNodeDown and ErrPipelineClosed naming node0", err)
	}
}

// A node that is not Ready refuses before it validates or runs deadline
// admission control: the router fails over on the lifecycle sentinel,
// whatever the request.
func TestNodeDrainingRefusesBeforeValidation(t *testing.T) {
	n := NewNode("node0", testScheduler(t), PipelineConfig{ProbeInterval: -1})
	holdDrain(t, n)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, tc := range map[string]struct {
		ctx context.Context
		req PipelineRequest
	}{
		"unknown model":       {context.Background(), PipelineRequest{Model: "no-such-model", Batch: 1}},
		"zero batch":          {context.Background(), PipelineRequest{Model: "simple"}},
		"cancelled context":   {cancelled, PipelineRequest{Model: "simple", Batch: 1}},
		"infeasible deadline": {context.Background(), PipelineRequest{Model: "simple", Batch: 1, Deadline: time.Nanosecond}},
	} {
		if _, err := n.Submit(tc.ctx, tc.req); !errors.Is(err, ErrNodeDraining) {
			t.Errorf("%s to a draining node = %v, want ErrNodeDraining", name, err)
		}
	}
}

// A Kill overtakes a drain in progress: the node is Killed at once, and
// stays Killed after the drain's tail resolves. Both calls return only
// after every accepted future has resolved.
func TestNodeKillOvertakesDrain(t *testing.T) {
	n := NewNode("node0", testScheduler(t), PipelineConfig{ProbeInterval: -1})
	release := holdDrain(t, n)
	killed := make(chan struct{})
	go func() { n.Kill(); close(killed) }()
	for n.State() == NodeDraining {
		runtime.Gosched()
	}
	if st := n.State(); st != NodeKilled {
		t.Fatalf("state after a kill overtook the drain = %v, want killed", st)
	}
	if _, err := n.Submit(context.Background(), PipelineRequest{Model: "simple", Batch: 1}); !errors.Is(err, ErrNodeDown) || !errors.Is(err, ErrPipelineClosed) {
		t.Fatalf("Submit after kill = %v, want ErrNodeDown and ErrPipelineClosed", err)
	}
	select {
	case <-killed:
		t.Fatal("Kill returned while the drain it joined still held an accepted request")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	<-killed
	if st := n.State(); st != NodeKilled {
		t.Fatalf("state after the drain finished = %v, want killed", st)
	}
}

// A caller that joins a shutdown already running waits for it: when
// Close returns, every accepted future has resolved and been counted.
func TestNodeCloseWaitsForRunningDrain(t *testing.T) {
	n := NewNode("node0", testScheduler(t), PipelineConfig{ProbeInterval: -1})
	release := holdDrain(t, n)
	closed := make(chan struct{})
	go func() { n.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while the drain it joined still held an accepted request")
	case <-time.After(20 * time.Millisecond):
	}
	go release()
	<-closed
	if st := n.Stats().Pipeline; st.Completed != st.Submitted {
		t.Fatalf("Close returned before the accepted tail resolved: %+v", st.Ledger)
	}
	if st := n.State(); st != NodeDrained {
		t.Fatalf("state = %v, want drained", st)
	}
}

func TestNodeKillAfterDrainStaysDrained(t *testing.T) {
	n := NewNode("node0", testScheduler(t), PipelineConfig{ProbeInterval: -1})
	n.Drain()
	n.Kill()
	if st := n.State(); st != NodeDrained {
		t.Fatalf("state after kill-post-drain = %v, want drained", st)
	}
	if _, err := n.Submit(context.Background(), PipelineRequest{Model: "simple", Batch: 1}); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Submit = %v, want ErrNodeDown", err)
	}
}

func TestNodeKillFailsFast(t *testing.T) {
	s := testScheduler(t)
	n := NewNode("node0", s, PipelineConfig{ProbeInterval: -1})
	n.Kill()
	if n.State() != NodeKilled {
		t.Fatalf("state = %v, want killed", n.State())
	}
	if _, err := n.Submit(context.Background(), PipelineRequest{Model: "simple", Batch: 4}); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Submit after kill = %v, want ErrNodeDown", err)
	}
	// A drain after a kill must not resurrect the killed label.
	n.Drain()
	if n.State() != NodeKilled {
		t.Fatalf("state after drain-post-kill = %v, want killed", n.State())
	}
}

// TestNodeDrainUnderLoadResolvesEveryFuture is the drain-ordering
// regression test: submitters hammer the node while Drain races in.
// Every Submit must either hand back a future that resolves, or fail
// fast with the node lifecycle sentinels — a request is never stranded
// between accept and close, and the drain never deadlocks against the
// submitters.
func TestNodeDrainUnderLoadResolvesEveryFuture(t *testing.T) {
	s := testScheduler(t)
	n := NewNode("node0", s, PipelineConfig{ProbeInterval: -1, Window: 200 * time.Microsecond, MaxBatch: 16})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const clients, perClient = 8, 50
	var accepted, resolved, refused atomic.Int64
	errCh := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				fut, err := n.Submit(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 4})
				switch {
				case errors.Is(err, ErrNodeDraining), errors.Is(err, ErrNodeDown), errors.Is(err, ErrAdmissionFull):
					refused.Add(1)
					continue
				case err != nil:
					errCh <- err
					return
				}
				accepted.Add(1)
				if _, err := fut.Wait(ctx); err != nil {
					errCh <- err
					return
				}
				resolved.Add(1)
			}
		}()
	}
	// Let the submitters get going, then drain mid-flight.
	time.Sleep(5 * time.Millisecond)
	drained := make(chan struct{})
	go func() { n.Drain(); close(drained) }()
	wg.Wait()
	select {
	case <-drained:
	case <-ctx.Done():
		t.Fatal("drain deadlocked against submitters")
	}
	close(errCh)
	for err := range errCh {
		t.Fatalf("client failed: %v", err)
	}
	if accepted.Load() != resolved.Load() {
		t.Fatalf("accepted %d futures but only %d resolved", accepted.Load(), resolved.Load())
	}
	st := n.Stats()
	if st.Pipeline.Submitted != accepted.Load() {
		t.Fatalf("node admitted %d, clients saw %d accepts", st.Pipeline.Submitted, accepted.Load())
	}
	if st.Pipeline.Completed != st.Pipeline.Submitted {
		t.Fatalf("drain dropped futures: %+v", st.Pipeline)
	}
	t.Logf("accepted=%d refused=%d", accepted.Load(), refused.Load())
}

// TestSchedulerReplicaServesIdentically checks the fleet scale-out unit:
// a replica shares the template's trained classifiers and dataset, owns
// fresh devices in the same order, and (given the same weight seed)
// classifies identically.
func TestSchedulerReplicaServesIdentically(t *testing.T) {
	tmpl := testScheduler(t)
	rep, err := tmpl.Replica(1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Devices(), tmpl.Devices(); len(got) != len(want) {
		t.Fatalf("replica devices = %v, want %v", got, want)
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("replica device order %v, want %v (classifier class labels must keep naming the same slots)", got, want)
			}
		}
	}
	for _, pol := range []Policy{BestThroughput, LowestLatency, EnergyEfficiency} {
		if rep.Classifier(pol) != tmpl.Classifier(pol) {
			t.Fatalf("replica re-trained %v classifier instead of sharing it", pol)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	nt := NewNode("template", tmpl, PipelineConfig{ProbeInterval: -1})
	defer nt.Close()
	nr := NewNode("replica", rep, PipelineConfig{ProbeInterval: -1})
	defer nr.Close()
	ct, err := nt.Do(ctx, PipelineRequest{Model: "simple", Policy: LowestLatency, Input: simpleSamples(4)})
	if err != nil || ct.Err != nil {
		t.Fatalf("template Do: %v / %v", err, ct.Err)
	}
	cr, err := nr.Do(ctx, PipelineRequest{Model: "simple", Policy: LowestLatency, Input: simpleSamples(4)})
	if err != nil || cr.Err != nil {
		t.Fatalf("replica Do: %v / %v", err, cr.Err)
	}
	if len(ct.Classes) != len(cr.Classes) {
		t.Fatalf("class counts differ: %v vs %v", ct.Classes, cr.Classes)
	}
	for i := range ct.Classes {
		if ct.Classes[i] != cr.Classes[i] {
			t.Fatalf("replica classifies differently: %v vs %v (same seed must give identical weights)", cr.Classes, ct.Classes)
		}
	}
}
