package core

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// auditScheduler is a private replica of the shared fixture: audit,
// once enabled, stays on, so an audit test that enabled it on the shared
// scheduler would make every later test record decisions.
func auditScheduler(t *testing.T) *Scheduler {
	t.Helper()
	s, err := testScheduler(t).Replica(1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAuditDisabledByDefault(t *testing.T) {
	s := auditScheduler(t)
	if _, err := s.Select("simple", 8, LowestLatency, 0); err != nil {
		t.Fatal(err)
	}
	if got := s.RecentDecisions(10); got != nil {
		t.Fatalf("audit off but recorded %d entries", len(got))
	}
}

func TestAuditRecordsDecisions(t *testing.T) {
	s := auditScheduler(t)
	s.EnableAudit(8)
	for i := 0; i < 5; i++ {
		if _, err := s.Select("mnist-small", 512<<i, BestThroughput, 0); err != nil {
			t.Fatal(err)
		}
	}
	entries := s.RecentDecisions(0)
	if len(entries) != 5 {
		t.Fatalf("recorded %d entries, want 5", len(entries))
	}
	for i, e := range entries {
		if e.Seq != int64(i) {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
		if e.Model != "mnist-small" || e.Batch != 512<<i || e.Policy != "best-throughput" {
			t.Fatalf("entry %d wrong: %+v", i, e)
		}
		if e.Device == "" {
			t.Fatal("device missing from audit entry")
		}
	}
	// Limited read returns the most recent, oldest first.
	last2 := s.RecentDecisions(2)
	if len(last2) != 2 || last2[0].Seq != 3 || last2[1].Seq != 4 {
		t.Fatalf("RecentDecisions(2) = %+v", last2)
	}
}

// TestAuditRecordsDeadlineRoutedDecisions: a batch routed on its
// deadline (SelectWithDeadline) lands in the audit ring like a
// policy-ranked one, marked with the deadline it was routed against, so
// every decision the scheduler counts has its entry.
func TestAuditRecordsDeadlineRoutedDecisions(t *testing.T) {
	s := auditScheduler(t)
	s.EnableAudit(8)
	p := NewPipeline(s, PipelineConfig{ProbeInterval: -1})
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, deadline := range []time.Duration{time.Second, -1} {
		c, err := p.Do(ctx, PipelineRequest{Model: "mnist-small", Policy: BestThroughput, Batch: 4, Deadline: deadline})
		if err != nil || c.Err != nil {
			t.Fatalf("deadline %v: %v / %v", deadline, err, c.Err)
		}
	}
	entries := s.RecentDecisions(0)
	if n := s.Stats().Decisions; len(entries) != 2 || n != 2 {
		t.Fatalf("%d decisions counted, %d recorded, want 2 and 2: %+v", n, len(entries), entries)
	}
	routed, ranked := entries[0], entries[1]
	if routed.Deadline <= 0 || routed.Deadline > time.Second || routed.Policy != "" || routed.Device == "" {
		t.Fatalf("deadline-routed entry = %+v, want its deadline in (0, 1s] and no policy", routed)
	}
	if ranked.Deadline != 0 || ranked.Policy != "best-throughput" || ranked.Device == "" {
		t.Fatalf("policy-ranked entry = %+v, want no deadline and its policy", ranked)
	}
}

func TestAuditRingWraps(t *testing.T) {
	s := auditScheduler(t)
	s.EnableAudit(4)
	for i := 0; i < 10; i++ {
		if _, err := s.Select("simple", 8, LowestLatency, 0); err != nil {
			t.Fatal(err)
		}
	}
	entries := s.RecentDecisions(0)
	if len(entries) != 4 {
		t.Fatalf("ring holds %d entries, want 4", len(entries))
	}
	if entries[0].Seq != 6 || entries[3].Seq != 9 {
		t.Fatalf("ring kept wrong window: %d..%d", entries[0].Seq, entries[3].Seq)
	}
}

func TestAuditJSONExport(t *testing.T) {
	s := auditScheduler(t)
	s.EnableAudit(16)
	if _, err := s.Select("mnist-small", 4096, EnergyEfficiency, 0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteAuditJSON(&buf, 10); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 {
		t.Fatalf("decoded %d entries", len(decoded))
	}
	for _, key := range []string{"seq", "at_us", "model", "batch", "policy", "deadline_us", "device", "decision_us"} {
		if _, ok := decoded[0][key]; !ok {
			t.Fatalf("JSON missing %q: %s", key, buf.String())
		}
	}
	if !strings.Contains(buf.String(), "energy-efficiency") {
		t.Fatal("policy name missing from export")
	}
}
