package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Decision audit trail: a bounded ring of recent scheduling decisions,
// exportable as JSON. Operators use it to answer "what did the scheduler
// do during the incident?" — the logging counterpart of cmd/explain's
// "why would it?".

// AuditEntry is one recorded decision with its arrival time. A
// deadline-routed decision (SelectWithDeadline) carries the deadline it
// was routed against and no policy; a classifier-ranked one carries its
// policy and a zero deadline.
type AuditEntry struct {
	Seq      int64         `json:"seq"`
	At       time.Duration `json:"at_us"` // virtual arrival time, µs in JSON
	Model    string        `json:"model"`
	Batch    int           `json:"batch"`
	Policy   string        `json:"policy"`
	Deadline time.Duration `json:"deadline_us"` // µs in JSON
	Device   string        `json:"device"`
	GPUWarm  bool          `json:"gpu_warm"`
	Spilled  bool          `json:"spilled"`
	Decision time.Duration `json:"decision_us"` // wall decision cost
}

// MarshalJSON renders durations as integer microseconds.
func (e AuditEntry) MarshalJSON() ([]byte, error) {
	type wire struct {
		Seq        int64  `json:"seq"`
		AtMicros   int64  `json:"at_us"`
		Model      string `json:"model"`
		Batch      int    `json:"batch"`
		Policy     string `json:"policy"`
		DeadlineUS int64  `json:"deadline_us"`
		Device     string `json:"device"`
		GPUWarm    bool   `json:"gpu_warm"`
		Spilled    bool   `json:"spilled"`
		DecisionUS int64  `json:"decision_us"`
	}
	return json.Marshal(wire{
		Seq: e.Seq, AtMicros: e.At.Microseconds(), Model: e.Model, Batch: e.Batch,
		Policy: e.Policy, DeadlineUS: e.Deadline.Microseconds(), Device: e.Device, GPUWarm: e.GPUWarm, Spilled: e.Spilled,
		DecisionUS: e.Decision.Microseconds(),
	})
}

// auditLog is a fixed-capacity ring buffer.
type auditLog struct {
	mu   sync.Mutex
	buf  []AuditEntry
	next int64 // total entries ever recorded
	cap  int
}

func newAuditLog(capacity int) *auditLog {
	if capacity <= 0 {
		capacity = 256
	}
	return &auditLog{buf: make([]AuditEntry, 0, capacity), cap: capacity}
}

func (a *auditLog) record(e AuditEntry) {
	a.mu.Lock()
	defer a.mu.Unlock()
	e.Seq = a.next
	a.next++
	if len(a.buf) < a.cap {
		a.buf = append(a.buf, e)
		return
	}
	a.buf[int(e.Seq)%a.cap] = e
}

// recent returns up to n most recent entries, oldest first.
func (a *auditLog) recent(n int) []AuditEntry {
	a.mu.Lock()
	defer a.mu.Unlock()
	total := int(a.next)
	have := len(a.buf)
	if n <= 0 || n > have {
		n = have
	}
	out := make([]AuditEntry, 0, n)
	for i := total - n; i < total; i++ {
		out = append(out, a.buf[i%a.cap])
	}
	return out
}

// EnableAudit switches on decision recording with the given ring
// capacity (≤0 selects 256). Call before serving traffic.
func (s *Scheduler) EnableAudit(capacity int) {
	s.audit.Store(newAuditLog(capacity))
}

// RecentDecisions returns up to n recorded decisions, oldest first
// (empty when auditing is off).
func (s *Scheduler) RecentDecisions(n int) []AuditEntry {
	a := s.audit.Load()
	if a == nil {
		return nil
	}
	return a.recent(n)
}

// WriteAuditJSON streams up to n recent decisions as a JSON array.
func (s *Scheduler) WriteAuditJSON(w io.Writer, n int) error {
	entries := s.RecentDecisions(n)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(entries); err != nil {
		return fmt.Errorf("core: encoding audit log: %w", err)
	}
	return nil
}
