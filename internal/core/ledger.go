package core

// Ledger is the request accounting every tier reports — pipeline, node
// row and fleet embed it, so a counter is declared, named on the wire
// and summed in one place.
type Ledger struct {
	Submitted  int64 `json:"submitted"`  // requests accepted into admission
	Shed       int64 `json:"shed"`       // requests rejected with ErrAdmissionFull
	Infeasible int64 `json:"infeasible"` // requests rejected with ErrDeadlineInfeasible (admission control)
	Cancelled  int64 `json:"cancelled"`  // admitted requests culled: context ended before execution
	Expired    int64 `json:"expired"`    // admitted requests culled: deadline passed before execution
	Failed     int64 `json:"failed"`     // admitted requests resolved with an execution error
	Completed  int64 `json:"completed"`  // futures resolved (including failures and culls)
	Batches    int64 `json:"batches"`    // aggregated batches dispatched
	InFlight   int64 `json:"in_flight"`  // batches queued or executing now
}

// Add sums o into l field by field — the fleet roll-up over node rows.
func (l *Ledger) Add(o Ledger) {
	l.Submitted += o.Submitted
	l.Shed += o.Shed
	l.Infeasible += o.Infeasible
	l.Cancelled += o.Cancelled
	l.Expired += o.Expired
	l.Failed += o.Failed
	l.Completed += o.Completed
	l.Batches += o.Batches
	l.InFlight += o.InFlight
}

// Attainment is ok completions over admitted requests, 1 when nothing
// was admitted yet.
func (l Ledger) Attainment() float64 {
	if l.Submitted <= 0 {
		return 1
	}
	return float64(l.Submitted-l.Cancelled-l.Expired-l.Failed) / float64(l.Submitted)
}
