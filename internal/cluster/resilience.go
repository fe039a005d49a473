package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"bomw/internal/core"
)

// Cluster-aware hedging and straggler migration — PR 4's device-level
// tail tolerance lifted across the routing tier.
//
// A deadline request entering a resilient cluster (NodeHedge or
// Straggler enabled) is wrapped in a *submission*: a detached future
// (core.NewDetachedFuture) presented to the caller, behind which one or
// more node attempts race. Each attempt submits under its own
// cancellable child context and a relay goroutine forwards the node
// future's completion into the detached one; the Resolve CAS makes the
// first result win and every later one a discard. Losing attempts are
// cancelled, and the pipeline's exactly-once delivery arbitrates the
// race between cancellation and execution on the node.
//
// Hedging: when half a request's slack is spent with no completion —
// predicted at submit time from the primary node's own completion
// estimate, or observed live by a timer on the fleet clock — a backup
// submission launches on the next-best node.
//
// Migration: the sweep cancels the pending (queued, not yet executing)
// submissions of a node that went suspect or chaos-down; the pipeline
// culls the queued ones, each relay observes the scripted cancellation
// cause and resubmits on a healthy node. A request already executing
// wins its delivery CAS against the cull and completes normally — only
// genuinely queued work moves.

// Cancellation causes the relays dispatch on. Both are internal: the
// caller only ever sees its own ctx error or a real completion.
var (
	errMigrated   = errors.New("cluster: submission migrated off a degraded node")
	errHedgeLoser = errors.New("cluster: hedge lost the completion race")
)

// submission is one deadline request's cluster-side arbitration state.
type submission struct {
	//bomw:ctxparam submission is the per-request carrier of the hedging/migration race: relays and resubmits must observe the caller's cancellation long after Submit returned
	ctx context.Context
	c   *Cluster
	req core.PipelineRequest
	det *core.Future

	// live counts attempts whose relay has not finished; the last relay
	// to exit without resolving the detached future must resolve it with
	// its own completion — a submission never strands its caller.
	live atomic.Int32

	mu      sync.Mutex
	tried   map[string]bool                     // node names already attempted
	cancels map[*member]context.CancelCauseFunc // live attempts' cancels
	hedged  bool                                // a hedge was launched
	timer   core.Timer                          // reactive hedge trigger, if armed
}

// attemptKind labels why an attempt launched (primary, hedge, migrate).
type attemptKind int

const (
	attemptPrimary attemptKind = iota
	attemptHedge
	attemptMigrate
)

// resilientFor reports whether this request takes the arbitration path:
// only deadline-carrying requests, and only when a resilience feature
// is on — everything else keeps the zero-overhead direct path.
func (c *Cluster) resilientFor(req core.PipelineRequest) bool {
	return req.Deadline > 0 && (c.cfg.NodeHedge || c.cfg.Straggler)
}

// newSubmission opens the arbitration state of one deadline request;
// Submit's failover loop then tries primary on the policy's order. The
// submission's attempts read a copy of the input: a losing attempt may
// still be executing when the winner resolves the caller's future, and
// from then on the caller's input is the caller's again
// (core.PipelineRequest.Input).
func (c *Cluster) newSubmission(ctx context.Context, req core.PipelineRequest) *submission {
	if req.Input != nil {
		req.Input = req.Input.Clone()
	}
	return &submission{
		ctx:     ctx,
		c:       c,
		req:     req,
		det:     core.NewDetachedFuture(),
		tried:   make(map[string]bool, 2),
		cancels: make(map[*member]context.CancelCauseFunc, 2),
	}
}

// primary is the arbitration path's attempt on m: what a successful
// admission returns is the shared detached future, with the node attempt
// registered for migration and (optionally) a hedge armed behind it.
func (s *submission) primary(m *member) (*core.Future, error) {
	if err := s.launch(m, attemptPrimary); err != nil {
		return nil, err
	}
	s.armHedge(m)
	return s.det, nil
}

// launch submits one attempt on m under a cancellable child context and
// starts its relay. Attempt registration (tried, cancels, the member's
// pending set) happens before the relay can observe a completion, so a
// migration sweeping the member always sees a registered attempt or a
// finished one — never a half-registered one.
func (s *submission) launch(m *member, kind attemptKind) error {
	nodeCtx, cancel := context.WithCancelCause(s.ctx)
	fut, err := m.node.Submit(nodeCtx, s.req)
	if err != nil {
		cancel(nil)
		return err
	}
	s.live.Add(1)
	s.mu.Lock()
	s.tried[m.node.Name()] = true
	s.cancels[m] = cancel
	s.mu.Unlock()
	m.pendMu.Lock()
	if m.pending == nil {
		m.pending = make(map[*submission]context.CancelCauseFunc)
	}
	m.pending[s] = cancel
	m.pendMu.Unlock()
	s.c.relays.Add(1)
	go s.relay(nodeCtx, m, fut, kind)
	return nil
}

// relay forwards one node attempt's completion into the detached
// future, or — when the attempt was migrated off a degraded node before
// executing — resubmits it on a healthy one.
func (s *submission) relay(nodeCtx context.Context, m *member, fut *core.Future, kind attemptKind) {
	defer s.c.relays.Done()
	comp, _ := fut.Wait(context.Background()) // node pipelines resolve every future, even through drain/kill
	m.pendMu.Lock()
	delete(m.pending, s)
	m.pendMu.Unlock()
	s.mu.Lock()
	delete(s.cancels, m)
	s.mu.Unlock()

	if comp.Err != nil && errors.Is(comp.Err, context.Canceled) && s.ctx.Err() == nil {
		// The node-side cancel fired, not the caller's: this attempt was
		// scripted away (migration or a lost hedge), it did not fail.
		switch cause := context.Cause(nodeCtx); {
		case errors.Is(cause, errMigrated) && !s.det.Resolved():
			// Relaunch elsewhere; whether that worked or the fleet had no
			// target, resolution belongs to whichever attempt finishes
			// last (finishAttempt), never to this relay directly — a
			// failed migration must not steal the race from a live hedge.
			s.c.benignCancels.Add(1)
			_ = s.migrate(m)
			s.finishAttempt(comp)
			return
		case errors.Is(cause, errHedgeLoser):
			s.c.benignCancels.Add(1)
			s.finishAttempt(comp)
			return
		}
	}
	if comp.Err != nil && s.live.Load() > 1 {
		// First *successful* result wins: a failed attempt (deadline
		// cull on a straggler, execution error) must not steal the
		// caller's future while a sibling is still racing — if every
		// attempt fails, the last one out resolves with its error.
		s.finishAttempt(comp)
		return
	}
	if s.det.Resolve(comp) {
		if kind == attemptHedge && comp.Err == nil {
			s.c.nodeHedgeWins.Add(1)
		}
		s.cancelSiblings(m)
		s.stopTimer()
	}
	s.finishAttempt(comp)
}

// finishAttempt retires one attempt; the last attempt out must leave
// the detached future resolved (zero lost futures, whatever raced).
func (s *submission) finishAttempt(comp core.Completion) {
	if s.live.Add(-1) == 0 && !s.det.Resolved() {
		s.det.Resolve(comp)
	}
}

// migrate relaunches this submission on the best healthy node not yet
// tried. Called from the relay of a cancelled attempt, so the request
// is provably not executing anywhere.
func (s *submission) migrate(from *member) error {
	c := s.c
	m := c.pickUntried(s, from)
	if m == nil {
		return fmt.Errorf("cluster: no migration target for %s", s.req.Model)
	}
	if err := s.launch(m, attemptMigrate); err != nil {
		return err
	}
	m.routed.Add(1)
	m.rerouted.Add(1)
	c.migrations.Add(1)
	return nil
}

// pickUntried routes among eligible members this submission has not
// tried, excluding from. Returns nil when the fleet has no candidate.
func (c *Cluster) pickUntried(s *submission, from *member) *member {
	sc := getScratch()
	defer putScratch(sc)
	views := c.eligible(sc)
	if len(views) == 0 {
		return nil
	}
	order := c.cfg.Policy.Route(Request{
		Model: s.req.Model,
		Batch: s.req.Batch,
		SLO:   routeSLO(s.req),
		Now:   c.cfg.Clock.Now(),
	}, views, sc.order)
	sc.order = order // keep a grown backing for the scratch's next use
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, pos := range order {
		if pos < 0 || pos >= len(views) {
			continue
		}
		m := c.members[views[pos].Index]
		if m == from || s.tried[m.node.Name()] {
			continue
		}
		return m
	}
	return nil
}

// armHedge decides how the backup launches behind the primary on m:
// when the primary's own completion estimate already eats more than
// half the slack, hedge immediately; otherwise arm the classic trigger
// at half the slack on the fleet clock, for the straggler whose stall
// no estimate foresaw.
func (s *submission) armHedge(m *member) {
	c := s.c
	if !c.cfg.NodeHedge {
		return
	}
	size := s.req.Batch
	if s.req.Input != nil && s.req.Input.Rank() >= 1 {
		size = s.req.Input.Dim(0)
	}
	feasible, pred, err := m.node.FeasibleWithin(s.req.Model, size, s.req.Deadline, c.cfg.Clock.Now())
	if err == nil && (!feasible || pred > s.req.Deadline/2) {
		s.fireHedge(m)
		return
	}
	s.mu.Lock()
	if !s.det.Resolved() {
		s.timer = c.cfg.Clock.AfterFunc(s.req.Deadline/2, func() { s.fireHedge(m) })
	}
	s.mu.Unlock()
}

// fireHedge launches the backup submission on the next-best untried
// node, racing the primary for the detached future.
func (s *submission) fireHedge(primary *member) {
	c := s.c
	if s.det.Resolved() || s.ctx.Err() != nil {
		return
	}
	s.mu.Lock()
	if s.hedged {
		s.mu.Unlock()
		return
	}
	s.hedged = true
	s.mu.Unlock()
	m := c.pickUntried(s, primary)
	if m == nil {
		return // single healthy node: nothing to hedge onto
	}
	if err := s.launch(m, attemptHedge); err != nil {
		return
	}
	c.nodeHedges.Add(1)
}

// cancelSiblings cancels every live attempt except winner's — the
// first-result-wins cleanup. The pipeline culls the losers if they had
// not started; their relays observe the errHedgeLoser cause and retire
// quietly.
func (s *submission) cancelSiblings(winner *member) {
	s.mu.Lock()
	cancels := make([]context.CancelCauseFunc, 0, len(s.cancels))
	for m, cancel := range s.cancels {
		if m != winner {
			cancels = append(cancels, cancel)
		}
	}
	s.mu.Unlock()
	for _, cancel := range cancels {
		cancel(errHedgeLoser)
	}
}

// stopTimer disarms the reactive hedge trigger once the race is over.
func (s *submission) stopTimer() {
	s.mu.Lock()
	t := s.timer
	s.timer = nil
	s.mu.Unlock()
	if t != nil {
		t.Stop()
	}
}

// migrateFrom cancels the pending submissions of a degraded member —
// the sweep's straggler/chaos migration trigger. Each cancelled
// attempt's relay decides queued-versus-executing through the
// pipeline's delivery CAS and resubmits only the genuinely queued ones.
func (c *Cluster) migrateFrom(m *member) {
	m.pendMu.Lock()
	cancels := make([]context.CancelCauseFunc, 0, len(m.pending))
	for _, cancel := range m.pending {
		cancels = append(cancels, cancel)
	}
	m.pendMu.Unlock()
	for _, cancel := range cancels {
		cancel(errMigrated)
	}
}
