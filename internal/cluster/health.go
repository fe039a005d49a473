package cluster

import (
	"context"
	"sort"
	"time"

	"bomw/internal/core"
)

// Straggler detection and the Suspect probation state machine.
//
// Every node pipeline tracks a delivered-batch completion-latency EWMA
// (core.Pipeline.AvgLatency). The health sweep compares those EWMAs
// across the fleet: a node whose latency is simultaneously a p99
// outlier AND a multiple of the fleet median goes on *probation* —
// the new Suspect state between Healthy and Evicted:
//
//	Healthy --outlier--> Suspect --ok probes--> Healthy  (FalseSuspect if never bad)
//	                     Suspect --bad probes--> Evicted (operator Readmit to return)
//
// A Suspect node receives no routed traffic (eligible skips it) but is
// not abandoned: probe requests — one-sample timing probes riding the
// submission stream, the same virtual-clock discipline as the health
// sweep — measure whether it recovered. The hysteresis guard doubles
// the consecutive-ok bar each time a node is re-suspected, so a
// flapping node earns progressively longer probation instead of
// readmit-looping through the fleet.

// Detection and probation parameters (Config.Straggler turns them on).
const (
	// stragglerFactor is the outlier multiple: a node is suspect when
	// its latency EWMA exceeds stragglerFactor × the fleet median (and
	// the p99).
	stragglerFactor = 3
	// stragglerMinRouted is the minimum number of requests a node must
	// have accepted before its EWMA is judged — young nodes are not
	// outliers, they are unmeasured.
	stragglerMinRouted = 16
	// probeEvery sends one probe to one suspect node per this many
	// cluster submissions (submission-driven like the sweep, so replay
	// stays deterministic).
	probeEvery = 32
	// probeOK is the consecutive successful probes that clear a first
	// suspicion. Each re-suspicion doubles the bar (capped at 64) — the
	// flapping hysteresis guard.
	probeOK = 2
	// evictAfterBad is the failed probes after which a suspect is
	// evicted outright.
	evictAfterBad = 3
)

// probation is one member's Suspect-state bookkeeping, guarded by the
// member's probMu (never held across a Submit or Wait).
type probation struct {
	epochs    int           // times this node has been suspected (drives hysteresis)
	okProbes  int           // consecutive successful probes this epoch
	badProbes int           // failed probes this epoch
	needOK    int           // consecutive ok probes required to clear
	latBar    time.Duration // stragglerFactor × fleet median at suspicion time: the probe pass bar
}

// detectStragglers runs inside the health sweep: compute the fleet's
// latency median and p99 over measured, routable members, and put the
// outlier on probation. One node per sweep — the EWMA statistics of the
// remaining fleet shift once a suspect stops taking traffic, so
// re-judging the rest against fresh numbers next sweep beats suspecting
// half the fleet on one stale snapshot.
func (c *Cluster) detectStragglers() {
	type cand struct {
		m   *member
		lat time.Duration
	}
	var cands []cand
	for _, m := range c.members {
		if m.evicted.Load() || m.suspect.Load() {
			continue
		}
		if m.routed.Load() < stragglerMinRouted {
			continue
		}
		if lat := m.node.AvgLatency(); lat > 0 {
			cands = append(cands, cand{m, lat})
		}
	}
	if len(cands) < 3 {
		return // no meaningful distribution to be an outlier of
	}
	lats := make([]time.Duration, len(cands))
	for i, cd := range cands {
		lats[i] = cd.lat
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	median := lats[len(lats)/2]
	p99 := lats[(99*(len(lats)-1)+50)/100]
	bar := median * stragglerFactor
	var worst *cand
	for i := range cands {
		cd := &cands[i]
		if cd.lat >= p99 && cd.lat > bar && (worst == nil || cd.lat > worst.lat) {
			worst = cd
		}
	}
	if worst != nil {
		c.suspectMember(worst.m, bar)
	}
}

// suspectMember moves a member onto probation: out of the routing set,
// probe traffic only, pending deadline work migrated away.
func (c *Cluster) suspectMember(m *member, latBar time.Duration) {
	if !m.suspect.CompareAndSwap(false, true) {
		return
	}
	m.probMu.Lock()
	m.prob.epochs++
	m.prob.okProbes, m.prob.badProbes = 0, 0
	need := probeOK
	for e := 1; e < m.prob.epochs && need < 64; e++ {
		need *= 2 // flapping hysteresis: each relapse doubles the bar
	}
	m.prob.needOK = need
	m.prob.latBar = latBar
	m.probMu.Unlock()
	c.suspicions.Add(1)
	c.migrateFrom(m)
}

// probeOneSuspect rides the submission stream: pick the next suspect
// member round-robin and send it one single-sample timing probe for the
// model the triggering request named (guaranteed loaded fleet-wide).
// The probe runs on a relay goroutine so the submit path never blocks
// on a straggler; its completion feeds recordProbe.
func (c *Cluster) probeOneSuspect(model string) {
	var target *member
	start := int(c.probeCursor.Add(1))
	for k := 0; k < len(c.members); k++ {
		m := c.members[(start+k)%len(c.members)]
		if m.suspect.Load() {
			target = m
			break
		}
	}
	if target == nil {
		return
	}
	m := target
	fut, err := m.node.Submit(context.Background(), core.PipelineRequest{
		Model: model,
		Batch: 1,
		// Probes opt out of SLOs: a slow node must return a measurement,
		// not an admission rejection.
		Deadline: -1,
	})
	if err != nil {
		c.recordProbe(m, false, 0)
		return
	}
	c.relays.Add(1)
	go func() {
		defer c.relays.Done()
		comp, _ := fut.Wait(context.Background())
		c.recordProbe(m, comp.Err == nil, comp.Latency)
	}()
}

// recordProbe advances the probation state machine with one probe
// outcome. A probe passes when it completed without error and within
// the latency bar captured at suspicion time; needOK consecutive passes
// clear the suspicion (a FalseSuspect if no probe ever failed), and
// evictAfterBad failures evict the node for good — only an operator
// Readmit brings it back (probEvicted pins it against the sweep's
// auto-readmission, which would otherwise readmit-loop a node whose
// lifecycle health looks fine but whose latency does not).
func (c *Cluster) recordProbe(m *member, ok bool, lat time.Duration) {
	c.probes.Add(1)
	m.probMu.Lock()
	if ok && m.prob.latBar > 0 && lat > m.prob.latBar {
		ok = false // "completed, but still straggling" is not recovery
	}
	var clear, evict, falseSuspect bool
	if ok {
		m.prob.okProbes++
		if m.prob.okProbes >= m.prob.needOK {
			clear = true
			falseSuspect = m.prob.badProbes == 0
		}
	} else {
		m.prob.badProbes++
		m.prob.okProbes = 0
		if m.prob.badProbes >= evictAfterBad {
			evict = true
		}
	}
	m.probMu.Unlock()
	switch {
	case clear:
		if m.suspect.CompareAndSwap(true, false) {
			if falseSuspect {
				c.falseSuspects.Add(1)
			}
			c.probations.Add(1)
		}
	case evict:
		if m.suspect.CompareAndSwap(true, false) {
			m.probEvicted.Store(true)
			c.evict(m)
		}
	}
}

// Suspects lists the names of members currently on probation — empty,
// never nil: it goes on the wire as it is.
func (c *Cluster) Suspects() []string {
	out := []string{}
	for _, m := range c.members {
		if m.suspect.Load() {
			out = append(out, m.node.Name())
		}
	}
	return out
}
