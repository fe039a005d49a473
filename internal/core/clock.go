package core

import (
	"slices"
	"sync"
	"time"
)

// Clock is the serving path's one mechanism for time: Now reads it and
// AfterFunc schedules on it, so a request's arrival stamp, its deadline
// and the two timers that act on them (batching window, recovery
// prober) live on one axis; no serving worker waits on it otherwise.
// Production serves on WallClock; tests step a ManualClock instead of
// sleeping.
type Clock interface {
	// Now is the time elapsed on this clock since its origin.
	Now() time.Duration
	// AfterFunc runs f once d has elapsed on this clock: on a goroutine of
	// its own (wall) or on the one that called Advance (manual).
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a pending AfterFunc; Stop and Reset behave as *time.Timer's do.
type Timer interface {
	Stop() bool
	Reset(d time.Duration) bool
}

type wallClock struct{ start time.Time }

// WallClock is wall time since the call — the serving mapping of virtual
// time, and the only place the serving tiers touch the time package's
// clock (the Scheduler's DecisionTime measurements aside).
func WallClock() Clock {
	//bomw:wallclock the one anchor of the serving clock: every Now below is relative to it
	return &wallClock{start: time.Now()}
}

func (c *wallClock) Now() time.Duration {
	//bomw:wallclock WallClock is by definition the wall-clock implementation of core.Clock
	return time.Since(c.start)
}

func (c *wallClock) AfterFunc(d time.Duration, f func()) Timer {
	//bomw:wallclock live serving timers ring on real elapsed time; tests inject a ManualClock
	return time.AfterFunc(d, f)
}

// ManualClock is a Clock that moves only when Advance is called, for
// deterministic tests of timer-driven behaviour. Safe for concurrent use,
// except that Advance calls must not overlap each other.
type ManualClock struct {
	mu     sync.Mutex
	now    time.Duration
	timers []*manualTimer // armed, by deadline; arming order among equals
	armed  chan struct{}  // closed, and replaced, whenever a timer arms
}

type manualTimer struct {
	c  *ManualClock
	at time.Duration
	f  func()
}

func NewManualClock() *ManualClock { return &ManualClock{armed: make(chan struct{})} }

func (c *ManualClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *ManualClock) AfterFunc(d time.Duration, f func()) Timer {
	t := &manualTimer{c: c, f: f}
	t.Reset(d)
	return t
}

// Advance moves the clock forward by d, running every callback that
// falls due on the way — in deadline order, each at its own deadline,
// those a callback arms inside the step included — on the caller's goroutine.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	end := c.now + d
	for len(c.timers) > 0 && c.timers[0].at <= end {
		t := c.timers[0]
		c.timers = c.timers[1:]
		c.now = max(c.now, t.at)
		c.mu.Unlock()
		t.f()
		c.mu.Lock()
	}
	c.now = end
}

// BlockUntil blocks until at least n timers are armed — how a test waits
// for a goroutine to reach its timer without sleeping or polling.
func (c *ManualClock) BlockUntil(n int) {
	c.mu.Lock()
	for len(c.timers) < n {
		armed := c.armed
		c.mu.Unlock()
		<-armed
		c.mu.Lock()
	}
	c.mu.Unlock()
}

func (t *manualTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	n := len(t.c.timers)
	t.c.timers = slices.DeleteFunc(t.c.timers, func(o *manualTimer) bool { return o == t })
	return len(t.c.timers) < n
}

func (t *manualTimer) Reset(d time.Duration) bool {
	was, c := t.Stop(), t.c
	c.mu.Lock()
	defer c.mu.Unlock()
	t.at = c.now + d
	i := len(c.timers)
	for i > 0 && c.timers[i-1].at > t.at {
		i--
	}
	c.timers = slices.Insert(c.timers, i, t)
	close(c.armed)
	c.armed = make(chan struct{})
	return was
}
