// Package cluster mirrors the routing tier's wall-clock shapes: the
// default serving clock anchors on time.Now and a serving-path timer
// arms time.AfterFunc — both justified with directives — while
// unannotated timer reads must be flagged.
package cluster

import "time"

type injector struct {
	clock func() time.Duration
}

// defaultClock is the justified exception: the fleet's default virtual
// clock IS wall time anchored at creation.
func defaultClock() func() time.Duration {
	//bomw:wallclock fixture: the default serving clock is wall time since creation
	start := time.Now()
	//bomw:wallclock fixture: see above — wall-since-creation mapping
	return func() time.Duration { return time.Since(start) }
}

// armTimer mirrors a serving-path timer: firing at half the deadline
// slack is a wall-clock action on the serving path.
func armTimer(fire func()) *time.Timer {
	//bomw:wallclock fixture: the timer fires on real slack in serving mode
	return time.AfterFunc(time.Millisecond, fire)
}

// badTimer forgets the directive — chaos code gets no free pass.
func badTimer(fire func()) *time.Timer {
	return time.AfterFunc(time.Millisecond, fire) // want "wall-clock time.AfterFunc in virtual-clock package"
}

// windowPoll reads the wall clock to evaluate a crash window without
// justification.
func (i *injector) windowPoll() bool {
	deadline := time.Now() // want "wall-clock time.Now in virtual-clock package"
	return deadline.IsZero()
}
