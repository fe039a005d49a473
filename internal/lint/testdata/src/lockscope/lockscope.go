package lockscope

import (
	"sync"
	"sync/atomic"
)

type future struct{ done chan struct{} }

func (f *future) Wait() { <-f.done }

func sendHeld(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	ch <- 1 // want "channel send while mutex mu is held"
	mu.Unlock()
}

func recvHeld(mu *sync.Mutex, ch chan int) int {
	mu.Lock()
	v := <-ch // want "channel receive while mutex mu is held"
	mu.Unlock()
	return v
}

func selectHeld(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	select { // want "blocking select while mutex mu is held"
	case <-ch:
	}
	mu.Unlock()
}

func waitHeld(mu *sync.Mutex, f *future) {
	mu.Lock()
	f.Wait() // want "blocking f.Wait call while mutex mu is held"
	mu.Unlock()
}

func nested(a, b *sync.Mutex) {
	a.Lock()
	b.Lock() // want "mutex b acquired while a is held"
	b.Unlock()
	a.Unlock()
}

func reacquire(mu *sync.Mutex) {
	mu.Lock()
	mu.Lock() // want "mutex mu re-acquired while already held"
	mu.Unlock()
}

func deferredHeld(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	defer mu.Unlock() // held to function end: the send below still fires
	ch <- 1           // want "channel send while mutex mu is held"
}

// ---- clean patterns: none of these may produce a finding ----

// unlockFirst releases before blocking.
func unlockFirst(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	mu.Unlock()
	ch <- 1
}

// branchRelease unlocks on both paths; the fall-through send runs
// lock-free because the terminating branch does not propagate state.
func branchRelease(mu *sync.Mutex, ch chan int, fast bool) {
	mu.Lock()
	if fast {
		mu.Unlock()
		return
	}
	mu.Unlock()
	ch <- 1
}

// selectDefault is non-blocking: the default case guarantees progress.
func selectDefault(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	select {
	case ch <- 1:
	default:
	}
	mu.Unlock()
}

// closureLater returns a closure that sends after the caller released
// the lock; function literals are analyzed as their own functions.
func closureLater(mu *sync.Mutex, ch chan int) func() {
	mu.Lock()
	defer mu.Unlock()
	return func() { ch <- 1 }
}

// goRunsElsewhere: a go statement's call runs concurrently, not under
// this goroutine's locks.
func goRunsElsewhere(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	defer mu.Unlock()
	go send(ch)
}

func send(ch chan int) { ch <- 1 }

// casConvoy spins a CAS retry while holding the mutex.
func casConvoy(mu *sync.Mutex, gen *atomic.Int64, v int64) {
	mu.Lock()
	for {
		old := gen.Load()
		if gen.CompareAndSwap(old, v) { // want "CompareAndSwap retried in a loop while mutex mu is held"
			break
		}
	}
	mu.Unlock()
}

// casSpin retries in the loop condition itself.
func casSpin(mu *sync.Mutex, gen *atomic.Int64, v int64) {
	mu.Lock()
	defer mu.Unlock()
	for !gen.CompareAndSwap(gen.Load(), v) { // want "CompareAndSwap retried in a loop while mutex mu is held"
	}
}

// casFree is the lock-free ladder; a single CAS under a lock is no retry.
func casFree(mu *sync.Mutex, gen *atomic.Int64, v int64) bool {
	for {
		old := gen.Load()
		if gen.CompareAndSwap(old, v) {
			break
		}
	}
	mu.Lock()
	defer mu.Unlock()
	return gen.CompareAndSwap(v, v+1)
}
