// Fixture for the poollife analyzer: designated recyclers, use after
// Put, and double Put.
package poollife

import "sync"

// pipeReq is a configured pooled type: only releaseReq may Put it.
type pipeReq struct {
	id  uint64
	gen uint32
}

var reqPool = sync.Pool{
	New: func() any { return &pipeReq{} },
}

// scratch is NOT in poolRecyclers: the fallback demands a
// recycler-shaped function name for its Put sites.
type scratch struct {
	n int
}

var scratchPool = sync.Pool{
	New: func() any { return &scratch{} },
}

// releaseReq is pipeReq's designated recycler.
func releaseReq(r *pipeReq) {
	r.gen++
	reqPool.Put(r)
}

// handle Puts a pipeReq outside the recycler: flagged.
func handle(r *pipeReq) {
	reqPool.Put(r) // want "reqPool.Put outside the designated recycler for pipeReq"
}

// fastDrop is recycler-shaped by name but still not releaseReq: the
// configured allow-list wins over the name heuristic.
func fastDrop(r *pipeReq) {
	reqPool.Put(r) // want "reqPool.Put outside the designated recycler for pipeReq"
}

// hijack justifies its out-of-recycler Put with a directive.
func hijack(r *pipeReq) {
	//bomw:poollife shutdown path, pipeline already drained so no concurrent holder
	reqPool.Put(r)
}

// freeScratch is recycler-shaped, so the fallback allows the Put — but
// it then touches the pointer after retiring it.
func freeScratch(s *scratch) {
	scratchPool.Put(s)
	s.n = 1 // want "s used after being returned to its pool"
}

// freeScratchTwice double-Puts on a straight-line path.
func freeScratchTwice(s *scratch) {
	scratchPool.Put(s)
	scratchPool.Put(s) // want "double Put of s"
}

// freeScratchMaybe Puts on one arm only: the join is optimistic, so the
// later read is clean.
func freeScratchMaybe(s *scratch, done bool) {
	if done {
		scratchPool.Put(s)
		return
	}
	s.n = 2
}

// freeScratchBoth Puts on both arms: the join keeps the fact and the
// later read is flagged.
func freeScratchBoth(s *scratch, fast bool) {
	if fast {
		scratchPool.Put(s)
	} else {
		scratchPool.Put(s)
	}
	s.n = 3 // want "s used after being returned to its pool"
}

// freeAndRenew re-acquires from the pool: the reassignment revives the
// name, so the final read is clean.
func freeAndRenew(s *scratch) int {
	scratchPool.Put(s)
	s = scratchPool.Get().(*scratch)
	return s.n
}

// stash retains the retired pointer inside a closure built after the
// Put — retention past Put, flagged.
func freeScratchStash(s *scratch) func() int {
	scratchPool.Put(s)
	return func() int { return s.n } // want "s used after being returned to its pool"
}

// mint is not a recycler and mints nothing pooled: Put of a scratch in
// a non-recycler-shaped function trips the fallback rule.
func mint(s *scratch) {
	scratchPool.Put(s) // want "scratchPool.Put in mint, which is not a recycler"
}

// aggregate mirrors the batching loop's pooled aggregate; its recycler
// is a method here so the method-form hand-off (a.putAggregate()) is
// exercised too.
type aggregate struct {
	seq uint64
}

var aggPool = sync.Pool{
	New: func() any { return &aggregate{} },
}

// putAggregate is aggregate's designated recycler.
func (a *aggregate) putAggregate() {
	a.seq++
	aggPool.Put(a)
}

// waitGroup has a Wait that is no recycler: waiting on it is not a
// hand-off, so reading it afterwards is clean.
type waitGroup struct{ n int }

func (wg *waitGroup) Wait() {}

func waitThenRead(wg *waitGroup) int {
	wg.Wait()
	return wg.n
}

// handoff relinquishes r to the recycler, then touches it: from the
// caller's side that is use-after-release even though the Put itself
// happens inside releaseReq.
func handoff(r *pipeReq) uint64 {
	releaseReq(r)
	return r.id // want "r used after being returned to its pool"
}

// handoffTwice releases the same reference twice through the wrapper.
func handoffTwice(r *pipeReq) {
	releaseReq(r)
	releaseReq(r) // want "r handed to recycler releaseReq twice"
}

// handoffMethod relinquishes via the method-form recycler and then
// reads the receiver.
func handoffMethod(a *aggregate) uint64 {
	a.putAggregate()
	return a.seq // want "a used after being returned to its pool"
}

// handoffDeferred is clean: a deferred hand-off runs at function exit,
// so the body's reads precede the release.
func handoffDeferred(r *pipeReq) uint64 {
	defer releaseReq(r)
	return r.id
}

// handoffOneArm is clean: the release happens on one branch only and
// the join is optimistic.
func handoffOneArm(r *pipeReq, keep bool) uint64 {
	if !keep {
		releaseReq(r)
		return 0
	}
	return r.id
}
