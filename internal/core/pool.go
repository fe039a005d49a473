package core

import "sync"

// pool recycles one carrier type (pipeReq, aggregate, batchWork). put is
// the only way back in and runs the carrier's reset first, so get hands
// out a cleared carrier and no caller can return one it forgot to clear.
// What the type cannot check is ownership: a carrier is put once, by its
// last holder, which touches it no more. pipeReq's doc names its
// holders; `make handoff`, `make race` and the served-path tests hold
// the serving path to the rule.
type pool[T interface{ reset() }] struct {
	p sync.Pool
}

func newPool[T interface{ reset() }](mk func() T) *pool[T] {
	return &pool[T]{p: sync.Pool{New: func() any { return mk() }}}
}

func (p *pool[T]) get() T { return p.p.Get().(T) }

func (p *pool[T]) put(x T) {
	x.reset()
	p.p.Put(x)
}
