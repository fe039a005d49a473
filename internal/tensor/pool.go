package tensor

import (
	"runtime"
	"sync"
)

// Pool is a fixed-size worker pool that partitions index ranges across
// goroutines. It mirrors the paper's OpenCL work-group structure: a range
// of work-items is split into contiguous groups, and each worker executes
// whole groups. GroupSize is the analogue of work-items-per-work-group
// (the paper uses 4096 for CPUs and 256 for GPUs).
type Pool struct {
	workers   int
	groupSize int
}

// NewPool returns a pool with the given number of workers and work-group
// size. workers <= 0 selects GOMAXPROCS; groupSize <= 0 selects 4096 (the
// paper's CPU-optimal configuration).
func NewPool(workers, groupSize int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if groupSize <= 0 {
		groupSize = 4096
	}
	return &Pool{workers: workers, groupSize: groupSize}
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return p.workers }

// GroupSize returns the work-group size.
func (p *Pool) GroupSize() int { return p.groupSize }

// For executes fn(lo, hi) over disjoint sub-ranges covering [0, n),
// in parallel across the pool's workers. Each sub-range is a multiple of
// the group size except possibly the last. For small n the call is run
// inline to avoid goroutine overhead.
func (p *Pool) For(n int, fn func(lo, hi int)) {
	p.forGroups(n, p.groupSize, fn)
}

// forGroups is For with an explicit group length: kernels whose index
// is not the work-item itself (Linear splits neurons, each worth one
// work-item per sample) convert GroupSize into their own unit first.
func (p *Pool) forGroups(n, size int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	groups := (n + size - 1) / size
	if groups == 1 || p.workers == 1 {
		fn(0, n)
		return
	}
	workers := p.workers
	if groups < workers {
		workers = groups
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				g := next
				next++
				mu.Unlock()
				if g >= groups {
					return
				}
				lo := g * size
				hi := lo + size
				if hi > n {
					hi = n
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// whole reports whether For(n, fn) is the single call fn(0, n) on the
// caller, which is how forGroups treats one group or one worker.
func (p *Pool) whole(n int) bool {
	return p.workers == 1 || n <= p.groupSize
}

// inline reports whether a kernel of the given number of work-items
// runs on the caller: always with one worker, and when the kernel is at
// most 4·GroupSize work-items — a worker retires up to four per step,
// so that is about GroupSize steps in all, and handing half of it to a
// second goroutine gains little and ties the call's latency to how
// promptly the host wakes another CPU. Kernels test it before building
// the closure forGroups takes, so an inline call allocates no closure.
func (p *Pool) inline(items int) bool {
	return p.workers == 1 || items <= 4*p.groupSize
}

// vectorLinear and vectorConv are the one rule that sends a call to the
// AVX2 kernels of simd.go instead of the Go kernels: the CPU probe, and
// a shape that fills a tile. Everything else — another GOARCH, an older
// CPU, the shapes below — runs the Go kernels, which compute the same
// bits.
//
// Linear's lanes are samples and its tile up to eight neurons: a batch
// under eight rows has nothing to fill the lanes with, but a layer under
// eight neurons, or a split's tail group, is one tile whose spare
// accumulators repeat its last neuron and are never stored. Nothing
// smaller needs excluding: packing included, 8×4×8 took 78 ns against
// the Go kernel's 347, and simple's 4→6→6→3 at a batch of 64 runs in
// well under half the Go kernel's time (DESIGN.md §4 item 10).
func vectorLinear(m, k, n int) bool {
	return useAVX2 && m >= vecTile && k > 0
}

// neuronLanes is Linear's rule under eight samples, where a lane is a
// neuron instead: one sample row at a time against a tile of eight
// neurons, four inputs per step. Without it each dot product is one
// scalar add chain, about one multiply-add per cycle whatever the
// weights' cache level; a layer under eight neurons has no tile, and
// one under four inputs no step.
func neuronLanes(m, k, n int) bool {
	return useAVX2 && m < vecTile && n >= vecTile && k >= 4
}

// ConvPoolInto's lanes are eight adjacent output columns of one row and
// its tile eight filters of fVol taps each; the in-lane pooling scan
// exists for windows of 1 and 2 — the last block of a row is pulled back
// to end with it, and 8 is a multiple of nothing else that small — and
// only Identity and ReLU are applied inside it.
func vectorConv(convW, outC, fVol, k int, act Activation) bool {
	return useAVX2 && convW/k*k >= vecTile && outC >= vecTile && fVol > 0 && k <= 2 && (act == Identity || act == ReLU)
}

// perGroup converts GroupSize into a kernel's own unit (a neuron, a
// filter plane, a pooling plane) of items work-items each: how many
// units make one group, in whole tiles and at least one tile, so that
// only a range's last group has a partial tile.
func (p *Pool) perGroup(items, tile int) int {
	return max(p.groupSize/items/tile, 1) * tile
}

// Serial is a pool that always runs inline; useful for tests and for
// modelling a single compute unit.
var Serial = &Pool{workers: 1, groupSize: 1 << 30}

// Default is a pool sized to the host machine with the paper's CPU
// work-group configuration.
var Default = NewPool(0, 4096)
