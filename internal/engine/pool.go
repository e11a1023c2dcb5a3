// Package engine is the shared parallel round-execution core of every
// synchronous network simulator in this repository. The paper's
// routing algorithms (Algorithms 2.1-2.3, §3.4) are all analyzed as
// synchronous round models — in one round every directed link moves at
// most one packet — and the simulators previously executed that round
// as a single sequential loop over all links. This package shards that
// loop across a worker pool while keeping the simulation bit-for-bit
// deterministic for a fixed seed, so `Workers: 1` and `Workers: N`
// produce identical traces.
//
// Determinism rests on three invariants:
//
//  1. Per-round effects are order-commutative. A round is split into a
//     drain phase (pop one packet per link, advance it) and an emit
//     phase (insert the resulting arrivals into next-round queues),
//     with a barrier between them — the double buffering that keeps
//     rounds synchronous. Within a phase, handlers may only mutate
//     their own packet and accumulate into per-shard Stats whose merge
//     operators (sum, max) are commutative.
//  2. Queue insertion order is canonical. All arrivals emitted during
//     a round are sorted by (link key, packet ID) before insertion, so
//     a link's chain of queued packets (see Link) never depends on
//     shard layout or map iteration: a FIFO chain holds them in that
//     order, and an Options.Less chain in Less order, which a strict
//     total order fixes whatever the insertion order.
//  3. Randomness is keyed to stable entities, never to workers. Each
//     packet owns a substream split from the run seed by packet ID,
//     and each shard owns a substream split by shard index.
package engine

import (
	"runtime"
	"sync"
)

// Pool is a deterministic fork-join helper: Run splits an index range
// into contiguous chunks, one per worker, so a computation that is
// independent across indices parallelizes without changing which
// worker-visible chunk an index belongs to from run to run.
type Pool struct {
	workers int
}

// NewPool returns a pool of the given width; workers <= 0 selects
// GOMAXPROCS, the engine-wide default.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool width. Callers size per-worker accumulator
// arrays with it; fn's worker argument indexes into them.
func (p *Pool) Workers() int { return p.workers }

// Run executes fn over [0, n) split into at most Workers() contiguous
// chunks. fn(w, lo, hi) must restrict itself to state owned by indices
// [lo, hi) plus the w-th slot of any per-worker accumulator. A panic
// inside a worker is re-raised on the caller, lowest worker first.
func (p *Pool) Run(n int, fn func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	if p.workers == 1 || n == 1 {
		fn(0, 0, n)
		return
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	panics := make([]any, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[w] = r
				}
			}()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
}

// RunIf runs like Run when parallel is set and sequentially (one
// chunk, worker 0) otherwise — the adaptive cutoff for rounds whose
// work is too small to amortize goroutine fan-out.
func (p *Pool) RunIf(parallel bool, n int, fn func(w, lo, hi int)) {
	if !parallel || p.workers == 1 || n <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	p.Run(n, fn)
}
