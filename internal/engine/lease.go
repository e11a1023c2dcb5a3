package engine

import (
	"runtime"
	"slices"
	"sync"
)

// Lease keeps a completed engine between runs of the same shape, so a
// warm sweep cell or daemon job reruns its predecessor's engine — its
// dense link tables, paged directories and pages, active-key lists and
// radix gather/sort/emit scratch — instead of re-allocating and
// re-faulting them. The shape is (resolved state, shard count,
// per-shard table size): New with a lease that keeps an engine of its
// shape takes that engine and re-arms it, otherwise it builds a new
// one, and a completed Run hands the engine to the lease. One lease
// thus adapts as a sweep walks cell shapes. The zero Lease is empty.
//
// Reuse is bit-invisible by construction. A completed run's drain
// loop leaves every table slot and page slot an empty Link and the
// active lists empty, and clearScratch zeroes the scratch buffers;
// arm then resets every per-run field and frees the touched pages, so
// a kept engine's run — MemStats included — equals a cold engine's.
// An aborted run never reaches Finish, so dirty state cannot enter a
// lease.
//
// A Lease is not safe for concurrent use; LeasePool hands distinct
// leases to concurrent cells.
type Lease struct {
	eng *Engine
}

// LeasePool recycles Leases across independent runs, keyed by an
// opaque caller-chosen shape string (the scenario layer derives it
// from the cell axes that determine engine shape). Get never blocks:
// when no idle lease has the key it hands out a fresh empty Lease,
// which the first run fills. The pool retains at most 2×GOMAXPROCS
// idle leases, enough for a full scenario pool of concurrent cells
// plus headroom for shape churn; a Put into a full pool drops the
// oldest idle lease to the garbage collector, so a long-running
// daemon's lease memory stays proportional to its concurrency, not its
// history of cell shapes.
type LeasePool struct {
	mu    sync.Mutex
	limit int
	idle  []idleLease // oldest first
}

type idleLease struct {
	key   string
	lease *Lease
}

// NewLeasePool returns an empty pool.
func NewLeasePool() *LeasePool {
	return &LeasePool{limit: 2 * runtime.GOMAXPROCS(0)}
}

// Get checks out the newest idle lease for the given shape key, or a
// fresh empty lease when none is idle.
func (p *LeasePool) Get(key string) *Lease {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.idle) - 1; i >= 0; i-- {
		if p.idle[i].key == key {
			l := p.idle[i].lease
			p.idle = slices.Delete(p.idle, i, i+1)
			return l
		}
	}
	return &Lease{}
}

// Put returns a lease to the pool under its shape key. A full pool
// drops its oldest idle lease first.
func (p *LeasePool) Put(key string, l *Lease) {
	if l == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle) >= p.limit {
		p.idle = slices.Delete(p.idle, 0, 1)
	}
	p.idle = append(p.idle, idleLease{key, l})
}
