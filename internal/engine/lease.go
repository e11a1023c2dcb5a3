package engine

import (
	"runtime"
	"slices"
	"sync"
)

// Lease carries the engine's large per-shard allocations — dense link
// tables, paged directories and their touched pages, active-key
// lists, and the radix gather/sort/emit scratch — across runs of the
// same shape, so a warm sweep cell or daemon job reuses its
// predecessor's memory instead of re-allocating and re-faulting it.
// The shape key is (resolved state, shard count, per-shard table
// size): Options.Lease with a matching stocked lease adopts the
// buffers in New, and a completed Run hands them back; a mismatched
// shape simply allocates fresh and restocks the lease at release, so
// one lease adapts as a sweep walks cell shapes.
//
// Reuse is bit-invisible by construction. A completed run's drain
// loop leaves every table slot and page slot an empty Link and the
// active lists empty, clearScratch zeroes the scratch buffers, and
// touched pages are harvested into a free list with the directory
// left all-nil — so a warm run's first-touch page accounting (and
// therefore MemStats.TableBytes) is identical to a cold run's. An
// aborted run never releases, so dirty state cannot enter a lease.
//
// A Lease is not safe for concurrent use; LeasePool hands distinct
// leases to concurrent cells.
type Lease struct {
	state     State
	nshards   int
	tableSize int
	shards    []leaseShard
}

type leaseShard struct {
	table    []Link
	pages    []*[pageSize]Link
	pageFree []*[pageSize]Link
	active   []uint64
	inbox    []Arrival
	scratch  []Arrival
	out      [][]Arrival
}

// matches reports whether the lease's stock fits an engine shape.
func (l *Lease) matches(state State, nshards, tableSize int) bool {
	return l.shards != nil && l.state == state &&
		l.nshards == nshards && l.tableSize == tableSize
}

// releaseLease hands the engine's per-shard allocations back to its
// lease. Called only at the end of a completed Run — a run that
// panicked (engine.Abort) unwinds past it, so a lease never receives
// dirty buffers. The engine detaches what it donates: an (incorrect)
// second Run on a leased engine fails loudly on nil tables instead of
// silently aliasing memory another engine may have adopted.
func (e *Engine) releaseLease() {
	l := e.lease
	if l == nil {
		return
	}
	e.lease = nil
	if e.state != StateDense && e.state != StatePaged {
		return
	}
	// Snapshot the memory pricing before detaching: MemStats is
	// documented as a post-Run call, and it must report what the run
	// used even though the buffers now live in the lease.
	m := e.MemStats()
	e.mem = &m
	shards := make([]leaseShard, len(e.shards))
	for i := range e.shards {
		sh := &e.shards[i]
		ls := &shards[i]
		ls.table = sh.table
		ls.pages = sh.pages
		ls.pageFree = sh.pageFree
		// Harvest touched pages into the free list, leaving the
		// directory all-nil: the next run re-touches pages one by one
		// (drawing from the free list instead of the heap), keeping
		// its pageCount — and so its MemStats — equal to a cold run's.
		for j, pg := range sh.pages {
			if pg != nil {
				ls.pageFree = append(ls.pageFree, pg)
				sh.pages[j] = nil
			}
		}
		ls.active = sh.active[:0]
		ls.inbox = sh.inbox[:0]
		ls.scratch = sh.scratch[:0]
		ls.out = sh.ctx.out
		sh.table, sh.pages, sh.pageFree, sh.active = nil, nil, nil, nil
		sh.inbox, sh.scratch, sh.ctx.out = nil, nil, nil
	}
	l.state, l.nshards, l.tableSize = e.state, len(e.shards), e.tableSize
	l.shards = shards
}

// LeasePool recycles Leases across independent runs, keyed by an
// opaque caller-chosen shape string (the scenario layer derives it
// from the cell axes that determine engine shape). Get never blocks:
// when no idle lease has the key it hands out a fresh unstocked Lease,
// which the first run fills. The pool retains at most limit idle
// leases, oldest first; a Put into a full pool drops the oldest idle
// lease to the garbage collector, so a long-running daemon's lease
// memory stays proportional to its concurrency, not its history of
// cell shapes.
type LeasePool struct {
	mu    sync.Mutex
	limit int
	idle  []idleLease // oldest first
}

type idleLease struct {
	key   string
	lease *Lease
}

// NewLeasePool returns a pool retaining at most limit idle leases;
// limit <= 0 selects 2×GOMAXPROCS, enough for a full scenario pool of
// concurrent cells plus headroom for shape churn.
func NewLeasePool(limit int) *LeasePool {
	if limit <= 0 {
		limit = 2 * runtime.GOMAXPROCS(0)
	}
	return &LeasePool{limit: limit}
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
