package engine

import (
	"context"
	"fmt"
	"math/bits"

	"pramemu/internal/packet"
	"pramemu/internal/prng"
	"pramemu/internal/queue"
)

// Abort is the panic value the engine unwinds with when its
// Options.Context is done mid-run. Simulators never recover it — the
// whole point is to tear down their routing state mid-flight — so it
// surfaces at the layer that owns the run (scenario.RunCellSafe),
// which converts it into a structured timeout/canceled error result
// instead of a crash. Err is the context's error, preserving the
// deadline-exceeded vs canceled distinction.
type Abort struct{ Err error }

func (a Abort) Error() string { return "engine: run aborted: " + a.Err.Error() }

// Arrival is a packet about to enter the queue of the directed link
// identified by Key. Key encoding is simulator-defined; the engine
// only maps it to a shard and orders by it.
type Arrival struct {
	Key uint64
	P   *packet.Packet
}

// Handler advances one popped packet: the packet just crossed the link
// Arrival.Key during the given round. It may mutate the packet, emit
// follow-up arrivals through ctx, and accumulate statistics — and
// nothing else, since distinct packets are handled concurrently.
type Handler func(ctx *Ctx, a Arrival, round int)

// Combiner is consulted before an arrival is enqueued: given the
// destination link's non-empty queue it may absorb the packet into a
// queued one (Theorem 2.6 message combining) and return true to skip
// the insertion. It runs on the shard owning the queue, so it may
// freely mutate queued packets.
type Combiner func(ctx *Ctx, q queue.Discipline, a Arrival) bool

// flatKeyLimit caps the declared key space the engine will back with
// flat slice-indexed tables: one table slot is one queue.Discipline
// interface value (two words), so the cap bounds flat-table memory at
// 256 MiB worst case. Beyond it the engine switches to paged tables
// (StatePaged), which price the full declaration at 8 bytes per
// pageSize keys of directory and allocate slot pages only on first
// touch — so any addressable key space stays on the dense fast path,
// bounded by touched keys instead of declared keys.
const flatKeyLimit = 1 << 24

// pageBits sizes the paged-table pages: 1<<pageBits slots per page.
// 4096 slots is 64 KiB of queue slots per page — big enough that the
// directory stays tiny, small enough that a sparse run only pays for
// the neighborhoods it touches.
const (
	pageBits = 12
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// pagedKeyLimit caps the declared key space the paged tables will
// cover: the page directory costs 8 bytes per pageSize keys, so 2^34
// declared keys price a 32 MiB directory — negligible against the
// queues a run that size actually touches. Beyond it (which no
// node×degree slot encoding reaches — that is >16 billion directed
// links) the hashed fallback takes over; sparse pair-packed encodings
// that exceed it belong there anyway.
const pagedKeyLimit = 1 << 34

// Options configures an engine run.
type Options struct {
	// Workers is the worker-pool width; <= 0 selects GOMAXPROCS and 1
	// reproduces the sequential simulation exactly (any width does —
	// that is the engine's defining invariant — but 1 also avoids every
	// synchronization cost).
	Workers int
	// Seed derives the per-shard PRNG streams (Ctx.Rand).
	Seed uint64
	// NewQueue constructs a link queue; nil selects plain FIFO, the
	// discipline of §2.2.1.
	NewQueue func() queue.Discipline
	// MaxKey declares that every key the run will Emit lies in
	// [0, MaxKey). Simulators whose link encodings are dense by
	// construction (node*degree + slot) set it so each shard owns a
	// slice-indexed queue table plus an incrementally maintained
	// active-key list instead of a hash map — the allocation-free hot
	// path. Zero, or a value beyond the engine's internal table-memory
	// cap, selects the hashed fallback, which accepts arbitrary 64-bit
	// keys. The two paths produce bit-identical results: insertion
	// order is canonical either way, and per-round effects commute.
	//
	// Dense declarations up to flatKeyLimit get flat tables
	// (StateDense); larger ones get paged tables (StatePaged), whose
	// memory is bounded by touched keys. Zero selects the hashed
	// fallback (StateHashed).
	MaxKey uint64
	// MemBudget, when positive, caps the fixed (up-front) link-table
	// footprint in bytes: flat slots for StateDense, the page
	// directory for StatePaged, the link index of an event run. A
	// dense or paged resolution whose fixed footprint exceeds the
	// budget degrades to StateHashed — which only pays for live keys
	// — instead of erroring, and the demotion is recorded in
	// MemStats.Degraded. Zero means no budget.
	MemBudget int64
	// ForcePaged forces the paged table representation for any dense
	// declaration, including ones small enough for flat tables. It
	// exists so tests and benchmarks can exercise the paged path
	// against flat-dense results on the same key space; simulators
	// never need it.
	ForcePaged bool
	// Event, when non-nil, selects the asynchronous discrete-event
	// loop instead of the synchronous round loop: the same injection,
	// handler and combiner callbacks run over a timing wheel of events
	// with per-link latency, bandwidth caps and fault injection (see
	// EventOptions). The event loop is strictly sequential — the
	// wheel's (time, kind, key, ID) order is the schedule — so Workers
	// is ignored. MaxKey sizes its dense link index (one int32 per
	// declared key, priced against MemBudget; zero, beyond the flat
	// table cap, or over budget selects a hash map). Results are
	// identical for any setting of Workers or MaxKey.
	Event *EventOptions
	// Context, when non-nil, bounds the run: the round loop polls it
	// between rounds (a non-blocking channel read, nanoseconds against
	// a round's link work) and the event loop every few thousand
	// events, and unwinds with an Abort panic carrying ctx.Err() when
	// it is done. A run that was never canceled is bit-identical to
	// one with no Context at all — the poll reads no randomness and
	// touches no simulation state.
	Context context.Context
	// Lease, when non-nil, recycles the engine's per-shard table,
	// page, active-list and scratch allocations across runs of the
	// same shape (see Lease). A stocked lease whose shape matches is
	// adopted in New; a completed Run hands the buffers back. Reuse is
	// bit-invisible: adopted buffers are empty by the drain/clear
	// invariants, so results and MemStats are identical with or
	// without a lease. An engine given a Lease is single-run — Run
	// donates its buffers when it returns. Dense and paged states
	// only; hashed and event engines ignore the lease.
	Lease *Lease
}

// Ctx is the per-shard execution context handed to Handler, Combiner
// and the injection callback. It is never shared between concurrent
// callbacks, so accumulation needs no locks.
type Ctx struct {
	stats  Stats
	loads  map[int]int
	rand   *prng.Source
	mask   uint64
	dense  bool
	maxKey uint64
	shard  int         // owning shard index, for diagnostics
	round  int         // round currently executing on this shard
	out    [][]Arrival // next-round buffer, bucketed by destination shard
}

// Emit schedules p to enter the queue of link key next round (or this
// round's push phase, when called during injection or a pop phase).
// Arrivals are buffered double-buffer style and sorted by (key, packet
// ID) before insertion, so emission order never matters. On a dense
// engine a key outside the declared [0, MaxKey) range panics: it is a
// simulator encoding bug that a hash map would silently absorb.
func (c *Ctx) Emit(key uint64, p *packet.Packet) {
	var s int
	if c.dense {
		if key >= c.maxKey {
			pid := -1
			if p != nil {
				pid = p.ID
			}
			panic(fmt.Sprintf("engine: shard %d round %d packet %d: emitted key %d outside the declared dense key space [0, %d)",
				c.shard, c.round, pid, key, c.maxKey))
		}
		s = int(key & c.mask)
	} else {
		s = shardOf(key, c.mask)
	}
	c.out[s] = append(c.out[s], Arrival{key, p})
}

// Stats returns the shard's accumulator. All fields fold commutatively
// across shards, so handlers may update sums and maxima freely.
func (c *Ctx) Stats() *Stats { return &c.stats }

// AddLoad accumulates delta units of load on a node (module). The
// merged per-node sums yield Stats.MaxModuleLoad.
func (c *Ctx) AddLoad(node, delta int) {
	if c.loads == nil {
		c.loads = make(map[int]int)
	}
	c.loads[node] += delta
}

// Rand returns the shard's private PRNG stream, split from the run
// seed by shard index. Because shard layout varies with Workers, this
// stream must only feed decisions that cannot affect simulation output
// (randomized data structures, sampling for diagnostics); randomness
// that shapes the simulation belongs in per-packet streams.
func (c *Ctx) Rand() *prng.Source { return c.rand }

// shard owns a partition of the link queues: a slice-indexed table
// plus active-key list on the dense path, a hash map on the fallback.
type shard struct {
	ctx Ctx
	// edges is the hashed-path link state (nil on the dense paths).
	edges map[uint64]queue.Discipline
	// table is the flat dense-path link state: the queue of key k
	// lives at table[k>>shift], since the low shift bits select the
	// shard.
	table []queue.Discipline
	// pages is the paged dense-path link state: the queue of key k
	// lives at pages[(k>>shift)>>pageBits][(k>>shift)&pageMask], with
	// pages allocated on first touch so memory tracks touched keys,
	// not the declared key space. pageCount counts allocated pages
	// (pages are retained once touched, keeping the warm loop
	// allocation-free).
	pages     []*[pageSize]queue.Discipline
	pageCount int
	// pageFree holds drained pages harvested by an adopted Lease;
	// first touch draws from it before the heap. Recycled pages are
	// all-nil by the drain invariant, so reuse is bit-invisible.
	pageFree []*[pageSize]queue.Discipline
	// peakLive is the high-water live-queue count, the basis of the
	// hashed path's TableBytes estimate.
	peakLive int
	// active lists the keys with non-empty queues, maintained
	// incrementally (append on first insert, swap-remove on drain), so
	// the drain phase iterates a compact slice instead of re-scanning.
	active []uint64
	// live counts non-empty queues on both paths, so Engine.Run never
	// re-derives liveness from container sizes.
	live    int
	shift   uint
	free    []queue.Discipline
	inbox   []Arrival // push-phase gather buffer, reused every round
	scratch []Arrival // radix-sort spare buffer, reused every round
}

// Engine runs the synchronous round loop over sharded link state.
type Engine struct {
	pool      *Pool
	shards    []shard
	mask      uint64
	newQueue  func() queue.Discipline
	dense     bool
	state     State
	degraded  bool
	seed      uint64
	event     *EventOptions   // nil = synchronous round loop
	ctx       context.Context // nil = unbounded run
	lease     *Lease          // nil = no cross-run buffer reuse
	tableSize int             // per-shard dense/paged slots (the lease shape key)
	mem       *MemStats       // pricing snapshot taken when a lease detaches the tables

	// Per-run state referenced by the preallocated phase closures, so
	// a steady-state round performs no closure or interface
	// allocation.
	round   int
	handle  Handler
	combine Combiner
	drainFn func(w, lo, hi int)
	pushFn  func(w, lo, hi int)
}

// parallelThreshold is the number of live link queues below which a
// round runs inline: with so little work per round, goroutine fan-out
// costs more than it saves.
const parallelThreshold = 256

// New builds an engine. The shard count is the smallest power of two
// covering the worker count, so each worker owns about one shard.
func New(opts Options) *Engine {
	var eventOpts *EventOptions
	if opts.Event != nil {
		ev := opts.Event.withDefaults()
		if err := ev.Validate(); err != nil {
			panic("engine: " + err.Error())
		}
		eventOpts = &ev
		// The event loop is a single global timestamped order: one
		// shard and no parallel phases. It keeps its own link state (see
		// eventLoop), so the shard tables stay unallocated.
		opts.Workers = 1
	}
	pool := NewPool(opts.Workers)
	nshards := 1
	for nshards < pool.Workers() && nshards < 64 {
		nshards *= 2
	}
	newQueue := opts.NewQueue
	if newQueue == nil {
		newQueue = func() queue.Discipline { return queue.NewFIFO(4) }
	}
	shift := uint(bits.TrailingZeros(uint(nshards)))
	state, degraded := StateHashed, false
	tableSize, numPages := 0, 0
	if eventOpts != nil {
		// The event loop's fixed footprint is its dense link index, one
		// int32 per declared key; flat-table sizes get it, and larger or
		// over-budget declarations degrade to the hashed link map.
		if opts.MaxKey > 0 && opts.MaxKey <= flatKeyLimit {
			state = StateDense
			if opts.MemBudget > 0 && int64(opts.MaxKey)*eventIndexBytes > opts.MemBudget {
				state, degraded = StateHashed, true
			}
		}
	} else if opts.MaxKey > 0 && opts.MaxKey <= pagedKeyLimit {
		tableSize = int((opts.MaxKey-1)>>shift) + 1
		numPages = (tableSize-1)>>pageBits + 1
		if opts.MaxKey <= flatKeyLimit && !opts.ForcePaged {
			state = StateDense
		} else {
			state = StatePaged
		}
		// The budget gates the fixed footprint — everything the dense
		// states allocate before a single key is touched: flat slots
		// for StateDense, the page directory for StatePaged. Over
		// budget degrades to hashed (pay-per-live-key) rather than
		// erroring; MemStats records the demotion.
		if opts.MemBudget > 0 {
			var fixed int64
			if state == StateDense {
				fixed = int64(nshards) * int64(tableSize) * queueSlotBytes
			} else {
				fixed = int64(nshards) * int64(numPages) * 8
			}
			if fixed > opts.MemBudget {
				state, degraded = StateHashed, true
			}
		}
	}
	e := &Engine{
		pool:      pool,
		shards:    make([]shard, nshards),
		mask:      uint64(nshards - 1),
		newQueue:  newQueue,
		dense:     state != StateHashed,
		state:     state,
		degraded:  degraded,
		seed:      opts.Seed,
		event:     eventOpts,
		ctx:       opts.Context,
		tableSize: tableSize,
	}
	// A lease attaches only on the dense states it can stock; its
	// buffers are adopted when the stocked shape matches, otherwise
	// the run allocates fresh and restocks the lease at release.
	var adopt []leaseShard
	if l := opts.Lease; l != nil && eventOpts == nil && (state == StateDense || state == StatePaged) {
		e.lease = l
		if l.matches(state, nshards, tableSize) {
			adopt = l.shards
			l.shards = nil
		}
	}
	// The shard streams come off a tweaked root so they never collide
	// with the per-packet streams Split off prng.New(seed) directly.
	root := prng.New(opts.Seed ^ 0xa5a5a5a5a5a5a5a5)
	for i := range e.shards {
		sh := &e.shards[i]
		switch {
		case eventOpts != nil:
		case state == StateDense:
			if adopt != nil {
				sh.table = adopt[i].table
			} else {
				sh.table = make([]queue.Discipline, tableSize)
			}
			sh.shift = shift
		case state == StatePaged:
			if adopt != nil {
				sh.pages = adopt[i].pages
				sh.pageFree = adopt[i].pageFree
			} else {
				sh.pages = make([]*[pageSize]queue.Discipline, numPages)
			}
			sh.shift = shift
		default:
			sh.edges = make(map[uint64]queue.Discipline)
		}
		sh.ctx = Ctx{
			rand:   root.Split(uint64(i)),
			mask:   e.mask,
			dense:  e.dense,
			maxKey: opts.MaxKey,
			shard:  i,
			out:    make([][]Arrival, nshards),
		}
		if adopt != nil {
			sh.active = adopt[i].active
			sh.inbox = adopt[i].inbox
			sh.scratch = adopt[i].scratch
			if len(adopt[i].out) == nshards {
				sh.ctx.out = adopt[i].out
			}
		}
	}
	e.drainFn = func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			e.shards[s].drain(e.round, e.handle)
		}
	}
	e.pushFn = func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			e.pushShard(s, e.round, e.combine)
		}
	}
	return e
}

// Workers returns the effective worker count (after the GOMAXPROCS
// default is applied).
func (e *Engine) Workers() int { return e.pool.Workers() }

// State returns the resolved link-state representation.
func (e *Engine) State() State { return e.state }

// shardOf hashes a link key to a shard with a splitmix64-style
// finalizer, so structured key encodings still spread evenly.
func shardOf(key, mask uint64) int {
	key ^= key >> 30
	key *= 0xbf58476d1ce4e5b9
	key ^= key >> 27
	return int(key & mask)
}

// Run executes the round loop until every link queue drains. inject
// seeds round 0 by calling ctx.Emit for each initial arrival (and may
// record injection-time deliveries in ctx); handle advances popped
// packets; combine, if non-nil, is offered each arrival before
// insertion. Returns the folded statistics.
//
// A steady-state round on the dense path allocates nothing: link
// tables, active lists, gather and sort buffers and recycled queues
// all reach their high-water capacity during warm-up and are reused
// thereafter (the zero-allocation invariant asserted by
// TestSteadyStateRoundIsAllocationFree).
func (e *Engine) Run(inject func(ctx *Ctx), handle Handler, combine Combiner) Stats {
	if e.event != nil {
		return e.runEvent(inject, handle, combine)
	}
	e.handle, e.combine = handle, combine
	if inject != nil {
		inject(&e.shards[0].ctx)
	}
	e.round = 0
	e.pool.RunIf(false, len(e.shards), e.pushFn)
	for round := 1; ; round++ {
		e.checkContext()
		live := 0
		for i := range e.shards {
			live += e.shards[i].live
		}
		if live == 0 {
			break
		}
		par := live >= parallelThreshold
		e.round = round
		e.pool.RunIf(par, len(e.shards), e.drainFn)
		e.pool.RunIf(par, len(e.shards), e.pushFn)
	}
	e.clearScratch()
	e.releaseLease()
	var out Stats
	var loads map[int]int
	for i := range e.shards {
		out.fold(&e.shards[i].ctx.stats)
		for node, v := range e.shards[i].ctx.loads {
			if loads == nil {
				loads = make(map[int]int)
			}
			loads[node] += v
		}
	}
	for _, v := range loads {
		maxInto(&out.MaxModuleLoad, v)
	}
	return out
}

// checkContext polls Options.Context and unwinds the run with an
// Abort panic when it is done — the cancellation/deadline path of both
// loops. The poll is a non-blocking channel read: it reads no
// randomness and touches no simulation state, so a run that is never
// canceled is bit-identical to one without a Context.
func (e *Engine) checkContext() {
	if e.ctx == nil {
		return
	}
	select {
	case <-e.ctx.Done():
		panic(Abort{e.ctx.Err()})
	default:
	}
}

// clearScratch zeroes the full capacity of every retained gather,
// sort and emit buffer once the round loop has drained. During a run
// the slack beyond each round's length holds arrivals from earlier,
// busier rounds; left unzeroed after Run returns, those slots would
// pin every delivered packet (and its recorded path) until the next
// run happens to overwrite them. One sweep at the end costs a single
// pass; zeroing per round would re-clear the high-water capacity
// hundreds of times.
func (e *Engine) clearScratch() {
	for i := range e.shards {
		sh := &e.shards[i]
		clear(sh.inbox[:cap(sh.inbox)])
		clear(sh.scratch[:cap(sh.scratch)])
		for j, out := range sh.ctx.out {
			clear(out[:cap(out)])
			sh.ctx.out[j] = out[:0]
		}
	}
}

// drain pops the head of every queue in the shard — one packet crosses
// each link per round — accounts its queueing delay, and hands it to
// the handler. Emptied queues are recycled. On the dense path the
// iteration walks the compact active-key list with swap-removal;
// every key present at entry is visited exactly once, because the
// handler can only append to next-round buffers, never to this list.
func (sh *shard) drain(round int, handle Handler) {
	sh.ctx.round = round
	if sh.table != nil {
		for i := 0; i < len(sh.active); {
			key := sh.active[i]
			idx := key >> sh.shift
			q := sh.table[idx]
			p := q.Pop()
			p.Delay += round - p.EnqueuedAt - 1
			if q.Len() == 0 {
				sh.table[idx] = nil
				sh.free = append(sh.free, q)
				sh.live--
				last := len(sh.active) - 1
				sh.active[i] = sh.active[last]
				sh.active = sh.active[:last]
			} else {
				i++
			}
			handle(&sh.ctx, Arrival{key, p}, round)
		}
		return
	}
	if sh.pages != nil {
		for i := 0; i < len(sh.active); {
			key := sh.active[i]
			idx := key >> sh.shift
			pg := sh.pages[idx>>pageBits]
			slot := idx & pageMask
			q := pg[slot]
			p := q.Pop()
			p.Delay += round - p.EnqueuedAt - 1
			if q.Len() == 0 {
				pg[slot] = nil
				sh.free = append(sh.free, q)
				sh.live--
				last := len(sh.active) - 1
				sh.active[i] = sh.active[last]
				sh.active = sh.active[:last]
			} else {
				i++
			}
			handle(&sh.ctx, Arrival{key, p}, round)
		}
		return
	}
	for key, q := range sh.edges {
		p := q.Pop()
		p.Delay += round - p.EnqueuedAt - 1
		if q.Len() == 0 {
			delete(sh.edges, key)
			sh.free = append(sh.free, q)
			sh.live--
		}
		handle(&sh.ctx, Arrival{key, p}, round)
	}
}

// pushShard moves every arrival destined for shard s into its queues:
// the shard gathers its bucket from every source context, radix-sorts
// by (key, ID) — the canonical insertion order that makes queue
// contents independent of shard layout — and inserts, offering each
// arrival to the combiner first. The gather and sort buffers are
// reused as-is between rounds and zeroed once at the end of Run
// (clearScratch), so their slack never pins packets past the run.
func (e *Engine) pushShard(s, round int, combine Combiner) {
	sh := &e.shards[s]
	sh.ctx.round = round
	buf := sh.inbox[:0]
	for i := range e.shards {
		src := &e.shards[i].ctx
		buf = append(buf, src.out[s]...)
		src.out[s] = src.out[s][:0]
	}
	sorted, spare := SortArrivals(buf, sh.scratch)
	if sh.table != nil {
		for _, a := range sorted {
			idx := a.Key >> sh.shift
			q := sh.table[idx]
			if combine != nil && q != nil && combine(&sh.ctx, q, a) {
				continue
			}
			if q == nil {
				q = sh.takeQueue(e)
				sh.table[idx] = q
				sh.active = append(sh.active, a.Key)
				sh.live++
			}
			a.P.EnqueuedAt = round
			q.Push(a.P)
			if l := q.Len(); l > sh.ctx.stats.MaxQueue {
				sh.ctx.stats.MaxQueue = l
			}
		}
	} else if sh.pages != nil {
		for _, a := range sorted {
			idx := a.Key >> sh.shift
			pg := sh.pages[idx>>pageBits]
			var q queue.Discipline
			if pg != nil {
				q = pg[idx&pageMask]
			}
			if combine != nil && q != nil && combine(&sh.ctx, q, a) {
				continue
			}
			if q == nil {
				// First touch of this page allocates it (recycling a
				// leased page when one is free); combined-away
				// arrivals above never reach here, so absorption alone
				// costs no page. Pages are retained once allocated, so
				// a warm steady-state round stays allocation-free.
				if pg == nil {
					pg = sh.takePage()
					sh.pages[idx>>pageBits] = pg
					sh.pageCount++
				}
				q = sh.takeQueue(e)
				pg[idx&pageMask] = q
				sh.active = append(sh.active, a.Key)
				sh.live++
			}
			a.P.EnqueuedAt = round
			q.Push(a.P)
			if l := q.Len(); l > sh.ctx.stats.MaxQueue {
				sh.ctx.stats.MaxQueue = l
			}
		}
	} else {
		for _, a := range sorted {
			q := sh.edges[a.Key]
			if combine != nil && q != nil && combine(&sh.ctx, q, a) {
				continue
			}
			if q == nil {
				q = sh.takeQueue(e)
				sh.edges[a.Key] = q
				sh.live++
				if sh.live > sh.peakLive {
					sh.peakLive = sh.live
				}
			}
			a.P.EnqueuedAt = round
			q.Push(a.P)
			if l := q.Len(); l > sh.ctx.stats.MaxQueue {
				sh.ctx.stats.MaxQueue = l
			}
		}
	}
	sh.inbox, sh.scratch = sorted[:0], spare[:0]
}

// takePage recycles a lease-harvested page or constructs a fresh one.
// Recycled pages are all-nil by the drain invariant, so first-touch
// behavior is identical either way.
func (sh *shard) takePage() *[pageSize]queue.Discipline {
	if n := len(sh.pageFree); n > 0 {
		pg := sh.pageFree[n-1]
		sh.pageFree[n-1] = nil
		sh.pageFree = sh.pageFree[:n-1]
		return pg
	}
	return new([pageSize]queue.Discipline)
}

// takeQueue recycles a drained queue or constructs a fresh one.
func (sh *shard) takeQueue(e *Engine) queue.Discipline {
	if n := len(sh.free); n > 0 {
		q := sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
		return q
	}
	return e.newQueue()
}
