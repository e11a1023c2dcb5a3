package engine

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"

	"pramemu/internal/packet"
	"pramemu/internal/prng"
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
// the insertion. It sees the link's older packets, then the batch's
// lower-ID packets it did not absorb, whatever the emission order. It
// runs on the shard owning the queue, so it may freely mutate queued
// packets — but not their Next links. It cannot pair with Options.Less.
type Combiner func(ctx *Ctx, l *Link, a Arrival) bool

// flatKeyLimit caps the declared key space the engine will back with
// flat slice-indexed tables: one table slot is one Link (two words),
// so the cap bounds flat-table memory at 256 MiB worst case. Beyond it
// the engine switches to paged tables (StatePaged), which price the
// full declaration at 8 bytes per pageSize keys of directory and
// allocate slot pages only on first touch — so any addressable key
// space stays on the dense fast path, bounded by touched keys instead
// of declared keys.
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
	// Less orders every link queue: a queued packet a crosses before b
	// when Less(a, b). It must be a strict total order (break ties on
	// packet ID) over packets that do not change while queued. Nil
	// selects plain FIFO, the discipline of §2.2.1. A run with a Less
	// cannot combine: Start panics when given a Combiner too.
	Less func(a, b *packet.Packet) bool
	// MaxKey declares that every key the run will Emit lies in
	// [0, MaxKey); Emit panics on a key outside it, whatever layout
	// backs the run. Simulators whose link encodings are dense by
	// construction (node*degree + slot) set it so each shard owns a
	// slice-indexed queue table instead of a hashed index — the
	// allocation-free hot path. Declarations up to flatKeyLimit get
	// flat tables (StateDense); larger ones get paged tables
	// (StatePaged), whose memory is bounded by touched keys; MemBudget
	// can step either one further down. Zero, a value beyond the paged
	// cap, or a declaration whose page directory is over budget selects
	// the hashed fallback (StateHashed), which accepts arbitrary 64-bit
	// keys. Every layout produces bit-identical results: insertion
	// order is canonical, and per-round effects commute.
	MaxKey uint64
	// MemBudget, when positive, caps the fixed (up-front) link-table
	// footprint in bytes: flat slots for StateDense, the page
	// directory for StatePaged, the link index of an event run. The
	// round loop steps down a ladder instead of erroring: a flat table
	// over budget falls to StatePaged, and a page directory over
	// budget falls to StateHashed, which only pays for live keys.
	// Either demotion is recorded in MemStats.Degraded. The budget is
	// the one way to select paged or hashed tables for a key space
	// the flat layout covers. Zero means no budget.
	MemBudget int64
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
	// Lease, when non-nil, keeps the engine between runs of the same
	// shape (see Lease): a completed Run hands the engine to the lease,
	// and the next New with it re-arms that engine instead of building
	// one. Reuse is bit-invisible: results and MemStats are identical
	// with or without a lease. Once Run has handed it back, the engine
	// belongs to the lease, and running it again without New panics.
	// Dense and paged states only; hashed and event engines ignore the
	// lease.
	Lease *Lease
}

// Ctx is the per-shard execution context handed to Handler, Combiner
// and the injection callback. It is never shared between concurrent
// callbacks, so accumulation needs no locks.
type Ctx struct {
	stats   Stats
	loads   []int // per-node load sums, indexed by node; see AddLoad
	loadLen int   // the length loads reached before Finish dropped it
	rand    prng.Source
	mask    uint64
	dense   bool        // shard by the key's low bits, not shardOf
	maxKey  uint64      // declared key bound; 0 declares none
	shard   int         // owning shard index, for diagnostics
	round   int         // round currently executing on this shard
	out     [][]Arrival // next-round buffer, bucketed by destination shard
}

// Emit schedules p to enter the queue of link key next round (or this
// round's push phase, when called during injection or a pop phase).
// Arrivals are buffered double-buffer style, and each link queues a
// batch's arrivals by packet ID behind its older packets, so emission
// order never matters. When the run
// declared a MaxKey, a key outside [0, MaxKey) panics on every layout:
// it is a simulator encoding bug that a hashed index would silently absorb.
func (c *Ctx) Emit(key uint64, p *packet.Packet) {
	if c.maxKey > 0 && key >= c.maxKey {
		pid := -1
		if p != nil {
			pid = p.ID
		}
		panic(fmt.Sprintf("engine: shard %d round %d packet %d: emitted key %d outside the declared key space [0, %d)",
			c.shard, c.round, pid, key, c.maxKey))
	}
	s := int(key & c.mask)
	if !c.dense {
		s = shardOf(key, c.mask)
	}
	c.out[s] = append(c.out[s], Arrival{key, p})
}

// Stats returns the shard's accumulator. All fields fold commutatively
// across shards, so handlers may update sums and maxima freely.
func (c *Ctx) Stats() *Stats { return &c.stats }

// AddLoad accumulates delta units of load on node (a module, so
// node >= 0). Each shard sums into a slice indexed by node that grows
// geometrically and is kept, zeroed, for the next run, so a warm
// delivery costs one indexed add; the end of the run sums the shards
// node by node into Stats.MaxModuleLoad. A kept engine whose Finish
// dropped the slice allocates it at its old length on the run's first
// AddLoad, once, instead of regrowing it by doubling.
func (c *Ctx) AddLoad(node, delta int) {
	if node >= len(c.loads) {
		c.loads = growTo(c.loads, max(node, c.loadLen-1))
	}
	c.loads[node] += delta
}

// Rand returns the shard's private PRNG stream, split from the run
// seed by shard index. Because shard layout varies with Workers, this
// stream must only feed decisions that cannot affect simulation output
// (randomized data structures, sampling for diagnostics); randomness
// that shapes the simulation belongs in per-packet streams.
func (c *Ctx) Rand() *prng.Source { return &c.rand }

// shard owns a partition of the link queues. Its link state is one of
// three layouts — a flat table, a paged table or a hashed index — and the
// round loop reads it only through link, insert and emptied; drain,
// push and liveness all run on the active-key list, which every layout
// keeps.
type shard struct {
	ctx Ctx
	// table is the flat (StateDense) layout: the Link of key k lives
	// at table[k>>shift], since the low shift bits select the shard.
	table []Link
	// pages is the paged (StatePaged) layout: the Link of key k
	// lives at pages[(k>>shift)>>pageBits][(k>>shift)&pageMask], with
	// pages allocated on first touch so memory tracks touched keys,
	// not the declared key space. pageCount counts allocated pages
	// (pages are retained once touched, keeping the warm loop
	// allocation-free).
	pages     []*[pageSize]Link
	pageCount int
	// pageFree holds the drained pages a kept engine's arm took out of
	// the directory; first touch draws from it before the heap.
	// Recycled pages are all-empty by the drain invariant, so reuse is
	// bit-invisible.
	pageFree []*[pageSize]Link
	// links is the hashed (StateHashed) layout, an open-addressed
	// index keyed by link key (see linkIndex).
	links linkIndex
	// active lists the keys with non-empty queues, maintained
	// incrementally (append on first insert, swap-remove on drain), so
	// the drain phase iterates a compact slice instead of re-scanning
	// and liveness is len(active).
	active []uint64
	// peakLive is the high-water len(active), the basis of the hashed
	// layout's TableBytes estimate.
	peakLive int
	shift    uint
	// replay lists the keys of the links a combining push must replay
	// (see pushShard), reused every round.
	replay []uint64
}

// Engine runs the synchronous round loop over sharded link state.
type Engine struct {
	pool      Pool
	shards    []shard
	mask      uint64
	less      func(a, b *packet.Packet) bool
	state     State
	degraded  bool
	seed      uint64
	event     *EventOptions   // nil = synchronous round loop
	ctx       context.Context // nil = unbounded run
	lease     *Lease          // where Finish keeps the engine; nil = nowhere
	tableSize int             // per-shard dense/paged slots (part of the lease shape)

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

// New builds an engine in three steps: it resolves the layout ladder,
// takes the engine a Lease keeps when its shape matches (or builds a
// new one), and arms the run's own fields. The shard count is the
// smallest power of two covering the worker count, so each worker
// owns about one shard.
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
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nshards := 1
	for nshards < workers && nshards < 64 {
		nshards *= 2
	}
	shift := uint(bits.TrailingZeros(uint(nshards)))
	state, degraded := StateHashed, false
	tableSize := 0
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
		numPages := int64((tableSize-1)>>pageBits + 1)
		// The budget gates the fixed footprint — everything a layout
		// allocates before a single key is touched: flat slots for
		// StateDense, the page directory for StatePaged. Each rung that
		// does not fit steps down to the next (dense → paged → hashed)
		// rather than erroring; MemStats records the demotion.
		over := func(fixed int64) bool { return opts.MemBudget > 0 && fixed > opts.MemBudget }
		state = StatePaged
		if opts.MaxKey <= flatKeyLimit {
			state = StateDense
			if over(int64(nshards) * int64(tableSize) * queueSlotBytes) {
				state, degraded = StatePaged, true
			}
		}
		if state == StatePaged && over(int64(nshards)*numPages*8) {
			state, degraded = StateHashed, true
		}
	}
	// Only round-loop dense and paged engines are kept: a kept hashed
	// index holds its peak footprint between runs, which raised
	// pram-step's max RSS by 9.5 MiB for no speed (DESIGN.md), and the
	// event loop builds its own state per run.
	var lease *Lease
	var e *Engine
	if l := opts.Lease; l != nil && eventOpts == nil && state != StateHashed {
		lease = l
		if k := l.eng; k != nil && k.state == state && len(k.shards) == nshards && k.tableSize == tableSize {
			e = k
		}
		l.eng = nil
	}
	if e == nil {
		e = build(state, nshards, tableSize, eventOpts != nil)
	}
	e.arm(opts, workers, degraded, eventOpts, lease)
	return e
}

// build allocates an engine of one shape: nshards shards whose link
// state is laid out as state, tableSize slots each on the dense and
// paged layouts. Everything a run sets is left to arm.
func build(state State, nshards, tableSize int, event bool) *Engine {
	e := &Engine{
		shards:    make([]shard, nshards),
		mask:      uint64(nshards - 1),
		state:     state,
		tableSize: tableSize,
	}
	shift := uint(bits.TrailingZeros(uint(nshards)))
	for i := range e.shards {
		sh := &e.shards[i]
		switch {
		case event:
		case state == StateDense:
			sh.table = make([]Link, tableSize)
			sh.shift = shift
		case state == StatePaged:
			sh.pages = make([]*[pageSize]Link, (tableSize-1)>>pageBits+1)
			sh.shift = shift
		default:
			sh.links = newLinkIndex()
		}
		sh.ctx = Ctx{
			mask:  e.mask,
			dense: state != StateHashed,
			shard: i,
			out:   make([][]Arrival, nshards),
		}
	}
	e.drainFn = func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			e.shards[s].drain(e.round, e.handle)
		}
	}
	e.pushFn = func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			e.pushShard(s, e.round, e.combine, false)
		}
	}
	return e
}

// arm sets what belongs to one run rather than to the engine's shape,
// so a kept engine starts as a built one would: the pool width, queue
// order, context, key bound, budget demotion, seed and shard streams.
// A kept paged engine's touched pages move to the free list, so the
// run re-touches them one by one (off the list, not the heap) and its
// pageCount — and so its MemStats — equals a cold run's. Tables,
// active lists and emit buffers need nothing: Finish keeps only a
// drained engine, with its emit buffers cleared.
func (e *Engine) arm(opts Options, workers int, degraded bool, event *EventOptions, lease *Lease) {
	e.pool.workers = workers
	e.less = opts.Less
	e.ctx = opts.Context
	e.degraded = degraded
	e.seed = opts.Seed
	e.event = event
	e.lease = lease
	// The shard streams come off a tweaked root so they never collide
	// with the per-packet streams Split off prng.New(seed) directly.
	root := prng.New(opts.Seed ^ 0xa5a5a5a5a5a5a5a5)
	for i := range e.shards {
		sh := &e.shards[i]
		root.SplitInto(uint64(i), &sh.ctx.rand)
		sh.ctx.maxKey = opts.MaxKey
		if sh.pageCount > 0 {
			for j, pg := range sh.pages {
				if pg != nil {
					sh.pageFree = append(sh.pageFree, pg)
					sh.pages[j] = nil
				}
			}
			sh.pageCount = 0
		}
	}
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
// insertion. Returns the folded statistics. A round-loop Run is
// exactly Start, Step until nothing is live, and Finish.
//
// A steady-state round allocates nothing on any layout: link tables,
// pages, link-index slots, active lists and emit and replay buffers
// all reach their high-water capacity during warm-up and are reused
// thereafter, and queued packets chain through their own Next links
// (the zero-allocation invariant asserted by
// TestSteadyStateRoundIsAllocationFree).
func (e *Engine) Run(inject func(ctx *Ctx), handle Handler, combine Combiner) Stats {
	if e.event != nil {
		return e.runEvent(inject, handle, combine)
	}
	e.Start(handle, combine)
	for live := e.Step(inject); live > 0; live = e.Step(nil) {
	}
	return e.Finish()
}

// Start arms a stepped round-loop run: handle and combine play their
// Run roles for every following Step, and the round counter restarts
// at zero. The event loop does not step; it runs only through Run.
func (e *Engine) Start(handle Handler, combine Combiner) {
	if e.event != nil {
		panic("engine: Start on an event engine")
	}
	if e.lease != nil && e.lease.eng == e {
		panic("engine: run on an engine its Lease keeps; build the next run with New")
	}
	e.checkCombiner(combine)
	e.handle, e.combine = handle, combine
	e.round = 0
}

// checkCombiner rejects a Combiner with an Options.Less: the push's
// replay assumes FIFO chains.
func (e *Engine) checkCombiner(combine Combiner) {
	if combine != nil && e.less != nil {
		panic("engine: a Combiner cannot run with Options.Less")
	}
}

// Step runs one round and returns the number of live link queues it
// leaves. A non-nil inject emits first, and its arrivals are pushed
// stamped with the previous round, so each crosses its first link in
// this round's drain with zero Delay, behind the packets already
// queued on that link. The round counter advances even when nothing
// is live, so a caller that steps once per round of its own keeps the
// handler's round equal to its own.
func (e *Engine) Step(inject func(ctx *Ctx)) (live int) {
	if inject != nil {
		inject(&e.shards[0].ctx)
		for s := range e.shards {
			e.pushShard(s, e.round, e.combine, true)
		}
	}
	e.checkContext()
	checkRound("round", int64(e.round)+1)
	e.round++
	if live = e.live(); live > 0 {
		par := live >= parallelThreshold
		e.pool.RunIf(par, len(e.shards), e.drainFn)
		e.pool.RunIf(par, len(e.shards), e.pushFn)
		live = e.live()
	}
	return live
}

// Finish ends a stepped run: it clears the retained emit buffers,
// hands the engine to its Lease, if any, and returns the folded
// statistics. Only a drained engine is kept, so the next New on the
// lease starts from empty queues; a run that aborted (engine.Abort)
// unwinds past Finish and is never kept at all. A kept engine drops
// the run's callbacks, comparator and context, so it pins nothing its
// caller owns while it waits in the lease, and its module-load slices,
// which cost more resident memory across a sweep's idle leases than
// one allocation at their old length costs the next run.
func (e *Engine) Finish() Stats {
	out := e.collect()
	e.clearScratch()
	if e.lease != nil && e.live() == 0 {
		e.handle, e.combine, e.less, e.ctx = nil, nil, nil, nil
		for i := range e.shards {
			c := &e.shards[i].ctx
			c.loadLen = max(c.loadLen, len(c.loads))
			c.loads = nil
		}
		e.lease.eng = e
	}
	return out
}

// collect folds every shard's statistics and module loads into one
// Stats and zeroes them, so the next run on this engine starts from
// nothing. A node's load is its sum over the shards that delivered to
// it, gathered into shard 0's slice; the largest sum is MaxModuleLoad.
// The load slices keep their length, so a warm run never regrows them.
func (e *Engine) collect() Stats {
	var out Stats
	sums := e.shards[0].ctx.loads
	for i := range e.shards {
		c := &e.shards[i].ctx
		out.fold(&c.stats)
		c.stats = Stats{}
		if i > 0 {
			sums = growTo(sums, len(c.loads)-1)
			for node, v := range c.loads {
				sums[node] += v
			}
			clear(c.loads)
		}
	}
	for _, v := range sums {
		out.MaxModuleLoad = max(out.MaxModuleLoad, v)
	}
	clear(sums)
	e.shards[0].ctx.loads = sums
	return out
}

// live counts the non-empty link queues across shards.
func (e *Engine) live() int {
	n := 0
	for i := range e.shards {
		n += len(e.shards[i].active)
	}
	return n
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

// clearScratch zeroes the full capacity of every retained emit buffer
// once the round loop has drained. During a run the slack beyond each
// round's length holds arrivals from earlier, busier rounds; left
// unzeroed after Run returns, those slots would pin every delivered
// packet (and its recorded path) until the next run happens to
// overwrite them. One sweep at the end costs a single pass; zeroing
// per round would re-clear the high-water capacity hundreds of times.
func (e *Engine) clearScratch() {
	for i := range e.shards {
		sh := &e.shards[i]
		for j, out := range sh.ctx.out {
			clear(out[:cap(out)])
			sh.ctx.out[j] = out[:0]
		}
	}
}

// drain pops the head of every queue in the shard — one packet crosses
// each link per round — accounts its queueing delay, and hands it to
// the handler. The iteration walks the compact active-key list with
// swap-removal on every layout; every key present at entry is visited
// exactly once, because the handler can only append to next-round
// buffers, never to this list.
func (sh *shard) drain(round int, handle Handler) {
	sh.ctx.round = round
	for i := 0; i < len(sh.active); {
		key := sh.active[i]
		l := sh.link(key)
		p := l.pop()
		p.Delay += round - int(p.EnqueuedAt) - 1
		if l.n == 0 {
			sh.emptied(key)
			last := len(sh.active) - 1
			sh.active[i] = sh.active[last]
			sh.active = sh.active[:last]
		} else {
			i++
		}
		handle(&sh.ctx, Arrival{key, p}, round)
	}
}

// pushShard moves the arrivals emitted for shard s into its queues,
// walking each source context's bucket in place. No sort is needed: an
// ordered insert (fifoLess, or Options.Less) puts an arrival behind
// its link's older packets and among its batch by packet ID, and
// usually just appends. A combiner must meet the arrivals in that
// order, so a combining push records each link that held a packet when
// a fresh one joined (the fresh packets are the chain's suffix, so the
// tail tells), then replays it: it cuts the fresh packets off and
// offers them again in ID order. Step's injection (inject set, emitted
// through shard 0's context) shares the last push's stamp, so fifoLess
// cannot place it; it is sorted by packet ID and offered in order.
func (e *Engine) pushShard(s, round int, combine Combiner, inject bool) {
	sh := &e.shards[s]
	sh.ctx.round = round
	if sh.table == nil && sh.pages == nil {
		// A hashed run starts from empty buffers (no Lease stocks
		// them), so size the index and lists for the batch at once.
		n := 0
		for i := range e.shards {
			n += len(e.shards[i].ctx.out[s])
		}
		sh.links.reserve(n)
		sh.active = slices.Grow(sh.active, n)
		if combine != nil {
			sh.replay = slices.Grow(sh.replay, n)
		}
	}
	stamp, less := int32(round), e.less
	if inject {
		sortByID(e.shards[0].ctx.out[s])
	} else if less == nil {
		less = fifoLess
	}
	for i := range e.shards {
		src := &e.shards[i].ctx
		for _, a := range src.out[s] {
			a.P.EnqueuedAt = stamp
			l := sh.insert(a.Key)
			if l.n == 0 {
				sh.open(a.Key)
			} else if !inject && combine != nil {
				if l.n == 1 || l.tail.EnqueuedAt != stamp {
					sh.replay = append(sh.replay, a.Key)
				}
				l.push(a.P, less)
				continue
			}
			sh.offer(l, a, combine, less)
		}
		src.out[s] = src.out[s][:0]
	}
	for _, key := range sh.replay {
		l := sh.link(key)
		for p, next := l.cut(stamp), (*packet.Packet)(nil); p != nil; p = next {
			next, p.Next = p.Next, nil
			sh.offer(l, Arrival{key, p}, combine, nil)
		}
	}
	sh.replay = sh.replay[:0]
}

// offer is the canonical insertion step for a stamped arrival: combine
// on a non-empty link, else enqueue and update MaxQueue.
func (sh *shard) offer(l *Link, a Arrival, combine Combiner, less func(a, b *packet.Packet) bool) {
	if l.n > 0 && combine != nil && combine(&sh.ctx, l, a) {
		return
	}
	l.push(a.P, less)
	sh.ctx.stats.MaxQueue = max(sh.ctx.stats.MaxQueue, l.n)
}

// open lists a key whose link an arrival is about to open as active.
func (sh *shard) open(key uint64) {
	sh.active = append(sh.active, key)
	sh.peakLive = max(sh.peakLive, len(sh.active))
}

// fifoLess is a FIFO chain's order: by EnqueuedAt, the round or tick
// a packet joined the link, then by ID. It and byID are variables so a
// test can count a push's comparisons.
var fifoLess = func(a, b *packet.Packet) bool {
	return a.EnqueuedAt < b.EnqueuedAt || a.EnqueuedAt == b.EnqueuedAt && a.ID < b.ID
}

// byID compares two arrivals by packet ID.
var byID = func(x, y Arrival) int { return cmp.Compare(x.P.ID, y.P.ID) }

// sortByID orders an injection batch stably by packet ID. Batches
// usually come in ID order, which the check finds in one pass.
func sortByID(batch []Arrival) {
	if !slices.IsSortedFunc(batch, byID) {
		slices.SortStableFunc(batch, byID)
	}
}

// checkRound panics when round or tick t no longer fits the int32
// Packet.EnqueuedAt stamp, which would silently corrupt Delay.
func checkRound(what string, t int64) {
	if t > math.MaxInt32 {
		panic(fmt.Sprintf("engine: %s %d overflows the int32 Packet.EnqueuedAt stamp", what, t))
	}
}

// link returns the Link of a live key. It, insert and emptied are the
// only round-loop code that reads the layout.
func (sh *shard) link(key uint64) *Link {
	idx := key >> sh.shift
	switch {
	case sh.table != nil:
		return &sh.table[idx]
	case sh.pages != nil:
		return &sh.pages[idx>>pageBits][idx&pageMask]
	default:
		return sh.links.get(key)
	}
}

// insert returns the Link of key for an arrival. A paged insert
// allocates the key's page on first touch (recycling a free page
// when there is one), and a hashed one claims an index slot; either
// happens only for an empty link, which the arrival then joins, so
// combined-away arrivals cost no page. Pages are retained once
// allocated, so a warm round stays allocation-free.
func (sh *shard) insert(key uint64) *Link {
	idx := key >> sh.shift
	switch {
	case sh.table != nil:
		return &sh.table[idx]
	case sh.pages != nil:
		pg := sh.pages[idx>>pageBits]
		if pg == nil {
			pg = sh.takePage()
			sh.pages[idx>>pageBits] = pg
			sh.pageCount++
		}
		return &pg[idx&pageMask]
	default:
		return sh.links.insert(key)
	}
}

// emptied releases the hashed index slot of a key whose last packet a
// pop has just taken; an empty flat or paged slot needs no release.
func (sh *shard) emptied(key uint64) {
	if sh.table == nil && sh.pages == nil {
		sh.links.del(key)
	}
}

// takePage recycles a page arm freed or constructs a fresh one.
// Recycled pages are all-empty by the drain invariant, so first-touch
// behavior is identical either way.
func (sh *shard) takePage() *[pageSize]Link {
	if n := len(sh.pageFree); n > 0 {
		pg := sh.pageFree[n-1]
		sh.pageFree[n-1] = nil
		sh.pageFree = sh.pageFree[:n-1]
		return pg
	}
	return new([pageSize]Link)
}
