package engine

import (
	"fmt"

	"pramemu/internal/packet"
	"pramemu/internal/prng"
)

// The latency-model axis values of EventOptions.Model.
const (
	// LatencyFixed gives every link the same crossing time Base.
	LatencyFixed = "fixed"
	// LatencyJitter draws each link's crossing time uniformly from
	// [Base, Base+Jitter] once per run.
	LatencyJitter = "jitter"
	// LatencyMatrix places every node at a seeded coordinate on a
	// Scale×Scale grid and prices each link Base plus the Manhattan
	// distance between its endpoints — a per-node-pair delay matrix
	// without materializing n² entries. Links whose endpoints the
	// simulator cannot name (NodeOf/PeerOf nil) fall back to a uniform
	// draw over the same range.
	LatencyMatrix = "matrix"
)

// EventOptions selects the asynchronous discrete-event loop instead of
// the synchronous round loop and configures its link model. The event
// loop serves the same injection/handler/combiner callbacks over a
// timing wheel of packet events: each link carries a per-run latency
// drawn from the configured distribution, a sender-side bandwidth cap
// (one transmission start per Gap ticks), and the three fault axes —
// transient link outages, straggler nodes, and packet drop with
// retransmit-after-timeout.
//
// Every random property derives from the run seed and a stable entity
// (link key, node index, packet ID, attempt number) — never from
// worker or shard streams — so event runs are byte-reproducible for
// any Workers value and any sweep pool width.
type EventOptions struct {
	// Model is the latency distribution: LatencyFixed (default),
	// LatencyJitter or LatencyMatrix.
	Model string
	// Base is the minimum link crossing time in ticks (default 1).
	// With Base 1, Gap 1 and no faults the event loop reproduces the
	// synchronous round engine tick for tick.
	Base int
	// Jitter is the uniform extra-latency span of LatencyJitter.
	Jitter int
	// Scale is the coordinate-grid side of LatencyMatrix (default 8),
	// bounding the matrix extra latency at 2*(Scale-1).
	Scale int
	// Gap is the sender-side bandwidth cap: the minimum number of
	// ticks between consecutive transmission starts on one link
	// (default 1 = the round model's one packet per link per tick).
	Gap int

	// LinkFailure is the probability that a link starts the run in a
	// transient outage; a failed link carries nothing until its seeded
	// repair tick (uniform in [1, RepairTime]), so routing always
	// terminates.
	LinkFailure float64
	// RepairTime bounds the outage duration in ticks (default 8*Base).
	RepairTime int
	// Straggler is the probability that a node is a straggler; every
	// link it sends on has latency and gap multiplied by
	// StragglerFactor. Without a NodeOf hook the draw is per link.
	Straggler float64
	// StragglerFactor is the straggler slowdown multiple (default 4).
	StragglerFactor int
	// Drop is the per-transmission loss probability; the sender holds
	// the link and retransmits RetransmitAfter ticks later, counting
	// one Stats.Retransmits per loss. Must be < 1.
	Drop float64
	// RetransmitAfter is the loss-detection timeout in ticks (default
	// 4*(Base+Jitter)).
	RetransmitAfter int

	// NodeOf and PeerOf, when set by the simulator, decode a link key
	// into its sender and receiver node — the entities the straggler
	// and matrix axes are keyed to. Nodes bounds the node index space
	// (a sizing hint: the per-node memos grow past it on demand).
	NodeOf func(key uint64) int
	PeerOf func(key uint64) int
	Nodes  int
}

// withDefaults substitutes the documented defaults.
func (o EventOptions) withDefaults() EventOptions {
	if o.Model == "" {
		o.Model = LatencyFixed
	}
	if o.Base <= 0 {
		o.Base = 1
	}
	if o.Scale <= 0 {
		o.Scale = 8
	}
	if o.Gap <= 0 {
		o.Gap = 1
	}
	if o.RepairTime <= 0 {
		o.RepairTime = 8 * o.Base
	}
	if o.StragglerFactor <= 1 {
		o.StragglerFactor = 4
	}
	if o.RetransmitAfter <= 0 {
		o.RetransmitAfter = 4 * (o.Base + o.Jitter)
	}
	return o
}

// maxHorizon caps the scheduling horizon (see horizon), and with it
// the timing wheel at 2^17 ticks × 4 kinds of 4-byte list heads — 2 MiB.
// A 65536-tick latency, gap, outage or timeout is orders of magnitude
// past any routing time the engine prices.
const maxHorizon = 1 << 16

// horizon is the largest offset, in ticks, at which the loop ever
// schedules an event on defaulted options: a delivery lands one link
// latency ahead (at most Base plus the largest jitter or matrix extra,
// times the straggler factor), a wake one straggler-stretched gap or
// one outage ahead (outages end by tick RepairTime), and a
// retransmission exactly RetransmitAfter ahead.
func (o EventOptions) horizon() int64 {
	extra := max(int64(o.Jitter), 2*int64(o.Scale-1))
	sf := int64(o.StragglerFactor)
	return max((int64(o.Base)+extra)*sf, int64(o.Gap)*sf,
		int64(o.RetransmitAfter), int64(o.RepairTime))
}

// Validate rejects impossible knob values; callers converting user
// input should validate before handing the options to New, which
// panics on them (an invalid model is a programming error there).
func (o EventOptions) Validate() error {
	switch o.Model {
	case "", LatencyFixed, LatencyJitter, LatencyMatrix:
	default:
		return fmt.Errorf("unknown latency model %q (known: %s, %s, %s)",
			o.Model, LatencyFixed, LatencyJitter, LatencyMatrix)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"link failure", o.LinkFailure}, {"straggler", o.Straggler}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("%s probability %v out of [0,1]", p.name, p.v)
		}
	}
	if o.Drop < 0 || o.Drop >= 1 {
		return fmt.Errorf("drop probability %v out of [0,1) (1 would never deliver)", o.Drop)
	}
	// Bounding every knob first keeps the horizon product in range.
	for _, v := range []int{o.Base, o.Jitter, o.Scale, o.Gap, o.RepairTime, o.StragglerFactor, o.RetransmitAfter} {
		if v < 0 {
			return fmt.Errorf("negative event-engine knob")
		}
		if v > maxHorizon {
			return fmt.Errorf("event-engine knob %d exceeds the %d-tick scheduling horizon", v, maxHorizon)
		}
	}
	if h := o.withDefaults().horizon(); h > maxHorizon {
		return fmt.Errorf("event-engine scheduling horizon %d ticks exceeds %d (latency and gap times the straggler factor, repair time and retransmit timeout bound it)",
			h, maxHorizon)
	}
	return nil
}

// maxDropAttempts bounds the retransmission count per (link, packet)
// pair: past it the transmission is forced through. The hash draws are
// independent per attempt, so even at Drop 0.9 the bound triggers with
// probability ~1e-64; it exists so termination is unconditional.
const maxDropAttempts = 1 << 6

// The event kinds, in their processing order at equal timestamps. The
// order reconstructs the round engine's phase structure within a tick:
// deliveries (the drain) run first, then arrivals enqueue in canonical
// (key, packet ID) order with the combiner consulted against settled
// queues (the push), and only then do links start new transmissions —
// so an arrival can still combine with a packet departing next tick,
// exactly as it can in the synchronous push phase.
const (
	evDeliver = iota // a packet finished crossing its link
	evArrive         // a packet is ready to enqueue on a link
	evRetry          // a lost transmission's timeout expired
	evFree           // a link may be able to start transmitting
	numKinds
)

// slabEvent is one pending event in the wheel's slab: the link key and
// packet the event concerns (nil on evFree), and the index of the next
// event in the same (tick, kind) list (-1 ends it; free slots chain the
// free list). The event's tick and kind are implied by the list
// holding it, and a retransmission's attempt number by its link.
type slabEvent struct {
	a    Arrival
	next int32
}

// eventLink is one link's asynchronous state: its queue, its sampled
// latency and gap, its transient-outage window and the in-flight
// packet a retransmission timeout is holding.
type eventLink struct {
	q        Link
	inflight *packet.Packet
	freeAt   int64 // earliest next transmission start (bandwidth cap)
	downTil  int64 // transient outage: no starts before this tick
	wakeAt   int64 // pending evFree tick, -1 when none (dedup guard)
	lat      int32 // crossing time, at most the horizon
	gap      int32 // ticks between transmission starts, at most the horizon
	attempt  int32 // attempt number of the pending retransmission
}

// linkChunkBits sizes the link slab's chunks: 256 links (16 KiB) per
// chunk. Chunks are never reallocated, so growing the slab copies
// nothing and a *eventLink stays valid for the whole run.
const (
	linkChunkBits = 8
	linkChunk     = 1 << linkChunkBits
)

// eventIndexBytes is the memory cost of one dense link-index entry.
const eventIndexBytes = 4

// eventLoop is the per-run state of the asynchronous engine.
//
// Scheduling is a timing wheel. Every event lands at most horizon()
// ticks ahead, so a ring of R > horizon ticks never holds two pending
// ticks in one slot: heads[(tick mod R)*numKinds + kind] starts an
// intrusive list of that (tick, kind)'s events in slab. The loop visits
// ticks in order and, within a tick, kinds in order, detaching and
// running each (tick, kind) list. An event created while (t, k) runs
// is always scheduled at (t, k' > k) or a later tick — schedule panics
// otherwise — so every (tick, kind) batch is complete when it runs.
//
// Within a batch only arrivals need an order: they enqueue on shared
// queues and meet the combiner, so their batch is radix-sorted into
// canonical (key, packet ID) order, exactly as the round engine's push
// phase is. Deliveries, retransmissions and wakes touch only their own
// packet, their own link and commutative counters — the handler
// contract the round engine's drain already relies on, since it walks
// each shard's active-key list in swap-removal order — so they run in
// list order. The result is the one a total (time, kind, key, packet
// ID) order gives.
type eventLoop struct {
	e    *Engine
	o    EventOptions
	seed uint64

	heads   []int32     // per (tick mod R, kind) list head, -1 when empty
	mask    int64       // R-1
	slab    []slabEvent // pending events; free slots are chained from free
	free    int32
	pending int   // events in the wheel
	now     int64 // tick being processed
	kind    int   // kind being processed (-1 before the tick's first)
	batch   []Arrival
	scratch []Arrival

	// Link state lives in a chunked slab addressed by link ID; index
	// (dense, MaxKey entries) or byKey (hashed) maps a key to its
	// ID+1, with zero meaning not yet touched.
	index  []int32
	byKey  map[uint64]int32
	chunks []*[linkChunk]eventLink
	nlinks int32

	// linkRoot seeds the per-link property streams (latency draw,
	// outage draw, per-link straggler fallback); nodeRoot the per-node
	// straggler and coordinate streams. Both split by stable entity
	// index, so sampled properties are independent of touch order.
	linkRoot *prng.Source
	nodeRoot *prng.Source
	slow     []int8     // straggler verdict per node: 0 undrawn, 1 fast, 2 slow
	coord    [][2]int32 // matrix coordinate per node, each axis +1 (zero = undrawn)
}

// mix64 is the splitmix64 finalizer, the stateless hash behind
// per-attempt drop draws.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unitDraw maps (seed, link, packet, attempt) to a uniform [0,1)
// value. Stateless, so a transmission's fate never depends on how
// work was scheduled — only on what is being transmitted.
func unitDraw(seed, key, pid, attempt uint64) float64 {
	h := mix64(seed ^ mix64(key^mix64(pid^mix64(attempt^0x6576656e74)))) // "event"
	return float64(h>>11) * (1.0 / (1 << 53))
}

// runEvent executes the asynchronous discrete-event loop: the Event
// counterpart of the synchronous loop in Run. It is strictly
// sequential — the wheel order is the only schedule — which is what
// makes the Workers knob a no-op on results rather than a hazard.
func (e *Engine) runEvent(inject func(ctx *Ctx), handle Handler, combine Combiner) Stats {
	ev := e.newEventLoop()
	ctx := &e.shards[0].ctx
	if inject != nil {
		inject(ctx)
	}
	ev.harvest(ctx, 0)
	ev.run(ctx, handle, combine)
	out := e.collect()
	e.clearScratch()
	return out
}

// newEventLoop builds an empty event loop at tick 0.
func (e *Engine) newEventLoop() *eventLoop {
	ev := &eventLoop{
		e:        e,
		o:        *e.event,
		seed:     e.seed,
		free:     -1,
		kind:     -1,
		linkRoot: prng.New(e.seed ^ 0x5ca1ab1e0ddba11),
		nodeRoot: prng.New(e.seed ^ 0x0fabacadaba0beef),
	}
	ring := int64(1)
	for ring <= ev.o.horizon() {
		ring *= 2
	}
	ev.mask = ring - 1
	ev.heads = make([]int32, ring*numKinds)
	for i := range ev.heads {
		ev.heads[i] = -1
	}
	if e.state == StateDense {
		ev.index = make([]int32, e.shards[0].ctx.maxKey)
	} else {
		ev.byKey = make(map[uint64]int32)
	}
	if ev.o.Straggler > 0 {
		ev.slow = make([]int8, ev.o.Nodes)
	}
	if ev.o.Model == LatencyMatrix {
		ev.coord = make([][2]int32, ev.o.Nodes)
	}
	return ev
}

// run processes ticks from the current one until the wheel is empty.
func (ev *eventLoop) run(ctx *Ctx, handle Handler, combine Combiner) {
	// ctxPollMask paces the cancellation poll: one non-blocking channel
	// read per ~4096 events, the event-loop analogue of the round loop's
	// per-round check.
	const ctxPollMask = 1<<12 - 1
	polled := ctxPollMask // poll before the first batch
	for t := ev.now; ev.pending > 0; t++ {
		checkRound("tick", t)
		ev.now = t
		for kind := 0; kind < numKinds; kind++ {
			ev.kind = kind
			batch := ev.detach(int(t&ev.mask)*numKinds+kind, kind == evArrive)
			if len(batch) == 0 {
				continue
			}
			if polled += len(batch); polled > ctxPollMask {
				polled = 0
				ev.e.checkContext()
			}
			switch kind {
			case evDeliver:
				for _, a := range batch {
					handle(ctx, a, int(t))
				}
				ev.harvest(ctx, t)
			case evArrive:
				for _, a := range batch {
					ev.arrive(ctx, a, t, combine)
				}
			case evRetry:
				for _, a := range batch {
					l := ev.link(a.Key)
					ev.transmit(ctx, l, a.Key, a.P, t, l.attempt)
				}
			case evFree:
				for _, a := range batch {
					l := ev.link(a.Key)
					if l.wakeAt == t {
						l.wakeAt = -1
					}
					ev.tryStart(ctx, l, a.Key, t)
				}
			}
		}
		ev.kind = -1
	}
}

// schedule files an event at (at, kind). The wheel order equals the
// total (time, kind, key, ID) order only if nothing is scheduled into
// a (tick, kind) list already detached, or beyond the ring; both would
// be an engine bug, so they panic.
func (ev *eventLoop) schedule(at int64, kind int, a Arrival) {
	if d := at - ev.now; d < 0 || d > ev.mask || (d == 0 && kind <= ev.kind) {
		panic(fmt.Sprintf("engine: event (tick %d, kind %d) scheduled while running (tick %d, kind %d), outside the wheel's (tick %d, kind %d)..(tick %d) window",
			at, kind, ev.now, ev.kind, ev.now, ev.kind+1, ev.now+ev.mask))
	}
	i := ev.free
	if i >= 0 {
		ev.free = ev.slab[i].next
	} else {
		i = int32(len(ev.slab))
		ev.slab = append(ev.slab, slabEvent{})
	}
	slot := &ev.heads[int(at&ev.mask)*numKinds+kind]
	ev.slab[i] = slabEvent{a: a, next: *slot}
	*slot = i
	ev.pending++
}

// detach empties one (tick, kind) list into the reused batch buffer
// and returns its slab slots to the free list, sorting the batch into
// canonical (key, packet ID) order when asked.
func (ev *eventLoop) detach(slot int, sorted bool) []Arrival {
	i := ev.heads[slot]
	if i < 0 {
		return nil
	}
	ev.heads[slot] = -1
	batch := ev.batch[:0]
	for i >= 0 {
		x := &ev.slab[i]
		batch = append(batch, x.a)
		next := x.next
		x.a, x.next = Arrival{}, ev.free
		ev.free = i
		i = next
	}
	ev.pending -= len(batch)
	if sorted {
		batch, ev.scratch = sortArrivals(batch, ev.scratch)
	}
	ev.batch = batch
	return batch
}

// harvest converts the context's emitted arrivals into evArrive events
// at tick t; the batch sort gives them the same canonical insertion
// order the round engine's radix sort does.
func (ev *eventLoop) harvest(ctx *Ctx, t int64) {
	for s, bucket := range ctx.out {
		for _, a := range bucket {
			ev.schedule(t, evArrive, a)
		}
		clear(bucket)
		ctx.out[s] = bucket[:0]
	}
}

// arrive enqueues a packet on its link (or combines it away) and
// wakes the link. Service never starts here: all of a tick's arrivals
// settle before any of its transmission starts, mirroring the round
// engine's push-then-drain phase barrier.
func (ev *eventLoop) arrive(ctx *Ctx, a Arrival, t int64, combine Combiner) {
	l := ev.link(a.Key)
	if combine != nil && l.q.n > 0 && combine(ctx, &l.q, a) {
		return
	}
	a.P.EnqueuedAt = int32(t)
	l.q.push(a.P, ev.e.less)
	if l.q.n > ctx.stats.MaxQueue {
		ctx.stats.MaxQueue = l.q.n
	}
	ev.wake(l, a.Key, t)
}

// wake schedules an evFree at the earliest tick the link could start
// a transmission, deduplicating against an already-pending wake.
func (ev *eventLoop) wake(l *eventLink, key uint64, t int64) {
	if l.inflight != nil || l.q.n == 0 {
		return
	}
	at := max(t, l.freeAt, l.downTil)
	if l.wakeAt == at {
		return
	}
	l.wakeAt = at
	ev.schedule(at, evFree, Arrival{Key: key})
}

// tryStart pops the link's head packet and begins transmitting it,
// unless the link is held by a pending retransmission, still inside
// its bandwidth gap, or down — in which case the wake is re-armed for
// the blocking tick.
func (ev *eventLoop) tryStart(ctx *Ctx, l *eventLink, key uint64, t int64) {
	if l.inflight != nil || l.q.n == 0 {
		return
	}
	if start := max(t, l.freeAt, l.downTil); start > t {
		if l.wakeAt != start {
			l.wakeAt = start
			ev.schedule(start, evFree, Arrival{Key: key})
		}
		return
	}
	p := l.q.pop()
	p.Delay += int(t) - int(p.EnqueuedAt)
	ev.transmit(ctx, l, key, p, t, 0)
}

// transmit attempts to push p across the link at tick t. A dropped
// attempt holds the link (head-of-line, as a FIFO sender would) and
// schedules the retransmission at the timeout; a successful one
// schedules the delivery at t+latency, advances the bandwidth window
// and wakes the link for its next queued packet.
func (ev *eventLoop) transmit(ctx *Ctx, l *eventLink, key uint64, p *packet.Packet, t int64, attempt int32) {
	if ev.o.Drop > 0 && attempt < maxDropAttempts &&
		unitDraw(ev.seed, key, uint64(p.ID), uint64(attempt)) < ev.o.Drop {
		ctx.stats.Retransmits++
		l.inflight, l.attempt = p, attempt+1
		ev.schedule(t+int64(ev.o.RetransmitAfter), evRetry, Arrival{key, p})
		return
	}
	l.inflight = nil
	l.freeAt = t + int64(l.gap)
	ev.schedule(t+int64(l.lat), evDeliver, Arrival{key, p})
	ev.wake(l, key, t)
}

// link returns the link's state, sampling its per-run properties on
// first touch. Every draw comes from a stream split by the link key
// (or node index), so the sampled latency, outage and straggler
// verdicts depend only on the seed and the entity — not on when, or
// whether, other links were touched first.
func (ev *eventLoop) link(key uint64) *eventLink {
	var id int32
	if ev.index != nil {
		id = ev.index[key]
	} else {
		id = ev.byKey[key]
	}
	if id != 0 {
		id--
		return &ev.chunks[id>>linkChunkBits][id&(linkChunk-1)]
	}
	id = ev.nlinks
	ev.nlinks++
	if int(id>>linkChunkBits) == len(ev.chunks) {
		ev.chunks = append(ev.chunks, new([linkChunk]eventLink))
	}
	if ev.index != nil {
		ev.index[key] = id + 1
	} else {
		ev.byKey[key] = id + 1
	}
	l := &ev.chunks[id>>linkChunkBits][id&(linkChunk-1)]
	l.wakeAt = -1
	src := ev.linkRoot.Split(key)
	lat := int64(ev.o.Base)
	switch ev.o.Model {
	case LatencyJitter:
		if ev.o.Jitter > 0 {
			lat += int64(src.Intn(ev.o.Jitter + 1))
		}
	case LatencyMatrix:
		if ev.o.NodeOf != nil && ev.o.PeerOf != nil {
			lat += ev.pairDelay(ev.o.NodeOf(key), ev.o.PeerOf(key))
		} else if span := 2 * (ev.o.Scale - 1); span > 0 {
			lat += int64(src.Intn(span + 1))
		}
	}
	gap := int64(ev.o.Gap)
	if ev.o.LinkFailure > 0 && src.Float64() < ev.o.LinkFailure {
		l.downTil = 1 + int64(src.Intn(ev.o.RepairTime))
	}
	if ev.o.Straggler > 0 {
		slow := false
		if ev.o.NodeOf != nil {
			slow = ev.nodeSlow(ev.o.NodeOf(key))
		} else {
			slow = src.Float64() < ev.o.Straggler
		}
		if slow {
			lat *= int64(ev.o.StragglerFactor)
			gap *= int64(ev.o.StragglerFactor)
		}
	}
	l.lat, l.gap = int32(lat), int32(gap)
	return l
}

// growTo extends a per-node memo so node indexes it, growing
// geometrically (simulators may set NodeOf without Nodes).
func growTo[T any](s []T, node int) []T {
	if node < len(s) {
		return s
	}
	return append(s, make([]T, max(node+1, 2*len(s))-len(s))...)
}

// nodeSlow memoizes the per-node straggler draw.
func (ev *eventLoop) nodeSlow(node int) bool {
	ev.slow = growTo(ev.slow, node)
	if v := ev.slow[node]; v != 0 {
		return v == 2
	}
	slow := ev.nodeRoot.Split(uint64(node)).Float64() < ev.o.Straggler
	ev.slow[node] = 1
	if slow {
		ev.slow[node] = 2
	}
	return slow
}

// pairDelay is the LatencyMatrix extra latency: the Manhattan
// distance between the endpoints' seeded grid coordinates.
func (ev *eventLoop) pairDelay(a, b int) int64 {
	ca, cb := ev.nodeCoord(a), ev.nodeCoord(b)
	dx, dy := ca[0]-cb[0], ca[1]-cb[1]
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return int64(dx + dy)
}

// nodeCoord memoizes the per-node matrix coordinate.
func (ev *eventLoop) nodeCoord(node int) [2]int32 {
	ev.coord = growTo(ev.coord, node)
	if c := ev.coord[node]; c[0] != 0 {
		return [2]int32{c[0] - 1, c[1] - 1}
	}
	src := ev.nodeRoot.Split(uint64(node) | 1<<32)
	c := [2]int32{int32(src.Intn(ev.o.Scale)), int32(src.Intn(ev.o.Scale))}
	ev.coord[node] = [2]int32{c[0] + 1, c[1] + 1}
	return c
}
