package leveled

import (
	"context"
	"fmt"

	"pramemu/internal/engine"
	"pramemu/internal/packet"
	"pramemu/internal/prng"
	"pramemu/internal/queue"
)

// Options configures a routing run.
type Options struct {
	// Context, when non-nil, lets callers cancel or deadline a run;
	// the engine polls it cheaply (per round / every few thousand
	// events) and unwinds with an engine.Abort panic on expiry. A
	// never-canceled run is bit-identical to one without a context.
	Context context.Context
	// Seed drives every random choice; equal seeds give identical runs.
	Seed uint64
	// SkipPhase1 disables the randomizing first traversal and routes
	// every packet directly along its unique path. This is the
	// ablation showing why Valiant's phase 1 is needed: adversarial
	// permutations then congest single links.
	SkipPhase1 bool
	// Replies makes every delivered request retrace its recorded path
	// in reverse as a reply (ReadReply / WriteAck), per the direction
	// bits of Theorem 2.6. Rounds then counts until all replies are
	// home.
	Replies bool
	// Combine merges same-kind requests for the same address and
	// module that meet in a queue during the deterministic traversal
	// (Theorem 2.6's message combining). Implies path recording.
	Combine bool
	// RecordPaths forces path recording even without Replies/Combine
	// (used by path-property tests).
	RecordPaths bool
	// Workers is the round-engine worker count: 0 selects GOMAXPROCS,
	// 1 the sequential loop. Any value yields identical results.
	Workers int
	// PagedKeys forces the engine's paged dense tables even when the
	// declared key space fits flat ones (the engine pages
	// automatically beyond 2^24 keys). Results are bit-identical
	// either way; the knob exists for equivalence tests and
	// benchmarks.
	PagedKeys bool
	// MemBudget caps the engine's fixed link-table footprint in bytes;
	// over budget the run degrades to hashed state instead of
	// erroring. Zero means no budget. See engine.Options.MemBudget.
	MemBudget int64
	// MemStats, when non-nil, receives the engine's resolved state and
	// table footprint after the run.
	MemStats *engine.MemStats
	// Lease, when non-nil, recycles the engine's table and scratch
	// allocations across same-shape runs (see engine.Options.Lease);
	// results are bit-identical with or without it.
	Lease *engine.Lease
	// Event, when non-nil, routes on the asynchronous discrete-event
	// engine instead of synchronous rounds (see engine.EventOptions).
	// The router fills the node-decoding hooks so the straggler and
	// delay-matrix axes key to width-space nodes (a straggler node is
	// slow in every column). Stats.Rounds then reports the last
	// delivery tick (the delivered time).
	Event *engine.EventOptions
}

// Stats reports the outcome of one routing run.
type Stats struct {
	// Rounds is the total routing time in link steps, including the
	// reply traffic when Options.Replies is set.
	Rounds int
	// RequestRounds is the round by which every forward packet had
	// been delivered to its destination.
	RequestRounds int
	// MaxQueue is the largest queue occupancy observed on any link.
	MaxQueue int
	// TotalDelay sums every packet's time spent waiting in queues.
	TotalDelay int64
	// MaxPacketSteps is the largest hops+delay over all packets.
	MaxPacketSteps int
	// DeliveredRequests counts original requests that reached their
	// module (combined packets count once per constituent).
	DeliveredRequests int
	// DeliveredReplies counts original requesters that received a
	// reply.
	DeliveredReplies int
	// Merges counts combining events (Theorem 2.6).
	Merges int
	// Retransmits counts dropped transmissions the event engine's
	// senders retried (zero on synchronous runs).
	Retransmits int
	// MaxModuleLoad is the largest number of (un-combined) requests
	// delivered to a single last-column node.
	MaxModuleLoad int
}

const reverseBit = uint64(1) << 63

// keySpaceOverflows reports whether the product a*b*c wraps uint64 or
// reaches 2^63, where it would collide with the reverse-bit namespace.
func keySpaceOverflows(a, b, c uint64) bool {
	if a == 0 || b == 0 || c == 0 {
		return false
	}
	if a > (reverseBit-1)/b {
		return true
	}
	return a*b > (reverseBit-1)/c
}

// forwardKey encodes the directed forward link (logical column, node,
// out-slot) densely as (level*width + node)*degree + slot, so the
// whole forward key space is [0, (logical-1)*width*degree) and the
// engine can back it with slice-indexed tables. The encoding orders
// identically to the previous packed (level, node, slot) bit fields —
// strictly monotone in the triple — so routing results are unchanged.
func (r *router) forwardKey(level, node, slot int) uint64 {
	return (uint64(level)*r.width+uint64(node))*r.degree + uint64(slot)
}

// reverseKey encodes a reply link by its endpoint node pair, packed
// as the width-based product (level*width + from)*width + to under the
// reverse bit. Reply traffic is sparse in this space, exists only when
// Options.Replies is set, and always sorts after the forward keys (the
// reverse bit). The product is strictly monotone in (level, from, to),
// the same order as the old 48/24-bit fields, so insertion order — and
// therefore every result — is unchanged; unlike fixed bit fields it
// keeps working up to topology-scale widths (2^31 nodes).
func (r *router) reverseKey(level, from, to int) uint64 {
	return reverseBit | ((uint64(level)*r.width+uint64(from))*r.width + uint64(to))
}

// router holds the immutable per-run configuration; all mutable state
// lives in the engine's shard contexts.
type router struct {
	spec    Spec
	opts    Options
	levels  int // ℓ
	logical int // logical columns: 2ℓ-1 (or ℓ when SkipPhase1)
	record  bool
	width   uint64 // spec.Width(), the forward-key node stride
	degree  uint64 // spec.Degree(), the forward-key slot stride
}

// Route routes pkts through the leveled network described by spec
// using the universal two-phase randomized algorithm (Algorithm 2.1).
// Each packet travels from its Src in the first column to its Dst in
// the last column. Packets must have unique IDs. Route mutates the
// packets (hop/delay/path bookkeeping) and returns aggregate Stats.
func Route(spec Spec, pkts []*packet.Packet, opts Options) Stats {
	if spec.Levels() < 2 {
		panic("leveled: network needs at least 2 levels")
	}
	// Guard the product key encodings against 64-bit wrap: forward keys
	// reach (logical-1)*width*degree and reverse keys logical*width^2,
	// and either crossing 2^63 would collide with the reverse-bit
	// namespace. Every spec the old 24-bit bit-field guard admitted
	// passes this one; it newly admits topology-scale widths.
	logical := uint64(2*spec.Levels() - 1)
	w, d := uint64(spec.Width()), uint64(spec.Degree())
	if keySpaceOverflows(logical, w, w) || keySpaceOverflows(logical, w, d) {
		panic("leveled: width x degree key space overflows 63 bits")
	}
	r := &router{
		spec:    spec,
		opts:    opts,
		levels:  spec.Levels(),
		logical: 2*spec.Levels() - 1,
		record:  opts.Replies || opts.Combine || opts.RecordPaths,
		width:   uint64(spec.Width()),
		degree:  uint64(spec.Degree()),
	}
	if opts.SkipPhase1 {
		r.logical = spec.Levels()
	}
	// Reply-free runs declare the dense forward key space so the
	// engine swaps its hash maps for slice-indexed tables; replies
	// live under reverseBit, outside any declarable range.
	var maxKey uint64
	if !opts.Replies {
		maxKey = uint64(r.logical-1) * r.width * r.degree
	}
	engOpts := engine.Options{
		Context:    opts.Context,
		Workers:    opts.Workers,
		Seed:       opts.Seed,
		MaxKey:     maxKey,
		MemBudget:  opts.MemBudget,
		ForcePaged: opts.PagedKeys,
		Lease:      opts.Lease,
	}
	if opts.Event != nil {
		ev := *opts.Event
		ev.Nodes = spec.Width()
		ev.NodeOf = func(key uint64) int {
			if key&reverseBit != 0 {
				return int((key &^ reverseBit) / r.width % r.width)
			}
			return int((key / r.degree) % r.width)
		}
		ev.PeerOf = func(key uint64) int {
			if key&reverseBit != 0 {
				return int((key &^ reverseBit) % r.width)
			}
			cell := key / r.degree
			return r.spec.Out(r.physLevel(int(cell/r.width)), int(cell%r.width), int(key%r.degree))
		}
		engOpts.Event = &ev
	}
	eng := engine.New(engOpts)
	var combiner engine.Combiner
	if opts.Combine {
		combiner = r.combine
	}
	st := eng.Run(func(ctx *engine.Ctx) {
		root := prng.New(opts.Seed)
		seen := make(map[int]bool, len(pkts))
		for _, p := range pkts {
			if seen[p.ID] {
				panic(fmt.Sprintf("leveled: duplicate packet ID %d", p.ID))
			}
			seen[p.ID] = true
			if p.Src < 0 || p.Src >= spec.Width() || p.Dst < 0 || p.Dst >= spec.Width() {
				panic(fmt.Sprintf("leveled: packet %d endpoints out of range", p.ID))
			}
			p.Rand = root.Split(uint64(p.ID))
			p.Injected = 0
			p.EnqueuedAt = 0
			p.Arrived = -1
			if r.record {
				p.Path = append(p.Path[:0], int32(p.Src))
			}
			slot := r.chooseSlot(p, 0, p.Src)
			ctx.Emit(r.forwardKey(0, p.Src, slot), p)
		}
	}, r.handle, combiner)
	if opts.MemStats != nil {
		*opts.MemStats = eng.MemStats()
	}
	return Stats{
		Rounds:            st.Rounds,
		RequestRounds:     st.RequestRounds,
		MaxQueue:          st.MaxQueue,
		TotalDelay:        st.TotalDelay,
		MaxPacketSteps:    st.MaxPacketSteps,
		DeliveredRequests: st.DeliveredRequests,
		DeliveredReplies:  st.DeliveredReplies,
		Merges:            st.Merges,
		Retransmits:       st.Retransmits,
		MaxModuleLoad:     st.MaxModuleLoad,
	}
}

// chooseSlot picks the outgoing link slot for a packet sitting at the
// given logical column: a random link during the first traversal, the
// unique-path link during the second.
func (r *router) chooseSlot(p *packet.Packet, logicalCol, node int) int {
	physical := logicalCol
	random := true
	if r.opts.SkipPhase1 {
		random = false
	} else if logicalCol >= r.levels-1 {
		physical = logicalCol - (r.levels - 1)
		random = false
	}
	if random {
		return p.Rand.Intn(r.spec.OutDegree(physical, node))
	}
	return r.spec.NextHop(physical, node, p.Dst)
}

// physLevel maps a logical edge level to the Spec level it uses.
func (r *router) physLevel(logicalEdge int) int {
	if r.opts.SkipPhase1 || logicalEdge < r.levels-1 {
		return logicalEdge
	}
	return logicalEdge - (r.levels - 1)
}

// handle advances one popped packet a column. Runs concurrently on
// distinct packets when Workers > 1.
func (r *router) handle(ctx *engine.Ctx, a engine.Arrival, round int) {
	p := a.P
	p.Hops++
	if a.Key&reverseBit != 0 {
		r.handleReplyArrival(ctx, p, round)
		return
	}
	cell := a.Key / r.degree
	slot := int(a.Key % r.degree)
	level := int(cell / r.width)
	fromNode := int(cell % r.width)
	node := r.spec.Out(r.physLevel(level), fromNode, slot)
	col := level + 1
	if r.record {
		p.RecordPath(node)
	}
	if col == r.logical-1 {
		r.deliverForward(ctx, p, node, round)
		return
	}
	next := r.chooseSlot(p, col, node)
	ctx.Emit(r.forwardKey(col, node, next), p)
}

// deliverForward completes a request's forward journey at the module
// node and, if configured, spawns its reply.
func (r *router) deliverForward(ctx *engine.Ctx, p *packet.Packet, node, round int) {
	if node != p.Dst {
		panic(fmt.Sprintf("leveled: packet %d delivered to %d, want %d", p.ID, node, p.Dst))
	}
	st := ctx.Stats()
	p.Arrived = round
	if round > st.RequestRounds {
		st.RequestRounds = round
	}
	wantReply := r.opts.Replies && p.Kind == packet.ReadRequest
	if !wantReply {
		// The packet's journey ends here: writes are fire-and-forget
		// ("back in case of a read instruction", §2.1).
		r.noteFinished(ctx, p)
	}
	st.DeliveredRequests += p.TotalCombined()
	ctx.AddLoad(node, p.TotalCombined())
	if !wantReply {
		return
	}
	r.makeReply(p)
	p.Stage = r.logical - 1 // current column index while retracing
	a := r.replyArrival(p)
	ctx.Emit(a.Key, a.P)
}

// makeReply flips a delivered request into its reply kind in place.
func (r *router) makeReply(p *packet.Packet) {
	switch p.Kind {
	case packet.ReadRequest:
		p.Kind = packet.ReadReply
	case packet.WriteRequest:
		p.Kind = packet.WriteAck
	default:
		p.Kind = packet.ReadReply
	}
}

// replyArrival builds the queue insertion for a reply at column
// p.Stage about to traverse the reverse link toward column p.Stage-1.
func (r *router) replyArrival(p *packet.Packet) engine.Arrival {
	from := int(p.Path[p.Stage])
	to := int(p.Path[p.Stage-1])
	return engine.Arrival{Key: r.reverseKey(p.Stage-1, from, to), P: p}
}

// handleReplyArrival advances a retracing reply one column toward its
// requester, fanning out combined children where they merged.
func (r *router) handleReplyArrival(ctx *engine.Ctx, p *packet.Packet, round int) {
	p.Stage--
	col := p.Stage
	// Fan out any children that were combined into p at this column.
	for i, at := range p.CombinedAt {
		if at != col {
			continue
		}
		child := p.Children[i]
		r.makeReply(child)
		if child.Kind == packet.ReadReply {
			child.Value = p.Value
		}
		child.Stage = col
		if col == 0 {
			r.finishReply(ctx, child, round)
		} else {
			a := r.replyArrival(child)
			ctx.Emit(a.Key, a.P)
		}
	}
	if col == 0 {
		r.finishReply(ctx, p, round)
		return
	}
	a := r.replyArrival(p)
	ctx.Emit(a.Key, a.P)
}

func (r *router) finishReply(ctx *engine.Ctx, p *packet.Packet, round int) {
	if int(p.Path[0]) != p.Src {
		panic(fmt.Sprintf("leveled: reply %d retraced to %d, want %d", p.ID, p.Path[0], p.Src))
	}
	p.Arrived = round
	ctx.Stats().DeliveredReplies++
	r.noteFinished(ctx, p)
}

// noteFinished folds a finished packet's cost into the aggregates.
func (r *router) noteFinished(ctx *engine.Ctx, p *packet.Packet) {
	st := ctx.Stats()
	st.TotalDelay += int64(p.Delay)
	if s := p.Steps(); s > st.MaxPacketSteps {
		st.MaxPacketSteps = s
	}
	if p.Arrived > st.Rounds {
		st.Rounds = p.Arrived
	}
}

// onDeterministicPath reports whether a forward edge key belongs to
// the second (unique-path) traversal, where two packets for the same
// address and module are guaranteed to share their remaining route
// and may therefore combine.
func (r *router) onDeterministicPath(key uint64) bool {
	level := int(key / (r.width * r.degree))
	return r.opts.SkipPhase1 || level >= r.levels-1
}

// combine merges an arriving request into a queued one with the same
// kind, address and module, if one exists on this deterministic-path
// link. Returns true if merged.
func (r *router) combine(ctx *engine.Ctx, q queue.Discipline, a engine.Arrival) bool {
	if a.Key&reverseBit != 0 || !r.onDeterministicPath(a.Key) {
		return false
	}
	p := a.P
	var host *packet.Packet
	q.Each(func(c *packet.Packet) bool {
		if c.Kind == p.Kind && c.Addr == p.Addr && c.Dst == p.Dst {
			host = c
			return false
		}
		return true
	})
	if host == nil {
		return false
	}
	// Both packets have arrived at the same column; that column index
	// is len(Path)-1 for each.
	host.Combine(p, len(p.Path)-1)
	ctx.Stats().Merges++
	return true
}
