package leveled

import (
	"pramemu/internal/engine"
	"pramemu/internal/packet"
	"pramemu/internal/twophase"
)

// Options configures a routing run; the two-phase routers share it.
type Options = twophase.Options

// Stats reports the outcome of one routing run. Rounds includes the
// reply traffic when Options.Replies is set; MaxModuleLoad is the
// largest number of (un-combined) requests delivered to a single
// last-column node.
type Stats = twophase.Stats

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

// router holds the immutable per-run configuration; all mutable state
// lives in the engine's shard contexts. Reply links are keyed by the
// Core's Reply encoding, reverseBit | (level*width + from)*width + to:
// sparse, present only when Options.Replies is set, and sorted after
// every forward key.
type router struct {
	twophase.Core
	spec    Spec
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
		Core: twophase.Core{
			Name: "leveled", Nodes: spec.Width(), Opts: opts,
			Reply: twophase.PairKey{Base: reverseBit, LevelStride: w, Width: w},
		},
		spec:    spec,
		levels:  spec.Levels(),
		logical: 2*spec.Levels() - 1,
		record:  opts.Record(),
		width:   w,
		degree:  d,
	}
	if opts.SkipPhase1 {
		r.logical = spec.Levels()
	}
	// Reply-free runs declare the dense forward key space so the
	// engine swaps its hashed link index for slice-indexed tables; replies
	// live under reverseBit, outside any declarable range.
	var maxKey uint64
	if !opts.Replies {
		maxKey = uint64(r.logical-1) * r.width * r.degree
	}
	eo := opts.Engine(maxKey)
	if ev := eo.Event; ev != nil {
		ev.Nodes = spec.Width()
		ev.NodeOf = func(key uint64) int {
			if key&reverseBit != 0 {
				return r.Reply.From(key)
			}
			return int((key / r.degree) % r.width)
		}
		ev.PeerOf = func(key uint64) int {
			if key&reverseBit != 0 {
				return r.Reply.To(key)
			}
			cell := key / r.degree
			return r.spec.Out(r.physLevel(int(cell/r.width)), int(cell%r.width), int(key%r.degree))
		}
	}
	return r.Run(eo, pkts, func(ctx *engine.Ctx, p *packet.Packet) {
		ctx.Emit(r.forwardKey(0, p.Src, r.chooseSlot(p, 0, p.Src)), p)
	}, r.handle, r.combine)
}

// chooseSlot picks the outgoing link slot for a packet sitting at the
// given logical column: a random link during the first traversal, the
// unique-path link during the second.
func (r *router) chooseSlot(p *packet.Packet, logicalCol, node int) int {
	physical := logicalCol
	random := true
	if r.Opts.SkipPhase1 {
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
	if r.Opts.SkipPhase1 || logicalEdge < r.levels-1 {
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
		r.Retrace(ctx, p, round)
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
		r.Deliver(ctx, p, node, round)
		return
	}
	next := r.chooseSlot(p, col, node)
	ctx.Emit(r.forwardKey(col, node, next), p)
}

// onDeterministicPath reports whether a forward edge key belongs to
// the second (unique-path) traversal, where two packets for the same
// address and module are guaranteed to share their remaining route
// and may therefore combine.
func (r *router) onDeterministicPath(key uint64) bool {
	level := int(key / (r.width * r.degree))
	return r.Opts.SkipPhase1 || level >= r.levels-1
}

// combine merges an arriving request into a queued one with the same
// kind, address and module, if one exists on this deterministic-path
// link. Returns true if merged.
func (r *router) combine(ctx *engine.Ctx, q *engine.Link, a engine.Arrival) bool {
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
