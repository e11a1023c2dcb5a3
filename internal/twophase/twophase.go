// Package twophase is the packet lifecycle shared by the two generic
// routers of Valiant's two-phase scheme: simnet (Algorithm 2.2, any
// point-to-point graph) and leveled (Algorithm 2.1, leveled networks).
// Both admit packets the same way, deliver requests to their modules
// the same way, and send read replies back along the recorded request
// path with the Theorem 2.6 fan-out of combined children. This package
// owns those steps, the run's Options and the aggregate Stats; each
// router keeps only its forward-key encoding, its next-hop or slot
// choice, its combining predicate and the event engine's node hooks.
package twophase

import (
	"context"
	"fmt"

	"pramemu/internal/engine"
	"pramemu/internal/packet"
)

// Options configures a routing run of either router.
type Options struct {
	// Context, when non-nil, lets callers cancel or deadline a run;
	// the engine polls it cheaply (per round / every few thousand
	// events) and unwinds with an engine.Abort panic on expiry. A
	// never-canceled run is bit-identical to one without a context.
	Context context.Context
	// Seed drives every random choice; equal seeds give identical runs.
	Seed uint64
	// SkipPhase1 routes every packet directly along its deterministic
	// path. This is the ablation showing why Valiant's phase 1 is
	// needed: adversarial permutations then congest single links.
	SkipPhase1 bool
	// Replies makes every delivered read request retrace its recorded
	// path in reverse as a reply, per the direction bits of Theorem
	// 2.6. Rounds then counts until all replies are home.
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
	// MemBudget caps the engine's fixed link-table footprint in bytes;
	// over budget the run steps down to paged, then hashed state
	// instead of erroring. Zero means no budget. See
	// engine.Options.MemBudget.
	MemBudget int64
	// MemStats, when non-nil, receives the engine's resolved state and
	// table footprint after the run (ArenaBytes is left to the caller,
	// which owns the packet arena).
	MemStats *engine.MemStats
	// Lease, when non-nil, keeps the engine between same-shape runs
	// (see engine.Options.Lease); results are bit-identical with or
	// without it.
	Lease *engine.Lease
	// Event, when non-nil, routes on the asynchronous discrete-event
	// engine instead of synchronous rounds (see engine.EventOptions).
	// The router fills the node-decoding hooks so the straggler and
	// delay-matrix axes key to its nodes. Stats.Rounds then reports
	// the last delivery tick (the delivered time).
	Event *engine.EventOptions
}

// Record reports whether packets record their paths: replies retrace
// them and combining fans out along them.
func (o Options) Record() bool { return o.Replies || o.Combine || o.RecordPaths }

// Engine returns the engine options of a run whose dense key space is
// [0, maxKey) (0 declares none). Event options are copied, so the
// router can fill its node hooks without touching the caller's value.
func (o Options) Engine(maxKey uint64) engine.Options {
	eo := engine.Options{
		Context:   o.Context,
		Workers:   o.Workers,
		Seed:      o.Seed,
		MaxKey:    maxKey,
		MemBudget: o.MemBudget,
		Lease:     o.Lease,
	}
	if o.Event != nil {
		ev := *o.Event
		eo.Event = &ev
	}
	return eo
}

// Stats aggregates one routing run; the fields are the measures of
// §2.2.1 (routing time, queue size, delay) plus the emulation counters.
type Stats = engine.Stats

// PairKey encodes a directed link by its endpoint node pair as
// Base | (level*LevelStride + from)*Width + to. The product is strictly
// monotone in (level, from, to), so links sort by that triple.
type PairKey struct {
	Base, LevelStride, Width uint64
}

// Key returns the link key of the hop from -> to at level.
func (k PairKey) Key(level, from, to int) uint64 {
	return k.Base | ((uint64(level)*k.LevelStride+uint64(from))*k.Width + uint64(to))
}

// From decodes a key's sending node.
func (k PairKey) From(key uint64) int {
	x := (key &^ k.Base) / k.Width
	if k.LevelStride > 0 {
		x %= k.LevelStride
	}
	return int(x)
}

// To decodes a key's receiving node.
func (k PairKey) To(key uint64) int { return int((key &^ k.Base) % k.Width) }

// Core is one run's shared lifecycle: admission, delivery, the reply
// retrace and the per-packet accounting.
type Core struct {
	// Name prefixes every panic message ("simnet", "leveled").
	Name string
	// Nodes bounds packet endpoints to [0, Nodes).
	Nodes int
	Opts  Options
	// Reply keys the reverse hop from Path[i] to Path[i-1] at level i-1.
	Reply PairKey
}

// Run routes pkts on an engine built from eo. It admits every packet
// (packet.Admission: unique ID, endpoints in range, its own PRNG
// stream from the seed, timestamps reset; then its path started at
// Src) and hands it to start
// for its first hop; handle and, when Opts.Combine is set, combine
// drive the rest. It stores the engine's memory stats in Opts.MemStats.
func (c *Core) Run(eo engine.Options, pkts []*packet.Packet, start func(*engine.Ctx, *packet.Packet), handle engine.Handler, combine engine.Combiner) Stats {
	eng := engine.New(eo)
	if !c.Opts.Combine {
		combine = nil
	}
	record := c.Opts.Record()
	st := eng.Run(func(ctx *engine.Ctx) {
		adm := packet.NewAdmission(c.Name, c.Nodes, len(pkts), c.Opts.Seed)
		for _, p := range pkts {
			adm.Admit(p)
			if record {
				p.Path = append(p.Path[:0], int32(p.Src))
			}
			start(ctx, p)
		}
	}, handle, combine)
	if c.Opts.MemStats != nil {
		*c.Opts.MemStats = eng.MemStats()
	}
	return st
}

// Deliver completes p's forward journey at node in round. A write (or
// any request when Opts.Replies is off) finishes here: writes are
// fire-and-forget ("back in case of a read instruction", §2.1). A read
// turns into its reply and starts back along its path.
func (c *Core) Deliver(ctx *engine.Ctx, p *packet.Packet, node, round int) {
	if node != p.Dst {
		panic(fmt.Sprintf("%s: packet %d delivered to %d, want %d", c.Name, p.ID, node, p.Dst))
	}
	st := ctx.Stats()
	p.Arrived = round
	if round > st.RequestRounds {
		st.RequestRounds = round
	}
	n := p.TotalCombined()
	st.DeliveredRequests += n
	ctx.AddLoad(node, n)
	if !c.Opts.Replies || p.Kind != packet.ReadRequest {
		c.finish(ctx, p)
		return
	}
	toReply(p)
	c.retraceFrom(ctx, p, round)
}

// Retrace advances reply p, which just crossed a reverse link, one
// entry back along its path. Children combined into p at the entry it
// reached fan out from there with p's value (Theorem 2.6).
func (c *Core) Retrace(ctx *engine.Ctx, p *packet.Packet, round int) {
	p.Stage--
	idx := p.Stage
	for i, at := range p.CombinedAt {
		if at != idx {
			continue
		}
		child := p.Children[i]
		toReply(child)
		if child.Kind == packet.ReadReply {
			child.Value = p.Value
		}
		// The merge node is the last entry of the child's own frozen
		// path; its index there can differ from idx when the two
		// requests reached the node over different-length routes.
		c.retraceFrom(ctx, child, round)
	}
	if idx == 0 {
		c.home(ctx, p, round)
		return
	}
	ctx.Emit(c.replyKey(p), p)
}

// retraceFrom starts reply p back from the last entry of its path; a
// request that never left home is home at once.
func (c *Core) retraceFrom(ctx *engine.Ctx, p *packet.Packet, round int) {
	p.Stage = len(p.Path) - 1 // index into Path while retracing
	if p.Stage == 0 {
		c.home(ctx, p, round)
		return
	}
	ctx.Emit(c.replyKey(p), p)
}

// replyKey is the link of reply p's next hop, Path[Stage] ->
// Path[Stage-1].
func (c *Core) replyKey(p *packet.Packet) uint64 {
	return c.Reply.Key(p.Stage-1, int(p.Path[p.Stage]), int(p.Path[p.Stage-1]))
}

// home finishes a reply back at its requester.
func (c *Core) home(ctx *engine.Ctx, p *packet.Packet, round int) {
	if int(p.Path[0]) != p.Src {
		panic(fmt.Sprintf("%s: reply %d retraced to %d, want %d", c.Name, p.ID, p.Path[0], p.Src))
	}
	p.Arrived = round
	ctx.Stats().DeliveredReplies++
	c.finish(ctx, p)
}

// finish folds a finished packet's delay, steps and arrival round into
// the aggregates.
func (c *Core) finish(ctx *engine.Ctx, p *packet.Packet) {
	st := ctx.Stats()
	st.TotalDelay += int64(p.Delay)
	if s := p.Steps(); s > st.MaxPacketSteps {
		st.MaxPacketSteps = s
	}
	if p.Arrived > st.Rounds {
		st.Rounds = p.Arrived
	}
}

// toReply flips a delivered request into its reply kind in place.
func toReply(p *packet.Packet) {
	switch p.Kind {
	case packet.ReadRequest:
		p.Kind = packet.ReadReply
	case packet.WriteRequest:
		p.Kind = packet.WriteAck
	default:
		p.Kind = packet.ReadReply
	}
}
