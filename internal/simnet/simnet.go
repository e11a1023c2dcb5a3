// Package simnet is a synchronous packet-routing simulator for
// arbitrary point-to-point interconnection networks, used for the
// "parallel model" simulations of the n-star graph (Algorithm 2.2)
// and the binary hypercube baseline. One round moves at most one
// packet across each directed link; per-link queues are FIFO, the
// discipline the paper prescribes for leveled networks.
//
// Routing is Valiant two-phase: each packet first travels to a
// uniformly random intermediate node along the topology's
// deterministic path, then on to its true destination ("select a
// random intermediate node ... send each packet from its intermediate
// node to its correct destination"). Replies retrace the recorded
// request path in reverse, and CRCW combining (Theorem 2.6) merges
// same-address requests that meet in a queue during the deterministic
// final approach.
//
// The round loop runs on the shared internal/engine core: link queues
// are sharded over a worker pool, and the result is bit-for-bit
// identical for any Workers setting.
package simnet

import (
	"context"
	"fmt"

	"pramemu/internal/engine"
	"pramemu/internal/packet"
	"pramemu/internal/prng"
	"pramemu/internal/queue"
	"pramemu/internal/topology"
)

// Topology is the unified graph interface of internal/topology; the
// simulator routes on any registered family. The alias keeps existing
// implementations and callers source-compatible.
type Topology = topology.Graph

// TakenSensitive re-exports the capability interface for topologies
// whose NextHop depends on the hops already taken within a phase (the
// d-way shuffle and the de Bruijn graph, whose unique paths have
// fixed length n). For such topologies two packets may combine only
// at equal progress; memoryless topologies (star, hypercube, ring)
// may combine whenever node and destination match.
type TakenSensitive = topology.TakenSensitive

// Options configures a routing run.
type Options struct {
	// Context, when non-nil, lets callers cancel or deadline a run;
	// the engine polls it cheaply (per round / every few thousand
	// events) and unwinds with an engine.Abort panic on expiry. A
	// never-canceled run is bit-identical to one without a context.
	Context context.Context
	// Seed drives the random intermediate destinations.
	Seed uint64
	// SkipPhase1 routes packets directly along deterministic paths
	// (the ablation showing why the randomizing phase matters).
	SkipPhase1 bool
	// Replies makes delivered requests retrace their paths as replies.
	Replies bool
	// Combine enables Theorem 2.6 message combining during phase 2.
	Combine bool
	// RecordPaths forces path recording even without Replies/Combine.
	RecordPaths bool
	// Workers is the round-engine worker count: 0 selects GOMAXPROCS,
	// 1 the sequential loop. Any value yields identical results.
	Workers int
	// PagedKeys forces the engine's paged dense tables even when the
	// declared key space is small enough for flat ones. The engine
	// selects paged tables automatically beyond 2^24 keys; the knob
	// exists so equivalence tests and benchmarks can price the paged
	// path at small scale. Results are bit-identical either way.
	PagedKeys bool
	// MemBudget caps the engine's fixed link-table footprint in bytes;
	// over budget the run degrades to hashed state (pay-per-live-key)
	// instead of erroring. Zero means no budget. See
	// engine.Options.MemBudget.
	MemBudget int64
	// MemStats, when non-nil, receives the engine's resolved state and
	// table footprint after the run (ArenaBytes is left to the caller,
	// which owns the packet arena).
	MemStats *engine.MemStats
	// Lease, when non-nil, recycles the engine's table and scratch
	// allocations across same-shape runs (see engine.Options.Lease);
	// results are bit-identical with or without it.
	Lease *engine.Lease
	// Event, when non-nil, routes on the asynchronous discrete-event
	// engine instead of synchronous rounds: per-link latency from the
	// configured distribution, sender-side bandwidth caps and fault
	// injection (see engine.EventOptions). The simulator fills the
	// node-decoding hooks so the straggler and delay-matrix axes key
	// to topology nodes. Stats.Rounds then reports the last delivery
	// tick (the delivered time).
	Event *engine.EventOptions
}

// Stats aggregates one routing run; the fields mirror the measures of
// §2.2.1 (routing time, queue size, delay).
type Stats struct {
	Rounds            int
	RequestRounds     int
	MaxQueue          int
	TotalDelay        int64
	MaxPacketSteps    int
	DeliveredRequests int
	DeliveredReplies  int
	Merges            int
	Retransmits       int
	MaxModuleLoad     int
}

// router holds the immutable per-run configuration; all mutable state
// lives in the engine's shard contexts.
type router struct {
	topo       Topology
	opts       Options
	record     bool
	matchTaken bool // combining requires equal per-phase progress
	// slotKeys selects the dense link encoding node*stride + slot,
	// used whenever the run spawns no replies. Replies retrace
	// recorded paths as (from, to) node pairs with no slot attached,
	// and on directed topologies the reverse hop has no forward slot
	// at all, so reply-bearing runs keep the packed-pair encoding for
	// forward and reverse traffic alike (sharing one queue per
	// directed link between requests and replies, as §2.2.1's
	// one-packet-per-link round model requires).
	slotKeys bool
	stride   uint64 // maximum out-degree, the slot-key stride
}

// edgeKey packs a directed (from, to) node pair into one 64-bit link
// key, 32 bits per endpoint. topology.MaxNodes (2^31) keeps both
// halves in range, so the encoding cannot collide.
func edgeKey(from, to int) uint64 { return uint64(from)<<32 | uint64(to) }

// maxDegree scans the topology for the widest node, the stride of the
// dense link encoding.
func maxDegree(topo Topology) int {
	deg := 0
	for v := 0; v < topo.Nodes(); v++ {
		if d := topo.Degree(v); d > deg {
			deg = d
		}
	}
	return deg
}

// Route routes pkts through topo. Packets need unique IDs and
// endpoints within range. It mutates the packets and returns Stats.
// A topology larger than topology.MaxNodes (2^31 nodes — the bound at
// which recorded path entries and packed 32-bit link-key halves would
// overflow) is rejected with an error before any routing state is
// built; everything below it routes, with table memory bounded by
// touched links via the engine's paged tables.
func Route(topo Topology, pkts []*packet.Packet, opts Options) (Stats, error) {
	if topo.Nodes() > topology.MaxNodes {
		return Stats{}, fmt.Errorf("simnet: %s has %d nodes, exceeding the node-id limit (%d)",
			topo.Name(), topo.Nodes(), topology.MaxNodes)
	}
	r := &router{
		topo:   topo,
		opts:   opts,
		record: opts.Replies || opts.Combine || opts.RecordPaths,
	}
	if ts, ok := topo.(TakenSensitive); ok {
		r.matchTaken = ts.TakenSensitive()
	}
	var maxKey uint64
	if !opts.Replies {
		if deg := maxDegree(topo); deg > 0 {
			r.slotKeys = true
			r.stride = uint64(deg)
			maxKey = uint64(topo.Nodes()) * r.stride
		}
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
		ev.Nodes = topo.Nodes()
		if r.slotKeys {
			stride := r.stride
			ev.NodeOf = func(key uint64) int { return int(key / stride) }
			ev.PeerOf = func(key uint64) int { return topo.Neighbor(int(key/stride), int(key%stride)) }
		} else {
			// Reply-bearing runs use the packed (from, to) pair encoding
			// for forward and reverse traffic alike.
			ev.NodeOf = func(key uint64) int { return int(key >> 32) }
			ev.PeerOf = func(key uint64) int { return int(key & 0xffffffff) }
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
				panic(fmt.Sprintf("simnet: duplicate packet ID %d", p.ID))
			}
			seen[p.ID] = true
			if p.Src < 0 || p.Src >= topo.Nodes() || p.Dst < 0 || p.Dst >= topo.Nodes() {
				panic(fmt.Sprintf("simnet: packet %d endpoints out of range", p.ID))
			}
			p.Rand = root.Split(uint64(p.ID))
			p.Injected = 0
			p.Arrived = -1
			p.Phase = 1
			p.Stage = 0 // hops taken toward the current target
			if opts.SkipPhase1 {
				p.Phase = 2
				p.Inter = p.Dst
			} else {
				p.Inter = p.Rand.Intn(topo.Nodes())
			}
			if r.record {
				p.Path = append(p.Path[:0], int32(p.Src))
			}
			if a, delivered := r.advance(ctx, p, p.Src, 0); !delivered {
				ctx.Emit(a.Key, a.P)
			}
			// src == intermediate == dst: the packet never moves.
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
	}, nil
}

// advance decides the next queue insertion for a forward packet
// standing at node, or reports final delivery. round is the current
// simulation round (used for delivery bookkeeping).
func (r *router) advance(ctx *engine.Ctx, p *packet.Packet, node, round int) (engine.Arrival, bool) {
	for {
		target := p.Inter
		if p.Phase == 2 {
			target = p.Dst
		}
		slot, done := r.topo.NextHop(node, target, p.Stage)
		if !done {
			if r.slotKeys {
				return engine.Arrival{Key: uint64(node)*r.stride + uint64(slot), P: p}, false
			}
			to := r.topo.Neighbor(node, slot)
			return engine.Arrival{Key: edgeKey(node, to), P: p}, false
		}
		if p.Phase == 1 {
			p.Phase = 2
			p.Stage = 0
			continue
		}
		r.deliverForward(ctx, p, node, round)
		return engine.Arrival{}, true
	}
}

// handle advances one popped packet: it just crossed the link encoded
// in a.Key. Runs concurrently on distinct packets when Workers > 1.
func (r *router) handle(ctx *engine.Ctx, a engine.Arrival, round int) {
	p := a.P
	p.Hops++
	if p.Kind.IsReply() {
		r.handleReplyArrival(ctx, p, round)
		return
	}
	var to int
	if r.slotKeys {
		to = r.topo.Neighbor(int(a.Key/r.stride), int(a.Key%r.stride))
	} else {
		to = int(a.Key & 0xffffffff)
	}
	p.Stage++
	if r.record {
		p.RecordPath(to)
	}
	if next, delivered := r.advance(ctx, p, to, round); !delivered {
		ctx.Emit(next.Key, next.P)
	} else if p.Kind == packet.ReadReply && p.Stage > 0 {
		a := r.replyArrival(p)
		ctx.Emit(a.Key, a.P)
	}
}

func (r *router) deliverForward(ctx *engine.Ctx, p *packet.Packet, node, round int) {
	if node != p.Dst {
		panic(fmt.Sprintf("simnet: packet %d delivered to %d, want %d", p.ID, node, p.Dst))
	}
	st := ctx.Stats()
	p.Arrived = round
	if round > st.RequestRounds {
		st.RequestRounds = round
	}
	n := p.TotalCombined()
	st.DeliveredRequests += n
	ctx.AddLoad(node, n)
	if r.opts.Replies && p.Kind == packet.ReadRequest {
		r.makeReply(p)
		p.Stage = len(p.Path) - 1 // index into Path while retracing
		if p.Stage == 0 {
			// The request never left home (src == dst == intermediate);
			// its reply is immediately home too.
			r.finishReply(ctx, p, round)
		}
	} else {
		// Writes are fire-and-forget ("back in case of a read
		// instruction", §2.1).
		r.noteFinished(ctx, p)
	}
}

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

// replyArrival builds the queue insertion for a reply at Path index
// p.Stage about to move to index p.Stage-1.
func (r *router) replyArrival(p *packet.Packet) engine.Arrival {
	from := int(p.Path[p.Stage])
	to := int(p.Path[p.Stage-1])
	return engine.Arrival{Key: edgeKey(from, to), P: p}
}

func (r *router) handleReplyArrival(ctx *engine.Ctx, p *packet.Packet, round int) {
	p.Stage--
	idx := p.Stage
	for i, at := range p.CombinedAt {
		if at != idx {
			continue
		}
		child := p.Children[i]
		r.makeReply(child)
		if child.Kind == packet.ReadReply {
			child.Value = p.Value
		}
		// The merge node is the last entry of the child's own frozen
		// path; its index there can differ from idx when the two
		// requests reached the node over different-length routes.
		child.Stage = len(child.Path) - 1
		if child.Stage == 0 {
			r.finishReply(ctx, child, round)
		} else {
			a := r.replyArrival(child)
			ctx.Emit(a.Key, a.P)
		}
	}
	if idx == 0 {
		r.finishReply(ctx, p, round)
		return
	}
	a := r.replyArrival(p)
	ctx.Emit(a.Key, a.P)
}

func (r *router) finishReply(ctx *engine.Ctx, p *packet.Packet, round int) {
	if int(p.Path[0]) != p.Src {
		panic(fmt.Sprintf("simnet: reply %d retraced to %d, want %d", p.ID, p.Path[0], p.Src))
	}
	p.Arrived = round
	ctx.Stats().DeliveredReplies++
	r.noteFinished(ctx, p)
}

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

// combine merges an arriving phase-2 request into a queued one with
// the same kind, address and destination, if present. On memoryless
// topologies matching (node, dst) guarantees the remaining
// deterministic paths coincide; on taken-sensitive topologies
// (shuffle) equal per-phase progress is additionally required.
func (r *router) combine(ctx *engine.Ctx, q queue.Discipline, a engine.Arrival) bool {
	p := a.P
	if !p.Kind.IsRequest() || p.Phase != 2 {
		return false
	}
	var host *packet.Packet
	q.Each(func(c *packet.Packet) bool {
		if c.Kind == p.Kind && c.Phase == 2 && c.Addr == p.Addr &&
			c.Dst == p.Dst && (!r.matchTaken || c.Stage == p.Stage) {
			host = c
			return false
		}
		return true
	})
	if host == nil {
		return false
	}
	// Both packets stand at the same node, but unlike on a leveled
	// network their recorded routes there may have different lengths
	// (phase-1 detours vary per packet), so the merge is recorded at
	// the HOST's path index — the trigger the host's reply counts
	// down — while the child's own path simply ends at the merge node.
	host.Combine(p, len(host.Path)-1)
	ctx.Stats().Merges++
	return true
}
