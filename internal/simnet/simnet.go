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
// final approach. That request/reply lifecycle, shared with the
// leveled router, lives in internal/twophase.
//
// The round loop runs on the shared internal/engine core: link queues
// are sharded over a worker pool, and the result is bit-for-bit
// identical for any Workers setting.
package simnet

import (
	"fmt"

	"pramemu/internal/engine"
	"pramemu/internal/packet"
	"pramemu/internal/topology"
	"pramemu/internal/twophase"
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

// Options configures a routing run; the two-phase routers share it.
type Options = twophase.Options

// Stats aggregates one routing run; the fields mirror the measures of
// §2.2.1 (routing time, queue size, delay).
type Stats = twophase.Stats

// router holds the immutable per-run configuration; all mutable state
// lives in the engine's shard contexts.
type router struct {
	twophase.Core
	topo       Topology
	record     bool
	matchTaken bool // combining requires equal per-phase progress
	// slotKeys selects the dense link encoding node*stride + slot,
	// used whenever the run spawns no replies. Replies retrace
	// recorded paths as (from, to) node pairs with no slot attached,
	// and on directed topologies the reverse hop has no forward slot
	// at all, so reply-bearing runs key forward and reverse traffic
	// alike by the packed pair (from<<32 | to, the Core's Reply key),
	// sharing one queue per directed link between requests and
	// replies, as §2.2.1's one-packet-per-link round model requires.
	// topology.MaxNodes (2^31) keeps both 32-bit halves in range, so
	// the packed encoding cannot collide.
	slotKeys bool
	stride   uint64 // maximum out-degree, the slot-key stride
}

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
		Core: twophase.Core{
			Name: "simnet", Nodes: topo.Nodes(), Opts: opts,
			Reply: twophase.PairKey{Width: 1 << 32},
		},
		topo:   topo,
		record: opts.Record(),
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
	eo := opts.Engine(maxKey)
	if ev := eo.Event; ev != nil {
		ev.Nodes = topo.Nodes()
		if r.slotKeys {
			stride := r.stride
			ev.NodeOf = func(key uint64) int { return int(key / stride) }
			ev.PeerOf = func(key uint64) int { return topo.Neighbor(int(key/stride), int(key%stride)) }
		} else {
			ev.NodeOf, ev.PeerOf = r.Reply.From, r.Reply.To
		}
	}
	return r.Run(eo, pkts, r.start, r.handle, r.combine), nil
}

// start sends an admitted packet toward its random intermediate node
// (or straight to Dst under SkipPhase1).
func (r *router) start(ctx *engine.Ctx, p *packet.Packet) {
	p.Phase = 1
	p.Stage = 0 // hops taken toward the current target
	if r.Opts.SkipPhase1 {
		p.Phase = 2
		p.Inter = p.Dst
	} else {
		p.Inter = p.Rand.Intn(r.topo.Nodes())
	}
	if key, delivered := r.advance(ctx, p, p.Src, 0); !delivered {
		ctx.Emit(key, p)
	}
	// src == intermediate == dst: the packet never moves.
}

// advance returns the next link for a forward packet standing at
// node, or delivers it there (see twophase.Core.Deliver). round is
// the current simulation round.
func (r *router) advance(ctx *engine.Ctx, p *packet.Packet, node, round int) (uint64, bool) {
	for {
		target := p.Inter
		if p.Phase == 2 {
			target = p.Dst
		}
		slot, done := r.topo.NextHop(node, target, p.Stage)
		if !done {
			if r.slotKeys {
				return uint64(node)*r.stride + uint64(slot), false
			}
			return r.Reply.Key(0, node, r.topo.Neighbor(node, slot)), false
		}
		if p.Phase == 1 {
			p.Phase = 2
			p.Stage = 0
			continue
		}
		r.Deliver(ctx, p, node, round)
		return 0, true
	}
}

// handle advances one popped packet: it just crossed the link encoded
// in a.Key. Runs concurrently on distinct packets when Workers > 1.
func (r *router) handle(ctx *engine.Ctx, a engine.Arrival, round int) {
	p := a.P
	p.Hops++
	if p.Kind.IsReply() {
		r.Retrace(ctx, p, round)
		return
	}
	var to int
	if r.slotKeys {
		to = r.topo.Neighbor(int(a.Key/r.stride), int(a.Key%r.stride))
	} else {
		to = r.Reply.To(a.Key)
	}
	p.Stage++
	if r.record {
		p.RecordPath(to)
	}
	if key, delivered := r.advance(ctx, p, to, round); !delivered {
		ctx.Emit(key, p)
	}
}

// combine merges an arriving phase-2 request into a queued one with
// the same kind, address and destination, if present. On memoryless
// topologies matching (node, dst) guarantees the remaining
// deterministic paths coincide; on taken-sensitive topologies
// (shuffle) equal per-phase progress is additionally required.
func (r *router) combine(ctx *engine.Ctx, q *engine.Link, a engine.Arrival) bool {
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
