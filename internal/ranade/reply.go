package ranade

import (
	"fmt"

	"pramemu/internal/engine"
	"pramemu/internal/packet"
)

// replyPass routes read replies back along the reversed request
// paths, one packet per reverse link per round, fanning out combined
// children at the nodes where they merged — Ranade's return trip,
// which the paper's Theorem 2.6 adapts via direction bits.
//
// The pass is a stepped round engine: each forward-pass round hands
// the replies it spawned to Step, whose inject emits them before the
// drain, so a fresh reply moves a hop in its spawn round. The engine's
// canonical (link, packet ID) insertion order makes the pass
// deterministic and independent of the worker layout.
//
// Reverse links are keyed densely: a butterfly node has exactly two
// upstream neighbours, so the link from flat node id f back toward
// the row whose distinguishing bit is b is key f*2 + b, and the key
// space is declared as 2*(k+1)*rows.
type replyPass struct {
	n   *Network
	eng *engine.Engine
	// spawned collects the replies the current forward round
	// produced; inject is the prebuilt closure that emits them, so a
	// round allocates no closure.
	spawned []*packet.Packet
	inject  func(*engine.Ctx)
}

func newReplyPass(n *Network, workers int) *replyPass {
	rp := &replyPass{n: n, eng: engine.New(engine.Options{
		Workers: workers,
		MaxKey:  uint64(2 * (n.k + 1) * n.rows),
	})}
	rp.inject = func(ctx *engine.Ctx) {
		for _, p := range rp.spawned {
			p.Kind = packet.ReadReply
			p.Stage = len(p.Path) - 1 // current index while retracing
			rp.dispatch(ctx, p, 0)    // Stage >= 1: nothing finishes here
		}
	}
	rp.eng.Start(rp.advance, nil)
	return rp
}

// step runs one reply round: the replies spawned this round enter
// first, then every non-empty reverse link moves its head one hop.
// It returns the number of reverse links still holding replies.
func (rp *replyPass) step() (live int) {
	live = rp.eng.Step(rp.inject)
	rp.spawned = rp.spawned[:0]
	return live
}

// linkKey encodes the reverse link from flat node id `from` to flat
// node id `to` one level up the return path. The two candidate target
// rows differ exactly in bit level-1, so that bit indexes the pair —
// and orders it the same way the target ids themselves do.
func (rp *replyPass) linkKey(from, to int32) uint64 {
	level := int(from) >> rp.n.k
	bit := uint64(to) >> (level - 1) & 1
	return uint64(from)*2 + bit
}

// dispatch fans out any children combined at the reply's current
// node (p.Path[p.Stage]; p.Path holds flat node ids level*rows + row
// from the source to the module), then emits the reply on its next
// reverse link, or finishes it at index 0. Children merged at the
// module node fan out at spawn time.
func (rp *replyPass) dispatch(ctx *engine.Ctx, p *packet.Packet, round int) {
	for i, at := range p.CombinedAt {
		if at != p.Stage {
			continue
		}
		child := p.Children[i]
		child.Kind = packet.ReadReply
		child.Value = p.Value
		child.Stage = len(child.Path) - 1
		if child.Path[child.Stage] != p.Path[p.Stage] {
			panic(fmt.Sprintf("ranade: child %d fan-out at node %d, parent at %d",
				child.ID, child.Path[child.Stage], p.Path[p.Stage]))
		}
		rp.dispatch(ctx, child, round)
	}
	if p.Stage == 0 {
		if int(p.Path[0]) != p.Src {
			panic(fmt.Sprintf("ranade: reply %d retraced to %d, want %d", p.ID, p.Path[0], p.Src))
		}
		p.Arrived = round
		ctx.Stats().DeliveredReplies++
		return
	}
	ctx.Emit(rp.linkKey(p.Path[p.Stage], p.Path[p.Stage-1]), p)
}

// advance is the engine handler: the reply just crossed one reverse
// link.
func (rp *replyPass) advance(ctx *engine.Ctx, a engine.Arrival, round int) {
	a.P.Hops++
	a.P.Stage--
	rp.dispatch(ctx, a.P, round)
}
