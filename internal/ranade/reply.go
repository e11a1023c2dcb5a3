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
// Reverse links are keyed densely: a butterfly node has exactly two
// upstream neighbours, so the link from flat node id f back toward
// the row whose distinguishing bit is b is key f*2 + b. The keys
// index a slice-backed table with an incrementally maintained
// active-key list (the same flat-state layout as the round engine's
// dense path) — flat up to denseReplyLimit keys, fixed-size pages
// allocated on first touch beyond it, so even the largest instances
// pay only for touched reverse links. The key order equals the old
// packed (from, to) order, so round counts are unchanged.
//
// Insertions are staged per round and committed in sorted (link,
// packet ID) order — the engine's radix sort over its canonical
// Arrival ordering — which makes the whole pass deterministic and
// independent of the forward pass's worker layout.
type replyPass struct {
	n  *Network
	st *Stats
	// table is the flat dense reverse-link state; pages is the paged
	// variant serving key spaces beyond the flat cap (fixed-size
	// pages of slice headers, allocated on first touch). Exactly one
	// is non-nil.
	table  [][]*packet.Packet
	pages  []*[replyPageSize][]*packet.Packet
	active []uint64
	// staged holds this round's insertions until commit; spare is the
	// radix sort's reused scratch buffer.
	staged   []engine.Arrival
	spare    []engine.Arrival
	inFlight int
	maxQueue int
}

// denseReplyLimit caps the flat reverse-link table at 2M slice
// headers (~48 MiB up front). Beyond it the table is paged: the k=20
// worst case, 44M keys, then prices a ~86K-entry page directory plus
// only the pages reply traffic actually touches.
const denseReplyLimit = 1 << 21

// replyPageBits sizes the paged reverse-link pages, mirroring the
// round engine's paged tables.
const (
	replyPageBits = 12
	replyPageSize = 1 << replyPageBits
	replyPageMask = replyPageSize - 1
)

func newReplyPass(n *Network, st *Stats) *replyPass {
	rp := &replyPass{n: n, st: st}
	if keys := 2 * (n.k + 1) * n.rows; keys <= denseReplyLimit {
		rp.table = make([][]*packet.Packet, keys)
	} else {
		rp.pages = make([]*[replyPageSize][]*packet.Packet, (keys-1)>>replyPageBits+1)
	}
	return rp
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

// spawn turns a delivered read request into a retracing reply.
// p.Path holds flat node ids (level*rows + row) from the source
// (level 0) to the module (level k).
func (rp *replyPass) spawn(p *packet.Packet) {
	p.Kind = packet.ReadReply
	p.Stage = len(p.Path) - 1 // current index while retracing
	rp.dispatch(p, 0)
}

// dispatch fans out any children combined at the reply's current
// node, then stages the reply for its next hop (or finishes it at
// index 0). Children merged at the final module node fan out
// immediately at spawn time.
func (rp *replyPass) dispatch(p *packet.Packet, round int) {
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
		rp.dispatch(child, round)
	}
	if p.Stage == 0 {
		rp.finish(p, round)
		return
	}
	rp.stage(p)
}

// stage buffers an insertion; commit applies the round's buffer in
// canonical order.
func (rp *replyPass) stage(p *packet.Packet) {
	key := rp.linkKey(p.Path[p.Stage], p.Path[p.Stage-1])
	rp.staged = append(rp.staged, engine.Arrival{Key: key, P: p})
	rp.inFlight++
}

func (rp *replyPass) commit() {
	sorted, spare := engine.SortArrivals(rp.staged, rp.spare)
	for _, s := range sorted {
		q := rp.queueAt(s.Key)
		if len(q) == 0 {
			rp.active = append(rp.active, s.Key)
		}
		q = append(q, s.P)
		rp.setQueue(s.Key, q)
		if len(q) > rp.maxQueue {
			rp.maxQueue = len(q)
		}
	}
	clear(sorted)
	clear(spare)
	rp.staged, rp.spare = sorted[:0], spare[:0]
}

func (rp *replyPass) queueAt(key uint64) []*packet.Packet {
	if rp.table != nil {
		return rp.table[key]
	}
	if pg := rp.pages[key>>replyPageBits]; pg != nil {
		return pg[key&replyPageMask]
	}
	return nil
}

func (rp *replyPass) setQueue(key uint64, q []*packet.Packet) {
	if rp.table != nil {
		rp.table[key] = q
		return
	}
	pg := rp.pages[key>>replyPageBits]
	if pg == nil {
		pg = new([replyPageSize][]*packet.Packet)
		rp.pages[key>>replyPageBits] = pg
	}
	pg[key&replyPageMask] = q
}

func (rp *replyPass) pending() bool { return rp.inFlight > 0 }

// step advances every non-empty reverse link by one packet: replies
// spawned during this round's forward pass are committed first (so a
// fresh reply moves a hop in its spawn round, as before), then each
// link head moves and re-stages for the next hop. Per-link effects
// commute — advancing a head only appends to the staged buffer, which
// commit applies in canonical order — so the active list's
// swap-remove order does not matter.
func (rp *replyPass) step(round int) {
	rp.commit()
	for i := 0; i < len(rp.active); {
		key := rp.active[i]
		q := rp.queueAt(key)
		p := q[0]
		q[0] = nil
		if len(q) == 1 {
			rp.setQueue(key, q[:0])
			last := len(rp.active) - 1
			rp.active[i] = rp.active[last]
			rp.active = rp.active[:last]
		} else {
			rp.setQueue(key, q[1:])
			i++
		}
		rp.inFlight--
		rp.advanceReply(p, round)
	}
	rp.commit()
}

func (rp *replyPass) advanceReply(p *packet.Packet, round int) {
	p.Hops++
	p.Stage--
	rp.dispatch(p, round)
}

func (rp *replyPass) finish(p *packet.Packet, round int) {
	if int(p.Path[0]) != p.Src {
		panic(fmt.Sprintf("ranade: reply %d retraced to %d, want %d", p.ID, p.Path[0], p.Src))
	}
	p.Arrived = round
	rp.st.DeliveredReplies++
}
