// Package ranade implements (a faithful simplification of) Ranade's
// butterfly emulation algorithm [13] ("How to Emulate Shared Memory",
// FOCS 1987) — the prior work the paper builds on: one CRCW PRAM step
// on an N-processor butterfly in O(log N) time w.h.p. The paper's
// contribution is beating its *constant* (and its diameter floor) on
// sub-logarithmic-diameter leveled networks and on the mesh; this
// package exists so those comparisons run against the real thing.
//
// The algorithm routes one batch of memory requests through the
// unrolled butterfly, maintaining the defining Ranade invariant:
// every link carries packets in nondecreasing destination-key order.
// Each node merges its (at most two) sorted input streams; equal-key
// read requests combine when they meet (the original message-
// combining construction that Theorem 2.6 adapts). Because a node may
// forward a packet only when it knows no smaller-keyed packet can
// still arrive on the other input, nodes emit *ghost* messages — pure
// progress markers carrying the key of the last real packet — and
// end-of-stream markers when a stream is exhausted. Replies retrace
// the recorded request paths in reverse, fanning out at combine
// points exactly as direction bits dictate.
package ranade

import (
	"fmt"
	"sort"

	"pramemu/internal/engine"
	"pramemu/internal/packet"
)

// Options configures one emulated step.
type Options struct {
	// Combine enables the message-combining construction (it is
	// integral to Ranade's protocol; the flag gates it for ablations).
	Combine bool
	// Seed is accepted for interface symmetry; the forward pass is
	// deterministic given the hash placement.
	Seed uint64
	// Workers is the forward-pass worker count: 0 selects GOMAXPROCS,
	// 1 the sequential loop. Any value yields identical results — rows
	// within a level are independent (each directed butterfly link has
	// exactly one writer), and reply-link insertions are committed in
	// sorted (link, packet ID) order.
	Workers int
}

// Stats summarizes one emulated step.
type Stats struct {
	// Rounds is the total time: request pass plus reply return.
	Rounds int
	// RequestRounds is when the last request reached its module.
	RequestRounds int
	// MaxQueue is the largest real-packet queue occupancy on a link.
	MaxQueue int
	// Merges counts combining events.
	Merges int
	// DeliveredRequests and DeliveredReplies count completions
	// (combined packets count once per constituent).
	DeliveredRequests, DeliveredReplies int
	// Ghosts counts ghost transmissions (protocol overhead).
	Ghosts int
}

// item is a slot in a link stream: a real packet or a ghost marker.
type item struct {
	key   uint64 // destination-row-major sort key
	p     *packet.Packet
	ghost bool
	eos   bool
}

// link is a sorted stream between two butterfly nodes.
type link struct {
	q       []item
	sentEOS bool
	lastKey uint64
	maxReal int
}

func (l *link) push(it item) {
	if it.ghost && len(l.q) > 0 && l.q[len(l.q)-1].ghost {
		// Consecutive ghosts collapse: only the freshest matters.
		l.q[len(l.q)-1] = it
		return
	}
	l.q = append(l.q, it)
	real := 0
	for _, e := range l.q {
		if !e.ghost && !e.eos {
			real++
		}
	}
	if real > l.maxReal {
		l.maxReal = real
	}
}

func (l *link) head() (item, bool) {
	if len(l.q) == 0 {
		return item{}, false
	}
	return l.q[0], true
}

func (l *link) pop() item {
	it := l.q[0]
	l.q = l.q[1:]
	return it
}

// Network is a butterfly emulation instance: 2^k processor rows and
// 2^k memory-module rows, k+1 levels.
type Network struct {
	k    int
	rows int
}

// New constructs the butterfly with 2^k rows. It panics unless
// 1 <= k <= 20.
func New(k int) *Network {
	if k < 1 || k > 20 {
		panic("ranade: dimension must be in [1, 20]")
	}
	return &Network{k: k, rows: 1 << k}
}

// Name identifies the network.
func (n *Network) Name() string { return fmt.Sprintf("ranade-butterfly(k=%d)", n.k) }

// Nodes returns the number of processor rows (= memory modules).
func (n *Network) Nodes() int { return n.rows }

// Diameter returns the butterfly depth k (one traversal).
func (n *Network) Diameter() int { return n.k }

// node state during the forward pass: two input links, merge engine.
type node struct {
	in [2]*link
	// done[i] reports input i has delivered EOS.
	done [2]bool
}

// Route emulates one step: each request packet travels from processor
// row Src (level 0) to module row Dst (level k), combining same-Addr
// reads; reads then return replies along reversed paths. Packet IDs
// must be unique. Keys sort by (Dst, Addr) so the stream invariant
// holds per link while equal-address packets for the same module meet
// adjacently and combine.
func (n *Network) Route(pkts []*packet.Packet, combine bool, seed uint64) Stats {
	return n.RouteOpts(pkts, Options{Combine: combine, Seed: seed})
}

// stepEffects accumulates one worker's forward-pass side effects for a
// round; chunks merge commutatively (sums and maxima), so the merged
// result is independent of the worker layout.
type stepEffects struct {
	merges        int
	ghosts        int
	deliveredReq  int
	delivered     int
	requestRounds int
	spawned       []*packet.Packet
}

func (e *stepEffects) reset() {
	e.merges, e.ghosts, e.deliveredReq, e.delivered, e.requestRounds = 0, 0, 0, 0, 0
	e.spawned = e.spawned[:0]
}

// RouteOpts is Route with explicit Options (notably Workers).
func (n *Network) RouteOpts(pkts []*packet.Packet, opts Options) Stats {
	combine := opts.Combine
	st := Stats{}
	k := n.k
	// levels[l][row] is the node at level l (1..k) with its two input
	// links from level l-1. Input 0 is the straight edge, input 1 the
	// cross edge.
	nodes := make([][]node, k+1)
	for l := 1; l <= k; l++ {
		nodes[l] = make([]node, n.rows)
		for r := 0; r < n.rows; r++ {
			nodes[l][r].in[0] = &link{}
			nodes[l][r].in[1] = &link{}
		}
	}
	// Sources: sort each row's packets by key; they feed level-1 nodes.
	sources := make([][]*packet.Packet, n.rows)
	seen := make(map[int]bool, len(pkts))
	for _, p := range pkts {
		if seen[p.ID] {
			panic(fmt.Sprintf("ranade: duplicate packet ID %d", p.ID))
		}
		seen[p.ID] = true
		if p.Src < 0 || p.Src >= n.rows || p.Dst < 0 || p.Dst >= n.rows {
			panic(fmt.Sprintf("ranade: packet %d endpoints out of range", p.ID))
		}
		p.Arrived = -1
		p.Path = append(p.Path[:0], int32(p.Src))
		sources[p.Src] = append(sources[p.Src], p)
	}
	for r := range sources {
		row := sources[r]
		sort.Slice(row, func(i, j int) bool {
			if key(row[i]) != key(row[j]) {
				return key(row[i]) < key(row[j])
			}
			return row[i].ID < row[j].ID
		})
	}
	srcPos := make([]int, n.rows)

	delivered := 0
	want := len(pkts)
	round := 0
	maxRounds := 40 * (k + 1) * (maxPerRow(sources) + 1)
	replies := newReplyPass(n, &st)
	// Rows within a level are independent — every directed butterfly
	// link has exactly one writer per round — so the per-level node
	// loop shards over the pool; per-worker effects merge after the
	// barrier. Small instances stay inline.
	pool := engine.NewPool(opts.Workers)
	effects := make([]stepEffects, pool.Workers())
	par := n.rows >= 256
	for delivered < want || replies.pending() {
		round++
		if round > maxRounds {
			panic(fmt.Sprintf("ranade: no progress after %d rounds (protocol stall)", round))
		}
		for w := range effects {
			effects[w].reset()
		}
		// 1. Sources inject into level 1 (one item per out-link).
		pool.RunIf(par, n.rows, func(w, lo, hi int) {
			for r := lo; r < hi; r++ {
				n.injectFrom(r, sources[r], &srcPos[r], nodes[1], &effects[w])
			}
		})
		// 2. Interior nodes forward level by level. Process from the
		// deepest level backward so an item moves one level per round.
		for l := k; l >= 1; l-- {
			pool.RunIf(par, n.rows, func(w, lo, hi int) {
				for r := lo; r < hi; r++ {
					n.step(l, r, nodes, combine, round, &effects[w])
				}
			})
		}
		for w := range effects {
			eff := &effects[w]
			st.Merges += eff.merges
			st.Ghosts += eff.ghosts
			st.DeliveredRequests += eff.deliveredReq
			delivered += eff.delivered
			if eff.requestRounds > st.RequestRounds {
				st.RequestRounds = eff.requestRounds
			}
			for _, p := range eff.spawned {
				replies.spawn(p)
			}
		}
		// 3. Replies advance one hop.
		replies.step(round)
		if delivered == want && st.RequestRounds == 0 {
			st.RequestRounds = round
		}
	}
	st.Rounds = round
	for l := 1; l <= k; l++ {
		for r := 0; r < n.rows; r++ {
			for s := 0; s < 2; s++ {
				if q := nodes[l][r].in[s].maxReal; q > st.MaxQueue {
					st.MaxQueue = q
				}
			}
		}
	}
	if rq := replies.maxQueue; rq > st.MaxQueue {
		st.MaxQueue = rq
	}
	return st
}

func maxPerRow(rows [][]*packet.Packet) int {
	m := 0
	for _, r := range rows {
		if len(r) > m {
			m = len(r)
		}
	}
	return m
}

// key orders packets by destination row then address, so packets for
// the same module and address are adjacent in every merged stream.
func key(p *packet.Packet) uint64 { return uint64(p.Dst)<<32 | (p.Addr & 0xffffffff) }

// injectFrom feeds the next source packet (or EOS) into the proper
// level-1 input link.
func (n *Network) injectFrom(row int, pkts []*packet.Packet, pos *int, level1 []node, eff *stepEffects) {
	// The level-0 "node" has out-links to level-1 straight (same row)
	// and cross (row ^ 1). Send the next packet to the link its route
	// needs and a ghost to the other; after the last packet, EOS both.
	straight := level1[row].in[inSlot(row, row)]
	cross := level1[row^1].in[inSlot(row^1, row)]
	if *pos >= len(pkts) {
		for _, l := range []*link{straight, cross} {
			if !l.sentEOS {
				l.push(item{eos: true, key: ^uint64(0)})
				l.sentEOS = true
			}
		}
		return
	}
	p := pkts[*pos]
	*pos++
	next := row
	if p.Dst&1 != row&1 {
		next = row ^ 1
	}
	k := key(p)
	if next == row {
		straight.push(item{key: k, p: p})
		cross.push(item{key: k, ghost: true})
	} else {
		cross.push(item{key: k, p: p})
		straight.push(item{key: k, ghost: true})
	}
	eff.ghosts++
}

// inSlot returns which input slot of node `row` at level l the edge
// from `fromRow` at level l-1 occupies: 0 if straight, 1 if cross.
func inSlot(row, fromRow int) int {
	if row == fromRow {
		return 0
	}
	return 1
}

// step lets node (level, row) forward at most one item: the smaller
// key of its two input heads, provided both inputs can vouch no
// smaller key is coming. It reads only this node's input links and
// writes only this node's two downstream links, so distinct rows of a
// level run concurrently; side effects accumulate in eff.
func (n *Network) step(level, row int, nodes [][]node, combine bool, round int,
	eff *stepEffects) bool {
	nd := &nodes[level][row]
	h0, ok0 := nd.in[0].head()
	h1, ok1 := nd.in[1].head()
	if !ok0 || !ok1 {
		return false // must wait for knowledge on both streams
	}
	// Pick the smaller key; ghosts with equal keys yield to packets.
	pick := 0
	switch {
	case h0.eos && h1.eos:
		// Stream finished: propagate EOS downstream once.
		n.emitEOS(level, row, nodes)
		return false
	case h0.eos:
		pick = 1
	case h1.eos:
		pick = 0
	case h0.key < h1.key || (h0.key == h1.key && (h1.ghost && !h0.ghost)):
		pick = 0
	default:
		pick = 1
	}
	it, _ := nd.in[pick].head()
	if it.ghost {
		nd.in[pick].pop()
		n.forwardGhost(level, row, it.key, nodes, eff)
		return true
	}
	// A real packet. Try combining with the other head if equal key
	// and same address/kind.
	nd.in[pick].pop()
	p := it.p
	if combine {
		for absorbed := true; absorbed; {
			absorbed = false
			for s := 0; s < 2; s++ {
				oh, ok := nd.in[s].head()
				if !ok || oh.ghost || oh.eos || oh.key != it.key ||
					oh.p.Addr != p.Addr || oh.p.Kind != p.Kind {
					continue
				}
				nd.in[s].pop()
				// The merge happens at this node: close the child's
				// path here and remember this node's index in the
				// host's path (appended below) for reply fan-out.
				oh.p.Hops++
				oh.p.RecordPath(n.rowAt(level, row))
				p.Combine(oh.p, len(p.Path))
				eff.merges++
				absorbed = true
			}
		}
	}
	p.Hops++
	p.RecordPath(n.rowAt(level, row))
	if level == n.k {
		if row != p.Dst {
			panic(fmt.Sprintf("ranade: packet %d reached row %d, want %d", p.ID, row, p.Dst))
		}
		p.Arrived = round
		eff.delivered += p.TotalCombined()
		eff.deliveredReq += p.TotalCombined()
		if round > eff.requestRounds {
			eff.requestRounds = round
		}
		if p.Kind == packet.ReadRequest {
			eff.spawned = append(eff.spawned, p)
		}
		n.forwardGhost(level, row, it.key, nodes, eff) // keep peers progressing
		return true
	}
	// Forward to level+1: straight if bit `level` of dst equals bit of
	// row, else cross.
	nextRow := row
	if (p.Dst>>level)&1 != (row>>level)&1 {
		nextRow = row ^ (1 << level)
	}
	nodes[level+1][nextRow].in[inSlot01(nextRow == row)].push(item{key: it.key, p: p})
	// Ghost on the other out-link.
	otherRow := row ^ (1 << level)
	if nextRow == otherRow {
		otherRow = row
	}
	nodes[level+1][otherRow].in[inSlot01(otherRow == row)].push(item{key: it.key, ghost: true})
	eff.ghosts++
	return true
}

func inSlot01(straight bool) int {
	if straight {
		return 0
	}
	return 1
}

// forwardGhost propagates a progress marker to both downstream links
// (or nowhere at the last level).
func (n *Network) forwardGhost(level, row int, k uint64, nodes [][]node, eff *stepEffects) {
	if level == n.k {
		return
	}
	for _, r := range []int{row, row ^ (1 << level)} {
		nodes[level+1][r].in[inSlot01(r == row)].push(item{key: k, ghost: true})
	}
	eff.ghosts += 2
}

// emitEOS propagates end-of-stream downstream once per link.
func (n *Network) emitEOS(level, row int, nodes [][]node) {
	if level == n.k {
		return
	}
	for _, r := range []int{row, row ^ (1 << level)} {
		l := nodes[level+1][r].in[inSlot01(r == row)]
		if !l.sentEOS {
			l.push(item{eos: true, key: ^uint64(0)})
			l.sentEOS = true
		}
	}
}

// rowAt gives a flat node id for path recording: level*rows + row.
func (n *Network) rowAt(level, row int) int { return level*n.rows + row }
