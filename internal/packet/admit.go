package packet

import (
	"fmt"

	"pramemu/internal/prng"
)

// Admission is the injection check every router runs on its packets:
// IDs must be unique and endpoints must lie in [0, nodes). Each
// admitted packet gets its own PRNG stream, the ID-th substream of
// the run's seed, and its timestamps reset for a new run.
//
// IDs are checked against a bitset of one bit per packet, which
// covers the usual IDs 0..n-1; a negative ID or one beyond the bitset
// falls back to a map, allocated only when such an ID appears.
type Admission struct {
	name  string
	nodes int
	root  prng.Source
	seen  []uint64
	extra map[int]bool
}

// NewAdmission prepares the admission of a run of n packets on a
// network of nodes nodes, seeded by seed. name prefixes every panic
// message ("simnet", "mesh").
func NewAdmission(name string, nodes, n int, seed uint64) Admission {
	return Admission{name: name, nodes: nodes, root: *prng.New(seed), seen: make([]uint64, (n+63)/64)}
}

// Admit checks p and prepares it for injection. It panics on an ID
// already admitted in this run and on an endpoint outside the network.
// p's Rand is reseeded in place when p already owns one (an arena
// packet keeps its Source across runs) and split afresh otherwise;
// either way it draws the same stream.
func (a *Admission) Admit(p *Packet) {
	if a.dup(p.ID) {
		panic(fmt.Sprintf("%s: duplicate packet ID %d", a.name, p.ID))
	}
	if p.Src < 0 || p.Src >= a.nodes || p.Dst < 0 || p.Dst >= a.nodes {
		panic(fmt.Sprintf("%s: packet %d endpoints out of range", a.name, p.ID))
	}
	if p.Rand == nil {
		p.Rand = a.root.Split(uint64(p.ID))
	} else {
		a.root.SplitInto(uint64(p.ID), p.Rand)
	}
	p.Injected = 0
	p.EnqueuedAt = 0
	p.Arrived = -1
}

// dup marks id as seen and reports whether it already was.
func (a *Admission) dup(id int) bool {
	if id >= 0 && id < 64*len(a.seen) {
		w, bit := id/64, uint64(1)<<(id%64)
		was := a.seen[w]&bit != 0
		a.seen[w] |= bit
		return was
	}
	if a.extra[id] {
		return true
	}
	if a.extra == nil {
		a.extra = make(map[int]bool)
	}
	a.extra[id] = true
	return false
}
