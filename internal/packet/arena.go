package packet

import (
	"sync"
	"unsafe"
)

// arenaSlabSize is the number of packets per slab: large enough that
// slab bookkeeping vanishes, small enough that a run of a few hundred
// packets does not overshoot badly.
const arenaSlabSize = 1024

// Arena is a slab allocator for Packets. New hands out pointers into
// contiguous fixed-size slabs instead of scattering one heap object
// per packet, so a routing run's packets are cache-adjacent and cost
// the garbage collector a handful of slabs rather than millions of
// pointers to trace. Packets are index-addressed: the i-th packet
// allocated since the last Reset is At(i).
//
// Reset recycles every slab for the next run without freeing: the
// returned pointers remain valid but their packets will be
// re-initialized (including their Path/Children scratch capacity) as
// New hands the slots out again, so a caller must not hold packets
// across a Reset. An Arena is not safe for concurrent use; the
// simulators allocate at injection time only, which is single-
// threaded by construction.
type Arena struct {
	slabs [][]Packet
	n     int
	// hw is the high-water allocation count since the arena left the
	// pool (or was constructed): Bytes prices this run's peak, not
	// whatever larger shape a pooled arena served before, so pooled
	// reuse cannot leak into byte-reproducible sweep artifacts.
	hw int
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// New allocates a packet travelling from src to dst, injected at
// round 0 — packet.New, but from the arena's slabs. Recycled slots
// keep the capacity of their Path, Children and CombinedAt slices, so
// a run that records paths stops allocating per-hop once the arena
// has been through one Reset cycle at the same shape. They keep their
// Rand Source too, still holding the last run's stream: a router's
// admission (see Admission) reseeds it in place with
// prng.Source.SplitInto, so a recycled packet draws exactly what a
// fresh one would without a new Source per packet per run.
func (a *Arena) New(id, src, dst int, kind Kind) *Packet {
	slab, slot := a.n/arenaSlabSize, a.n%arenaSlabSize
	if slab == len(a.slabs) {
		a.slabs = append(a.slabs, make([]Packet, arenaSlabSize))
	}
	a.n++
	if a.n > a.hw {
		a.hw = a.n
	}
	p := &a.slabs[slab][slot]
	path, children, combinedAt, rand := p.Path[:0], p.Children[:0], p.CombinedAt[:0], p.Rand
	*p = Packet{ID: id, Src: src, Dst: dst, Kind: kind, Arrived: -1}
	p.Path, p.Children, p.CombinedAt, p.Rand = path, children, combinedAt, rand
	return p
}

// Len returns the number of packets allocated since the last Reset.
func (a *Arena) Len() int { return a.n }

// At returns the i-th packet allocated since the last Reset.
func (a *Arena) At(i int) *Packet {
	if i < 0 || i >= a.n {
		panic("packet: Arena.At index out of range")
	}
	return &a.slabs[i/arenaSlabSize][i%arenaSlabSize]
}

// Reset recycles the arena: all slabs are retained and the next New
// reuses them from the start. Every packet handed out before the
// Reset is invalidated (its memory will be reused).
func (a *Arena) Reset() { a.n = 0 }

// Bytes returns the slab footprint of this arena's use: the slabs
// covering its high-water allocation count since it was constructed
// or checked out of the pool (Reset preserves the high-water mark, so
// a multi-trial run reports its peak). It deliberately excludes any
// larger slab set a pooled arena retains from earlier runs, as well
// as the backing arrays of per-packet Path/Children/CombinedAt
// slices. It is the packet-side half of a run's memory pricing
// (engine.MemStats holds the link-table half).
func (a *Arena) Bytes() int64 {
	slabs := (a.hw + arenaSlabSize - 1) / arenaSlabSize
	return int64(slabs) * arenaSlabSize * int64(unsafe.Sizeof(Packet{}))
}

// arenaPool recycles arenas across sweep cells and daemon jobs: a
// warm cell reuses the slabs (and per-packet scratch capacity) its
// predecessors grew instead of re-allocating them.
var arenaPool = sync.Pool{New: func() any { return NewArena() }}

// GetArena checks an arena out of the process-wide pool, reset to an
// empty state: zero length and a zero high-water mark, so Bytes
// prices only the checkout's own use. Slab memory and recycled
// per-packet scratch capacity carry over — that reuse is the point —
// but every slot is fully re-initialized by New before it is handed
// out, so results cannot depend on what ran before.
func GetArena() *Arena {
	a := arenaPool.Get().(*Arena)
	a.n, a.hw = 0, 0
	return a
}

// PutArena returns an arena to the pool. The caller must no longer
// hold any packet allocated from it.
func PutArena(a *Arena) {
	if a == nil {
		return
	}
	a.Reset()
	arenaPool.Put(a)
}

// NewIn allocates from a when non-nil and from the heap otherwise,
// letting workload generators take an optional arena without
// branching at every call site.
func NewIn(a *Arena, id, src, dst int, kind Kind) *Packet {
	if a == nil {
		return New(id, src, dst, kind)
	}
	return a.New(id, src, dst, kind)
}
