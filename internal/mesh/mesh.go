// Package mesh implements the n x n mesh-connected computer of §3 and
// the paper's three-stage randomized routing algorithm (§3.4), the
// building block of the 4n + o(n) EREW PRAM emulation of Theorem 3.2.
//
// The model (§3.1) is the MIMD mesh: an n x n grid of processors with
// bidirectional links; in a single step a processor can communicate
// with all four neighbors, so each directed link moves at most one
// packet per step. Contention is resolved by the furthest-destination-
// first queueing discipline.
//
// The routing algorithm partitions the mesh into horizontal slices of
// εn rows (Figure 5). A packet from (i, j) headed to (k, l):
//
//	stage 1: moves along column j to a random row i' within the
//	         slice of its origin;
//	stage 2: moves along row i' to column l;
//	stage 3: moves along column l to row k.
//
// With ε = 1/log n, stage 1 takes o(n) and stages 2 and 3 take
// n + o(n) each, giving Theorem 3.1's 2n + o(n). The same algorithm
// run with request/reply phases yields the 4n + o(n) emulation, and on
// distance-d-local workloads it terminates in 6d + o(d) (Theorem 3.3).
package mesh

import (
	"context"
	"fmt"
	"math"

	"pramemu/internal/engine"
	"pramemu/internal/packet"
	"pramemu/internal/prng"
	"pramemu/internal/queue"
)

// Grid is an n x n mesh. Node (r, c) has identifier r*n + c.
type Grid struct {
	n int
}

// New constructs an n x n mesh. It panics unless 2 <= n <= 4096.
func New(n int) *Grid {
	if n < 2 || n > 4096 {
		panic("mesh: side must be in [2, 4096]")
	}
	return &Grid{n: n}
}

// Side returns n.
func (g *Grid) Side() int { return g.n }

// Name identifies the grid in reports.
func (g *Grid) Name() string { return fmt.Sprintf("mesh(%dx%d)", g.n, g.n) }

// Nodes returns n*n.
func (g *Grid) Nodes() int { return g.n * g.n }

// Diameter returns 2n-2.
func (g *Grid) Diameter() int { return 2*g.n - 2 }

// RowCol splits a node identifier into row and column.
func (g *Grid) RowCol(node int) (row, col int) { return node / g.n, node % g.n }

// Node builds a node identifier from row and column.
func (g *Grid) Node(row, col int) int { return row*g.n + col }

// L1 returns the mesh (Manhattan) distance between two nodes.
func (g *Grid) L1(a, b int) int {
	ar, ac := g.RowCol(a)
	br, bc := g.RowCol(b)
	return abs(ar-br) + abs(ac-bc)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Discipline selects the queueing discipline for contention.
type Discipline int

const (
	// FurthestFirst is the paper's discipline: the packet with the
	// greatest remaining distance to its destination wins the link.
	FurthestFirst Discipline = iota
	// FIFODiscipline serves packets in arrival order; the ablation of
	// experiment E10.
	FIFODiscipline
)

// Algorithm selects which routing algorithm a run uses.
type Algorithm int

const (
	// ThreeStage is the paper's §3.4 algorithm (slice-randomized
	// column offset, then row, then column), 2n + o(n).
	ThreeStage Algorithm = iota
	// ValiantBrebner routes to a uniformly random row in the full
	// column first (no slices) — the 3n + o(n) baseline of [19].
	ValiantBrebner
	// Greedy is dimension-ordered row-then-column routing with no
	// randomization at all; fine for random loads, terrible against
	// adversarial ones.
	Greedy
)

// Options configures one routing run.
type Options struct {
	// Context, when non-nil, lets callers cancel or deadline a run;
	// the engine polls it cheaply (per round) and unwinds with an
	// engine.Abort panic on expiry. A never-canceled run is
	// bit-identical to one without a context.
	Context    context.Context
	Seed       uint64
	Algorithm  Algorithm
	Discipline Discipline
	// SliceRows overrides the stage-1 slice height εn; 0 means the
	// paper's ε = 1/log n, i.e. height n/log2(n).
	SliceRows int
	// LocalityBound restricts the stage-1 random row to within the
	// packet's origin-destination distance, preserving Theorem 3.3's
	// locality; 0 means no restriction.
	LocalityBound int
	// Workers is the round-engine worker count: 0 selects GOMAXPROCS,
	// 1 the sequential loop. Any value yields identical results.
	Workers int
	// PagedKeys forces the engine's paged dense tables even when the
	// declared key space fits flat ones (the engine pages
	// automatically beyond 2^24 keys). Results are bit-identical
	// either way.
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
	// results are bit-identical with or without it. Queue free lists
	// are never leased, so the discipline closure stays per-run.
	Lease *engine.Lease
}

// Stats aggregates one routing run.
type Stats struct {
	Rounds            int
	MaxQueue          int
	TotalDelay        int64
	MaxPacketSteps    int
	DeliveredRequests int
	// StageRounds records when each stage drained: StageRounds[s] is
	// the last round at which any packet was still in stage s.
	StageRounds [3]int
}

// directions
const (
	dirNorth = iota // row-1
	dirSouth        // row+1
	dirEast         // col+1
	dirWest         // col-1
	numDirs
)

// router holds the immutable per-run configuration; all mutable state
// lives in the engine's shard contexts. Link queues live in the shared
// round engine keyed by node*numDirs + dir.
type router struct {
	g     *Grid
	opts  Options
	slice int
}

// Route routes pkts on the grid. Each packet travels Src -> Dst; the
// stage-1 random row is chosen per packet from its own substream.
// Packets need unique IDs. Returns aggregate stats.
func Route(g *Grid, pkts []*packet.Packet, opts Options) Stats {
	r := &router{g: g, opts: opts}
	r.slice = opts.SliceRows
	if r.slice <= 0 {
		r.slice = int(float64(g.n) / math.Log2(float64(g.n)))
	}
	if r.slice < 1 {
		r.slice = 1
	}
	eng := engine.New(engine.Options{
		Context:    opts.Context,
		Workers:    opts.Workers,
		Seed:       opts.Seed,
		NewQueue:   r.newQueue,
		MaxKey:     uint64(g.Nodes()) * numDirs,
		MemBudget:  opts.MemBudget,
		ForcePaged: opts.PagedKeys,
		Lease:      opts.Lease,
	})
	st := eng.Run(func(ctx *engine.Ctx) {
		root := prng.New(opts.Seed)
		seen := make(map[int]bool, len(pkts))
		for _, p := range pkts {
			if seen[p.ID] {
				panic(fmt.Sprintf("mesh: duplicate packet ID %d", p.ID))
			}
			seen[p.ID] = true
			if p.Src < 0 || p.Src >= g.Nodes() || p.Dst < 0 || p.Dst >= g.Nodes() {
				panic(fmt.Sprintf("mesh: packet %d endpoints out of range", p.ID))
			}
			p.Rand = root.Split(uint64(p.ID))
			p.Injected = 0
			p.Arrived = -1
			p.At = p.Src
			r.initStages(p)
			if dir, done := r.nextDir(p, p.Src); done {
				p.Arrived = 0
				ctx.Stats().DeliveredRequests++
			} else {
				ctx.Emit(uint64(p.Src*numDirs+dir), p)
			}
		}
	}, r.handle, nil)
	if opts.MemStats != nil {
		*opts.MemStats = eng.MemStats()
	}
	return Stats{
		Rounds:            st.Rounds,
		MaxQueue:          st.MaxQueue,
		TotalDelay:        st.TotalDelay,
		MaxPacketSteps:    st.MaxPacketSteps,
		DeliveredRequests: st.DeliveredRequests,
		StageRounds:       [3]int{st.Aux[0], st.Aux[1], st.Aux[2]},
	}
}

// initStages picks the packet's stage-1 target row. Stage numbering:
// 0 = column move to the random row, 1 = row move to the destination
// column, 2 = column move to the destination row.
func (r *router) initStages(p *packet.Packet) {
	srcRow, _ := r.g.RowCol(p.Src)
	base := srcRow - srcRow%r.slice
	height := r.slice
	if base+height > r.g.n {
		height = r.g.n - base
	}
	lo, hi := base, base+height // [lo, hi)
	if d := r.opts.LocalityBound; d > 0 {
		// Theorem 3.3: stay within distance d of the origin row so
		// stage 1 never takes the packet far from local traffic.
		if srcRow-d > lo {
			lo = srcRow - d
		}
		if srcRow+d+1 < hi {
			hi = srcRow + d + 1
		}
	}
	p.Row2 = lo + p.Rand.Intn(hi-lo)
	if r.opts.Algorithm == ValiantBrebner {
		p.Row2 = p.Rand.Intn(r.g.n)
	}
	if r.opts.Algorithm == Greedy {
		p.Row2 = srcRow // no stage-1 displacement
	}
	p.Stage = 0
}

// nextDir returns the direction the packet takes from node, advancing
// its stage as intermediate targets are reached; done means delivered.
func (r *router) nextDir(p *packet.Packet, node int) (dir int, done bool) {
	row, col := r.g.RowCol(node)
	dstRow, dstCol := r.g.RowCol(p.Dst)
	for {
		switch p.Stage {
		case 0: // column move to the random row
			if row == p.Row2 {
				p.Stage = 1
				continue
			}
			if row > p.Row2 {
				return dirNorth, false
			}
			return dirSouth, false
		case 1: // row move to the destination column
			if col == dstCol {
				p.Stage = 2
				continue
			}
			if col < dstCol {
				return dirEast, false
			}
			return dirWest, false
		default: // column move to the destination row
			if row == dstRow {
				return 0, true
			}
			if row > dstRow {
				return dirNorth, false
			}
			return dirSouth, false
		}
	}
}

func (r *router) neighbor(node, dir int) int {
	switch dir {
	case dirNorth:
		return node - r.g.n
	case dirSouth:
		return node + r.g.n
	case dirEast:
		return node + 1
	default:
		return node - 1
	}
}

// newQueue is the engine's link-queue factory: FIFO for the ablation,
// otherwise the paper's furthest-destination-first heap.
func (r *router) newQueue() queue.Discipline {
	if r.opts.Discipline == FIFODiscipline {
		return queue.NewFIFO(4)
	}
	g := r.g
	return queue.NewPriority(func(a, b *packet.Packet) bool {
		da, db := g.L1Remaining(a), g.L1Remaining(b)
		if da != db {
			return da > db // furthest destination first
		}
		return a.ID < b.ID
	})
}

// L1Remaining returns the packet's remaining travel distance through
// its staged route: |row - Row2 or dstRow| depending on stage, plus
// the untraveled row/column legs. Used as the furthest-first priority.
func (g *Grid) L1Remaining(p *packet.Packet) int {
	row, col := g.RowCol(p.At)
	dstRow, dstCol := g.RowCol(p.Dst)
	switch p.Stage {
	case 0:
		return abs(row-p.Row2) + abs(col-dstCol) + abs(p.Row2-dstRow)
	case 1:
		return abs(col-dstCol) + abs(row-dstRow)
	default:
		return abs(row - dstRow)
	}
}

// handle advances one popped packet a hop: it just crossed the link
// encoded in a.Key. The per-stage drain rounds live in the engine's
// max-merged Aux slots. Runs concurrently on distinct packets when
// Workers > 1.
func (r *router) handle(ctx *engine.Ctx, a engine.Arrival, round int) {
	p := a.P
	p.Hops++
	node := r.neighbor(int(a.Key)/numDirs, int(a.Key)%numDirs)
	p.At = node
	stageBefore := p.Stage
	dir, done := r.nextDir(p, node)
	st := ctx.Stats()
	if p.Stage != stageBefore || done {
		if round > st.Aux[stageBefore] {
			st.Aux[stageBefore] = round
		}
	}
	if done {
		p.Arrived = round
		st.DeliveredRequests++
		st.TotalDelay += int64(p.Delay)
		if s := p.Steps(); s > st.MaxPacketSteps {
			st.MaxPacketSteps = s
		}
		if round > st.Rounds {
			st.Rounds = round
		}
		return
	}
	ctx.Emit(uint64(node*numDirs+dir), p)
}
