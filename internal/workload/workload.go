// Package workload generates the request patterns the paper's
// experiments exercise: permutation routing (§2.2.1's paradigmatic
// case), partial h-relations, many-one hot spots (the CRCW combining
// stress of Theorem 2.6), and the distance-d local memory requests of
// Theorem 3.3. Generators produce either routing packets or PRAM
// memory-request vectors, all deterministically from a seed.
//
// Every packet generator is also registered in this package's
// name-keyed registry (registry.go), the workload twin of the
// topology registry: commands, scenario sweeps and benchmarks select
// traffic by name through Generate, which gates each generator on the
// capabilities the target topology actually has.
package workload

import (
	"fmt"

	"pramemu/internal/packet"
	"pramemu/internal/pram"
	"pramemu/internal/prng"
)

// Grid is the structural surface of the n x n mesh this package
// needs: the mesh-package adapter through which the grid-specific
// generator MeshLocal sees the topology without this package
// importing internal/mesh. *mesh.Grid satisfies it; callers outside
// the mesh experiments should reach the generator through the
// registry's capability gates instead of passing grids directly.
type Grid interface {
	Side() int
	Nodes() int
	RowCol(node int) (row, col int)
	Node(row, col int) int
}

// Permutation returns packets realizing a uniformly random permutation:
// one packet at every node, destinations a random permutation.
func Permutation(nodes int, kind packet.Kind, seed uint64) []*packet.Packet {
	return PermutationInto(nil, nodes, kind, seed)
}

// PermutationInto is Permutation with packets allocated from arena a
// (heap-allocated when a is nil), so repeated trials recycle one slab
// arena via Reset instead of scattering a fresh heap object per
// packet per trial.
func PermutationInto(a *packet.Arena, nodes int, kind packet.Kind, seed uint64) []*packet.Packet {
	perm := prng.New(seed).Perm(nodes)
	pkts := make([]*packet.Packet, nodes)
	for i, dst := range perm {
		pkts[i] = packet.NewIn(a, i, i, dst, kind)
	}
	return pkts
}

// IdentityInto returns packets from every node to itself (a
// degenerate permutation exercising zero-distance handling), allocated
// from arena a (heap-allocated when a is nil).
func IdentityInto(a *packet.Arena, nodes int, kind packet.Kind) []*packet.Packet {
	pkts := make([]*packet.Packet, nodes)
	for i := range pkts {
		pkts[i] = packet.NewIn(a, i, i, i, kind)
	}
	return pkts
}

// BitReversalInto returns the bit-reversal permutation on nodes =
// 2^k, the classic adversarial pattern for deterministic oblivious
// routing, allocated from arena a (heap-allocated when a is nil). It
// panics if nodes is not a power of two.
func BitReversalInto(a *packet.Arena, nodes int, kind packet.Kind) []*packet.Packet {
	k := log2Exact(nodes, "BitReversal")
	pkts := make([]*packet.Packet, nodes)
	for i := 0; i < nodes; i++ {
		rev := 0
		for b := 0; b < k; b++ {
			rev = rev<<1 | (i >> b & 1)
		}
		pkts[i] = packet.NewIn(a, i, i, rev, kind)
	}
	return pkts
}

// BitComplementInto returns the bit-complement permutation on nodes
// = 2^k: node i sends to ^i, the all-bits-flipped node. Every packet
// must cross every dimension, making the pattern the maximal-distance
// adversary on the binary families (the complement of shift's
// minimal-distance traffic). Packets come from arena a (heap-allocated
// when a is nil). It panics if nodes is not a power of two.
func BitComplementInto(a *packet.Arena, nodes int, kind packet.Kind) []*packet.Packet {
	log2Exact(nodes, "BitComplement")
	pkts := make([]*packet.Packet, nodes)
	for i := 0; i < nodes; i++ {
		pkts[i] = packet.NewIn(a, i, i, nodes-1-i, kind)
	}
	return pkts
}

// log2Exact returns k with 2^k == nodes, panicking when nodes is not
// a power of two (the shared precondition of the bit permutations).
func log2Exact(nodes int, generator string) int {
	k := 0
	for 1<<k < nodes {
		k++
	}
	if nodes < 1 || 1<<k != nodes {
		panic(fmt.Sprintf("workload: %s needs a power-of-two node count, got %d", generator, nodes))
	}
	return k
}

// ShiftInto returns the neighbor permutation: node i sends to i+1
// mod nodes, the minimal-distance traffic that measures per-hop
// overhead with no congestion at all. Packets come from arena a
// (heap-allocated when a is nil).
func ShiftInto(a *packet.Arena, nodes int, kind packet.Kind) []*packet.Packet {
	pkts := make([]*packet.Packet, nodes)
	for i := 0; i < nodes; i++ {
		pkts[i] = packet.NewIn(a, i, i, (i+1)%nodes, kind)
	}
	return pkts
}

// Relation returns packets realizing a partial h-relation: h packets
// at every node, at most h destined to any node (h independent random
// permutations; Theorem 2.4's workload with h = ℓ).
func Relation(nodes, h int, kind packet.Kind, seed uint64) []*packet.Packet {
	return RelationInto(nil, nodes, h, kind, seed)
}

// RelationInto is Relation with packets allocated from arena a
// (heap-allocated when a is nil).
func RelationInto(a *packet.Arena, nodes, h int, kind packet.Kind, seed uint64) []*packet.Packet {
	src := prng.New(seed)
	pkts := make([]*packet.Packet, 0, nodes*h)
	id := 0
	for rel := 0; rel < h; rel++ {
		perm := src.Perm(nodes)
		for i, dst := range perm {
			pkts = append(pkts, packet.NewIn(a, id, i, dst, kind))
			id++
		}
	}
	return pkts
}

// HotSpot returns request packets of the given kind where a
// `fraction` (in [0,1]) of nodes target one shared address and the
// rest touch private addresses — the many-one pattern that CRCW
// combining collapses. Non-request kinds are promoted to ReadRequest
// so the packets always carry a memory operation.
func HotSpot(nodes int, fraction float64, hotDst int, kind packet.Kind, seed uint64) []*packet.Packet {
	return HotSpotInto(nil, nodes, fraction, hotDst, kind, seed)
}

// HotSpotInto is HotSpot with packets allocated from arena a
// (heap-allocated when a is nil).
func HotSpotInto(a *packet.Arena, nodes int, fraction float64, hotDst int, kind packet.Kind, seed uint64) []*packet.Packet {
	if fraction < 0 || fraction > 1 {
		panic(fmt.Sprintf("workload: hot-spot fraction %v out of [0,1]", fraction))
	}
	kind = requestKind(kind)
	src := prng.New(seed)
	pkts := make([]*packet.Packet, nodes)
	const hotAddr = 0
	for i := 0; i < nodes; i++ {
		p := packet.NewIn(a, i, i, hotDst, kind)
		p.Proc = i
		if src.Float64() < fraction {
			p.Addr = hotAddr
			p.Dst = hotDst
		} else {
			p.Addr = uint64(nodes + i) // private address
			p.Dst = src.Intn(nodes)
		}
		pkts[i] = p
	}
	return pkts
}

// KHotInto returns the many-to-one k-hot-spot pattern: `hot` shared
// destinations are drawn from the seed, and every node sends a
// request of the given kind to one of them — with probability
// `fraction` to the hot address shared by that destination (so
// combining trees form en route, Theorem 2.6), otherwise to a private
// address at the same destination. A generalization of HotSpot from
// one hot module to k, runnable on any registered family. Packets come
// from arena a (heap-allocated when a is nil).
func KHotInto(a *packet.Arena, nodes, hot int, fraction float64, kind packet.Kind, seed uint64) []*packet.Packet {
	if fraction < 0 || fraction > 1 {
		panic(fmt.Sprintf("workload: k-hot-spot fraction %v out of [0,1]", fraction))
	}
	if hot < 1 {
		panic(fmt.Sprintf("workload: k-hot-spot needs at least one hot destination, got %d", hot))
	}
	if hot > nodes {
		hot = nodes
	}
	kind = requestKind(kind)
	src := prng.New(seed)
	// Distinct hot destinations, drawn deterministically.
	hotDsts := make([]int, 0, hot)
	used := make(map[int]bool, hot)
	for len(hotDsts) < hot {
		d := src.Intn(nodes)
		if !used[d] {
			used[d] = true
			hotDsts = append(hotDsts, d)
		}
	}
	pkts := make([]*packet.Packet, nodes)
	for i := 0; i < nodes; i++ {
		j := src.Intn(hot)
		p := packet.NewIn(a, i, i, hotDsts[j], kind)
		p.Proc = i
		if src.Float64() < fraction {
			p.Addr = uint64(j) // address shared by everyone hitting this hot spot
		} else {
			p.Addr = uint64(nodes + i) // private address at a hot module
		}
		pkts[i] = p
	}
	return pkts
}

// requestKind promotes non-request kinds to ReadRequest: the many-one
// generators always emit memory operations so combining has an
// address to merge on.
func requestKind(kind packet.Kind) packet.Kind {
	if !kind.IsRequest() {
		return packet.ReadRequest
	}
	return kind
}

// Requests converts routing packets into a PRAM request vector, one
// request per source node; nodes without packets idle. Used to feed
// the emulator with synthetic (non-program) steps.
func Requests(nodes int, pkts []*packet.Packet) []pram.Request {
	reqs := make([]pram.Request, nodes)
	for i := range reqs {
		reqs[i] = pram.Request{Proc: i, Op: pram.OpNone}
	}
	for _, p := range pkts {
		op := pram.OpRead
		if p.Kind == packet.WriteRequest {
			op = pram.OpWrite
		}
		reqs[p.Src] = pram.Request{Proc: p.Src, Op: op, Addr: p.Addr, Value: p.Value}
	}
	return reqs
}

// StepRequests converts one registered workload's packets into the
// request vector of the equivalent emulated PRAM step, one request
// per source node (idle processors issue OpNone). The traffic class
// decides where the step's addresses come from:
//
//   - many-one generators (hotspot, khot) carry explicit shared and
//     private addresses on their packets, so those are used verbatim —
//     the combining pattern of Theorem 2.6;
//   - every other class reads the packet's destination as the address
//     (processor i touches address Dst(i)), so a permutation-class
//     pattern becomes an EREW-legal step (bijective destinations →
//     distinct addresses) and a local pattern a distance-bounded one.
//
// Note the emulator then hashes each address to its memory module, so
// an adversarial destination pattern (bitrev, tornado) loses its
// geometric structure — which is exactly the point of Theorems 2.5
// and 2.6: hashing makes the step cost pattern-independent.
func StepRequests(class Class, nodes int, pkts []*packet.Packet) []pram.Request {
	if class == ClassManyOne {
		return Requests(nodes, pkts)
	}
	reqs := make([]pram.Request, nodes)
	for i := range reqs {
		reqs[i] = pram.Request{Proc: i, Op: pram.OpNone}
	}
	for _, p := range pkts {
		op := pram.OpRead
		if p.Kind == packet.WriteRequest {
			op = pram.OpWrite
		}
		reqs[p.Src] = pram.Request{Proc: p.Src, Op: op, Addr: uint64(p.Dst), Value: p.Value}
	}
	return reqs
}

// RandomStep returns a PRAM request vector in which every processor
// touches a distinct random address (an EREW-legal step): the
// workload of Theorems 2.5 and 3.2. Addresses are drawn from
// [0, memory) without replacement.
func RandomStep(procs int, memory uint64, write bool, seed uint64) []pram.Request {
	if uint64(procs) > memory {
		panic("workload: more processors than addresses for an EREW step")
	}
	src := prng.New(seed)
	used := make(map[uint64]bool, procs)
	reqs := make([]pram.Request, procs)
	for i := 0; i < procs; i++ {
		var a uint64
		for {
			a = src.Uint64n(memory)
			if !used[a] {
				used[a] = true
				break
			}
		}
		op := pram.OpRead
		if write {
			op = pram.OpWrite
		}
		reqs[i] = pram.Request{Proc: i, Op: op, Addr: a, Value: int64(i)}
	}
	return reqs
}

// CRCWStep returns a request vector in which all processors read the
// same single address — the fully concurrent step that exercises
// Theorem 2.6's combining.
func CRCWStep(procs int, addr uint64) []pram.Request {
	reqs := make([]pram.Request, procs)
	for i := range reqs {
		reqs[i] = pram.Request{Proc: i, Op: pram.OpRead, Addr: addr}
	}
	return reqs
}

// MeshLocal returns packets on grid g whose destinations lie within
// L1 distance d of their sources (Theorem 3.3's workload), one packet
// per node, destinations clamped by reflection at the borders.
func MeshLocal(g Grid, d int, seed uint64) []*packet.Packet {
	return MeshLocalInto(nil, g, d, seed)
}

// MeshLocalInto is MeshLocal with packets allocated from arena a
// (heap-allocated when a is nil).
func MeshLocalInto(a *packet.Arena, g Grid, d int, seed uint64) []*packet.Packet {
	if d < 1 {
		panic("workload: locality distance must be >= 1")
	}
	src := prng.New(seed)
	n := g.Side()
	pkts := make([]*packet.Packet, g.Nodes())
	for node := 0; node < g.Nodes(); node++ {
		r, c := g.RowCol(node)
		dr := reflect(r+src.Intn(2*d+1)-d, n)
		rem := d - abs(dr-r)
		dc := reflect(c+src.Intn(2*rem+1)-rem, n)
		pkts[node] = packet.NewIn(a, node, node, g.Node(dr, dc), packet.Transit)
	}
	return pkts
}

func reflect(x, n int) int {
	if x < 0 {
		x = -x
	}
	if x >= n {
		x = 2*n - 2 - x
	}
	return x
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// IsSquare reports whether nodes is a perfect square (the
// TransposeSquareInto precondition).
func IsSquare(nodes int) bool {
	s := side(nodes)
	return s > 0 && s*s == nodes
}

func side(nodes int) int {
	s := 0
	for (s+1)*(s+1) <= nodes {
		s++
	}
	return s
}

// TransposeSquareInto returns the transpose permutation on any
// square node count: with s = √nodes, node r*s + c sends to node
// c*s + r. On tori and meshes this is the classic adversarial pattern
// for dimension-ordered routing (every packet crosses the main
// diagonal, complementing the bit-reversal permutation on the binary
// families). Packets come from arena a (heap-allocated when a is nil).
// It panics unless nodes is a perfect square.
func TransposeSquareInto(a *packet.Arena, nodes int, kind packet.Kind) []*packet.Packet {
	if !IsSquare(nodes) {
		panic(fmt.Sprintf("workload: TransposeSquare needs a square node count, got %d", nodes))
	}
	s := side(nodes)
	pkts := make([]*packet.Packet, nodes)
	for node := 0; node < nodes; node++ {
		r, c := node/s, node%s
		pkts[node] = packet.NewIn(a, node, node, c*s+r, kind)
	}
	return pkts
}
