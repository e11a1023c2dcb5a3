// The registered generators: the coordinate- and graph-defined
// patterns (tornado, local) live here next to the init that registers
// every generator of the package, each mapped to the traffic class —
// and through it the theorem — it exercises.

package workload

import (
	"fmt"

	"pramemu/internal/packet"
	"pramemu/internal/prng"
	"pramemu/internal/topology"
)

// TornadoInto returns the half-wrap adversary on a coordinate grid:
// every node sends to the node whose every coordinate is advanced by
// ⌊extent/2⌋ (mod extent). On the torus each packet travels the full
// diameter and the shorter-arc tie-break sends all of them the same
// way around every ring; on the mesh every packet crosses the
// bisection. Packets come from arena a (heap-allocated when a is nil).
// It panics unless g implements topology.Coordinated.
func TornadoInto(a *packet.Arena, g topology.Graph, kind packet.Kind) []*packet.Packet {
	co, ok := g.(topology.Coordinated)
	if !ok {
		panic(fmt.Sprintf("workload: tornado needs grid coordinates, %s has none", g.Name()))
	}
	dims := co.Dims()
	coords := make([]int, dims)
	pkts := make([]*packet.Packet, g.Nodes())
	for node := range pkts {
		for d := 0; d < dims; d++ {
			ext := co.Extent(d)
			coords[d] = (co.Coord(node, d) + ext/2) % ext
		}
		pkts[node] = packet.NewIn(a, node, node, co.NodeAt(coords), kind)
	}
	return pkts
}

// LocalInto generalizes Theorem 3.3's distance-d-local workload from
// the mesh to any point-to-point graph: every node sends one packet to
// a node sampled uniformly from its BFS ball of radius d (self
// included). On the mesh proper it delegates to MeshLocalInto,
// preserving the paper's reflection-clamped L1 sampling exactly.
// Packets come from arena a (heap-allocated when a is nil).
func LocalInto(a *packet.Arena, g topology.Graph, d int, seed uint64) []*packet.Packet {
	if d < 1 {
		panic("workload: locality distance must be >= 1")
	}
	if grid, ok := g.(Grid); ok {
		return MeshLocalInto(a, grid, d, seed)
	}
	src := prng.New(seed)
	n := g.Nodes()
	pkts := make([]*packet.Packet, n)
	// BFS scratch, reused across sources: seen is stamped with the
	// current source so it never needs clearing.
	seen := make([]int, n)
	for i := range seen {
		seen[i] = -1
	}
	var ball, next []int
	for node := 0; node < n; node++ {
		ball = append(ball[:0], node)
		seen[node] = node
		frontier := ball
		for depth := 0; depth < d && len(frontier) > 0; depth++ {
			next = next[:0]
			for _, u := range frontier {
				deg := g.Degree(u)
				for s := 0; s < deg; s++ {
					v := g.Neighbor(u, s)
					if seen[v] != node {
						seen[v] = node
						next = append(next, v)
					}
				}
			}
			ball = append(ball, next...)
			frontier = ball[len(ball)-len(next):]
		}
		pkts[node] = packet.NewIn(a, node, node, ball[src.Intn(len(ball))], packet.Transit)
	}
	return pkts
}

func init() {
	Register(Generator{
		Name: "perm", Params: "Kind",
		Class: ClassPermutation, Traffic: "Thm 2.1/2.2: uniformly random permutation, the paradigmatic case of §2.2.1",
		Generate: func(b topology.Built, p Params, a *packet.Arena, seed uint64) ([]*packet.Packet, error) {
			return PermutationInto(a, b.Nodes(), p.Kind, seed), nil
		},
	})
	Register(Generator{
		Name: "ident", Params: "Kind",
		Class: ClassPermutation, Traffic: "degenerate zero-distance permutation (delivery-path edge cases)",
		Generate: func(b topology.Built, p Params, a *packet.Arena, seed uint64) ([]*packet.Packet, error) {
			return IdentityInto(a, b.Nodes(), p.Kind), nil
		},
	})
	Register(Generator{
		Name: "shift", Params: "Kind",
		Class: ClassPermutation, Traffic: "neighbor permutation i -> i+1: minimal-distance, congestion-free baseline",
		Generate: func(b topology.Built, p Params, a *packet.Arena, seed uint64) ([]*packet.Packet, error) {
			return ShiftInto(a, b.Nodes(), p.Kind), nil
		},
	})
	Register(Generator{
		Name: "bitrev", Params: "Kind",
		Class: ClassPermutation, Traffic: "bit-reversal: the classic adversary for deterministic oblivious routing (why phase 1 exists)",
		Needs: NeedsPow2,
		Generate: func(b topology.Built, p Params, a *packet.Arena, seed uint64) ([]*packet.Packet, error) {
			return BitReversalInto(a, b.Nodes(), p.Kind), nil
		},
	})
	Register(Generator{
		Name: "bitcomp", Params: "Kind",
		Class: ClassPermutation, Traffic: "bit-complement i -> ^i: maximal-distance adversary on the binary families",
		Needs: NeedsPow2,
		Generate: func(b topology.Built, p Params, a *packet.Arena, seed uint64) ([]*packet.Packet, error) {
			return BitComplementInto(a, b.Nodes(), p.Kind), nil
		},
	})
	Register(Generator{
		Name: "transpose", Params: "Kind",
		Class: ClassPermutation, Traffic: "√N x √N transpose: the dimension-ordered-routing adversary (§3.4's hard case)",
		Needs: NeedsSquare,
		Generate: func(b topology.Built, p Params, a *packet.Arena, seed uint64) ([]*packet.Packet, error) {
			return TransposeSquareInto(a, b.Nodes(), p.Kind), nil
		},
	})
	Register(Generator{
		Name: "tornado", Params: "Kind",
		Class: ClassPermutation, Traffic: "half-wrap tornado: saturates one direction of every ring of a torus/mesh (§3 adversary)",
		Needs: NeedsCoords,
		Generate: func(b topology.Built, p Params, a *packet.Arena, seed uint64) ([]*packet.Packet, error) {
			return TornadoInto(a, b.Graph, p.Kind), nil
		},
	})
	Register(Generator{
		Name: "relation", Params: "Kind, H",
		Class: ClassRelation, Traffic: "Cor 2.1: partial h-relation (h independent random permutations)",
		Generate: func(b topology.Built, p Params, a *packet.Arena, seed uint64) ([]*packet.Packet, error) {
			return RelationInto(a, b.Nodes(), p.H, p.Kind, seed), nil
		},
	})
	Register(Generator{
		Name: "hotspot", Params: "Kind, Fraction",
		Class: ClassManyOne, Traffic: "Thm 2.6: single hot module, Fraction of nodes reading one shared address",
		Needs: NeedsCombining,
		Generate: func(b topology.Built, p Params, a *packet.Arena, seed uint64) ([]*packet.Packet, error) {
			return HotSpotInto(a, b.Nodes(), p.Fraction, 0, p.Kind, seed), nil
		},
	})
	Register(Generator{
		Name: "khot", Params: "Kind, Fraction, Hot",
		Class: ClassManyOne, Traffic: "Thm 2.6 generalized: Hot shared destinations, combining trees forming toward each",
		Needs: NeedsCombining,
		Generate: func(b topology.Built, p Params, a *packet.Arena, seed uint64) ([]*packet.Packet, error) {
			return KHotInto(a, b.Nodes(), p.Hot, p.Fraction, p.Kind, seed), nil
		},
	})
	Register(Generator{
		Name: "local", Params: "D",
		Class: ClassLocal, Traffic: "Thm 3.3: destinations within distance D (reflected L1 ball on the mesh, BFS ball elsewhere)",
		Needs: NeedsGraph,
		Generate: func(b topology.Built, p Params, a *packet.Arena, seed uint64) ([]*packet.Packet, error) {
			return LocalInto(a, b.Graph, p.D, seed), nil
		},
	})
}
