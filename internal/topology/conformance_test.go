// Registry conformance: one property suite that every registered
// family must pass, at several sizes each, replacing per-family
// ad-hoc path tests — a family registered tomorrow is covered
// automatically (unknown names fall back to default parameters).
// The suite checks the Graph contract (slots in range, mutual link
// consistency), the deterministic-path contract (NextHop walks
// terminate at dst within Diameter() — or the declared MaxPathLen for
// path-bounded/taken-sensitive graphs — and are identical when
// re-walked), and that every family routes under Valiant two-phase
// with Workers > 1 bit-identically to the sequential engine (this is
// the test CI runs under the race detector, so every registered
// topology's NextHop is race-checked under concurrent routing).
package topology_test

import (
	"fmt"
	"testing"

	"pramemu/internal/leveled"
	"pramemu/internal/packet"
	"pramemu/internal/prng"
	"pramemu/internal/simnet"
	"pramemu/internal/topology"
	_ "pramemu/internal/topology/families"
)

// conformanceSizes lists the sizes each family is exercised at;
// families without an entry run once at their default parameters.
var conformanceSizes = map[string][]topology.Params{
	"star":      {{N: 3}, {N: 4}, {N: 5}},
	"pancake":   {{N: 3}, {N: 4}, {N: 5}},
	"ttree":     {{N: 4, K: 0}, {N: 5, K: 1}, {N: 4, K: 2}},
	"shuffle":   {{N: 2}, {N: 3}, {N: 2, K: 4}},
	"debruijn":  {{N: 4}, {N: 6}, {N: 3, K: 3}},
	"hypercube": {{N: 3}, {N: 6}},
	"torus":     {{N: 4, K: 2}, {N: 5, K: 2}, {N: 3, K: 3}, {N: 2, K: 5}},
	"mesh":      {{N: 3}, {N: 6}},
	"butterfly": {{N: 4}, {N: 3, K: 3}},
}

func conformanceCases(t *testing.T) []topology.Built {
	t.Helper()
	var out []topology.Built
	for _, name := range topology.Names() {
		sizes := conformanceSizes[name]
		if len(sizes) == 0 {
			t.Logf("family %q has no conformance sizes; using defaults", name)
			sizes = []topology.Params{{}}
		}
		for _, p := range sizes {
			b, err := topology.Build(name, p)
			if err != nil {
				t.Fatalf("%s%+v: %v", name, p, err)
			}
			out = append(out, b)
		}
	}
	return out
}

// walk follows the deterministic path from src to dst, failing if it
// leaves the node range or exceeds the declared bound.
func walk(t *testing.T, g topology.Graph, src, dst int) []int {
	t.Helper()
	bound := topology.MaxPath(g)
	path := []int{src}
	at := src
	for taken := 0; ; taken++ {
		slot, done := g.NextHop(at, dst, taken)
		if done {
			if at != dst {
				t.Fatalf("%s: path %d->%d declared done at %d", g.Name(), src, dst, at)
			}
			return path
		}
		if taken >= bound {
			t.Fatalf("%s: path %d->%d exceeded bound %d", g.Name(), src, dst, bound)
		}
		if slot < 0 || slot >= g.Degree(at) {
			t.Fatalf("%s: NextHop(%d, %d, %d) slot %d out of range [0, %d)",
				g.Name(), at, dst, taken, slot, g.Degree(at))
		}
		at = g.Neighbor(at, slot)
		if at < 0 || at >= g.Nodes() {
			t.Fatalf("%s: walked off the graph to %d", g.Name(), at)
		}
		path = append(path, at)
	}
}

func samplePairs(nodes, want int, seed uint64) [][2]int {
	if nodes*nodes <= want {
		out := make([][2]int, 0, nodes*nodes)
		for u := 0; u < nodes; u++ {
			for v := 0; v < nodes; v++ {
				out = append(out, [2]int{u, v})
			}
		}
		return out
	}
	src := prng.New(seed)
	out := make([][2]int, want)
	for i := range out {
		out[i] = [2]int{src.Intn(nodes), src.Intn(nodes)}
	}
	return out
}

func TestRegistryConformance(t *testing.T) {
	for _, b := range conformanceCases(t) {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			if b.Graph != nil {
				checkGraph(t, b.Graph)
			}
			checkParallelRouting(t, b)
		})
	}
}

// checkGraph asserts the structural contract and the deterministic-
// path properties on a sample of (src, dst) pairs.
func checkGraph(t *testing.T, g topology.Graph) {
	nodes := g.Nodes()
	if nodes < 2 {
		t.Fatalf("%s has %d nodes", g.Name(), nodes)
	}
	if g.Diameter() < 1 {
		t.Fatalf("%s declares diameter %d", g.Name(), g.Diameter())
	}
	if topology.MaxPath(g) < g.Diameter() {
		t.Fatalf("%s declares MaxPathLen %d below its diameter %d",
			g.Name(), topology.MaxPath(g), g.Diameter())
	}
	// Neighbor slots stay in range on every node (or a sample when
	// the graph is large).
	step := 1
	if nodes > 4096 {
		step = nodes / 4096
	}
	for u := 0; u < nodes; u += step {
		deg := g.Degree(u)
		if deg < 1 {
			t.Fatalf("%s: node %d has degree %d", g.Name(), u, deg)
		}
		for s := 0; s < deg; s++ {
			v := g.Neighbor(u, s)
			if v < 0 || v >= nodes {
				t.Fatalf("%s: Neighbor(%d, %d) = %d out of range", g.Name(), u, s, v)
			}
		}
	}
	// Deterministic paths terminate at dst within the bound, and
	// re-walking yields the identical path.
	for _, pair := range samplePairs(nodes, 300, 42) {
		first := walk(t, g, pair[0], pair[1])
		second := walk(t, g, pair[0], pair[1])
		if fmt.Sprint(first) != fmt.Sprint(second) {
			t.Fatalf("%s: path %d->%d not deterministic:\n%v\n%v",
				g.Name(), pair[0], pair[1], first, second)
		}
	}
}

// checkParallelRouting routes a fixed-seed read-request permutation
// (with replies and combining, so the full pipeline runs) under
// Workers: 1 and Workers: 4 and requires identical statistics. Under
// `go test -race` this doubles as the race check for every registered
// topology's NextHop/Neighbor under concurrent routing.
func checkParallelRouting(t *testing.T, b topology.Built) {
	pkts := func() []*packet.Packet {
		perm := prng.New(7).Perm(b.Nodes())
		out := make([]*packet.Packet, len(perm))
		for i, dst := range perm {
			p := packet.New(i, i, dst, packet.ReadRequest)
			p.Addr = uint64(dst / 2)
			p.Proc = i
			out[i] = p
		}
		return out
	}
	route := func(workers int) any {
		if b.Graph == nil {
			return leveled.Route(b.Spec, pkts(), leveled.Options{
				Seed: 99, Replies: true, Combine: true, Workers: workers,
			})
		}
		st, err := simnet.Route(b.Graph, pkts(), simnet.Options{
			Seed: 99, Replies: true, Combine: true, Workers: workers,
		})
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		return st
	}
	seq := route(1)
	par := route(4)
	if seq != par {
		t.Fatalf("%s: Workers=4 diverged from Workers=1:\nseq: %+v\npar: %+v", b.Name(), seq, par)
	}
	// Reply-free routing additionally exercises the engine's dense
	// link-state path (replies force the hashed fallback above); the
	// dense tables and the hashed maps must agree with each other and
	// across worker counts.
	direct := func(workers int, hashed bool) any {
		// A one-byte budget degrades the dense tables to the hashed
		// maps, as an over-budget run does.
		var budget int64
		if hashed {
			budget = 1
		}
		if b.Graph == nil {
			return leveled.Route(b.Spec, pkts(), leveled.Options{
				Seed: 99, Workers: workers, MemBudget: budget,
			})
		}
		st, err := simnet.Route(b.Graph, pkts(), simnet.Options{
			Seed: 99, Workers: workers, MemBudget: budget,
		})
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		return st
	}
	dense := direct(1, false)
	for _, v := range []struct {
		workers int
		hashed  bool
	}{{4, false}, {1, true}, {4, true}} {
		if got := direct(v.workers, v.hashed); got != dense {
			t.Fatalf("%s: Workers=%d hashed=%v diverged from dense Workers=1:\nwant: %+v\ngot:  %+v",
				b.Name(), v.workers, v.hashed, dense, got)
		}
	}
}
