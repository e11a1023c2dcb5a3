package mesh

import (
	"fmt"
	"hash/fnv"
	"testing"

	"pramemu/internal/packet"
	"pramemu/internal/prng"
	"pramemu/internal/testio"
)

func permPackets(g *Grid, perm []int) []*packet.Packet {
	pkts := make([]*packet.Packet, len(perm))
	for i, dst := range perm {
		pkts[i] = packet.New(i, i, dst, packet.Transit)
	}
	return pkts
}

func TestGridBasics(t *testing.T) {
	g := New(8)
	if g.Nodes() != 64 || g.Diameter() != 14 || g.Side() != 8 {
		t.Fatalf("grid: nodes=%d diam=%d", g.Nodes(), g.Diameter())
	}
	r, c := g.RowCol(19)
	if r != 2 || c != 3 {
		t.Fatalf("RowCol(19) = %d,%d", r, c)
	}
	if g.Node(2, 3) != 19 {
		t.Fatalf("Node(2,3) = %d", g.Node(2, 3))
	}
	if g.L1(0, 63) != 14 {
		t.Fatalf("L1 corner-to-corner = %d", g.L1(0, 63))
	}
}

func TestNewPanics(t *testing.T) {
	for _, n := range []int{1, 5000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) should panic", n)
				}
			}()
			New(n)
		}()
	}
}

func TestPermutationDelivers(t *testing.T) {
	for _, n := range []int{8, 16, 32} {
		g := New(n)
		perm := prng.New(uint64(n)).Perm(g.Nodes())
		stats := Route(g, permPackets(g, perm), Options{Seed: 3})
		if stats.DeliveredRequests != g.Nodes() {
			t.Fatalf("n=%d: delivered %d/%d", n, stats.DeliveredRequests, g.Nodes())
		}
		// Theorem 3.1: 2n + o(n). Small n have large o(n) slack; cap
		// at 4n to catch gross regressions.
		if stats.Rounds > 4*n {
			t.Fatalf("n=%d: %d rounds exceeds 4n", n, stats.Rounds)
		}
	}
}

func TestDeterminism(t *testing.T) {
	g := New(16)
	perm := prng.New(2).Perm(g.Nodes())
	a := Route(g, permPackets(g, perm), Options{Seed: 5})
	b := Route(g, permPackets(g, perm), Options{Seed: 5})
	if a != b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestEachAlgorithmDelivers(t *testing.T) {
	g := New(16)
	perm := prng.New(7).Perm(g.Nodes())
	for _, alg := range []Algorithm{ThreeStage, ValiantBrebner, Greedy} {
		stats := Route(g, permPackets(g, perm), Options{Seed: 1, Algorithm: alg})
		if stats.DeliveredRequests != g.Nodes() {
			t.Fatalf("alg %d: delivered %d", alg, stats.DeliveredRequests)
		}
	}
}

func TestFIFODisciplineDelivers(t *testing.T) {
	g := New(16)
	perm := prng.New(9).Perm(g.Nodes())
	stats := Route(g, permPackets(g, perm), Options{Seed: 1, Discipline: FIFODiscipline})
	if stats.DeliveredRequests != g.Nodes() {
		t.Fatalf("delivered %d", stats.DeliveredRequests)
	}
}

// TestThreeStageBeatsValiantBrebner reproduces the paper's motivation
// for slicing: stage 1 shrinks from a full-column move (~n) to εn,
// cutting the total from ~3n to ~2n.
func TestThreeStageBeatsValiantBrebner(t *testing.T) {
	g := New(64)
	perm := prng.New(4).Perm(g.Nodes())
	three := Route(g, permPackets(g, perm), Options{Seed: 2, Algorithm: ThreeStage})
	vb := Route(g, permPackets(g, perm), Options{Seed: 2, Algorithm: ValiantBrebner})
	if three.Rounds >= vb.Rounds {
		t.Fatalf("three-stage %d rounds not better than Valiant-Brebner %d",
			three.Rounds, vb.Rounds)
	}
}

// TestGreedyFailsAdversarially shows why randomization is needed: an
// all-columns-into-one permutation serializes on greedy routing but
// stays near 2n with the three-stage algorithm... The adversarial
// pattern sends the contents of each row block to a single column.
func TestGreedyFailsAdversarially(t *testing.T) {
	const n = 32
	g := New(n)
	// Transpose permutation: (r, c) -> (c, r). Greedy row-first
	// routing funnels all of row r into column r's vertical links.
	pkts := make([]*packet.Packet, 0, g.Nodes())
	id := 0
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			pkts = append(pkts, packet.New(id, g.Node(r, c), g.Node(c, r), packet.Transit))
			id++
		}
	}
	greedy := Route(g, pkts, Options{Seed: 1, Algorithm: Greedy})

	pkts2 := make([]*packet.Packet, 0, g.Nodes())
	id = 0
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			pkts2 = append(pkts2, packet.New(id, g.Node(r, c), g.Node(c, r), packet.Transit))
			id++
		}
	}
	three := Route(g, pkts2, Options{Seed: 1, Algorithm: ThreeStage})
	if three.Rounds > 4*n {
		t.Fatalf("three-stage transpose took %d rounds", three.Rounds)
	}
	_ = greedy // greedy delivers but may queue heavily; see E10 bench
}

func TestLocalityBound(t *testing.T) {
	// Theorem 3.3: requests within L1 distance d complete in 6d+o(d).
	const n, d = 64, 8
	g := New(n)
	src := prng.New(11)
	pkts := make([]*packet.Packet, 0, g.Nodes())
	for node := 0; node < g.Nodes(); node++ {
		r, c := g.RowCol(node)
		dr := r + src.Intn(2*d+1) - d
		dc := c + src.Intn(2*d+1) - d
		if dr < 0 {
			dr = -dr
		}
		if dr >= n {
			dr = 2*n - 2 - dr
		}
		if dc < 0 {
			dc = -dc
		}
		if dc >= n {
			dc = 2*n - 2 - dc
		}
		pkts = append(pkts, packet.New(node, node, g.Node(dr, dc), packet.Transit))
	}
	stats := Route(g, pkts, Options{Seed: 13, LocalityBound: d, SliceRows: d})
	if stats.DeliveredRequests != g.Nodes() {
		t.Fatalf("delivered %d", stats.DeliveredRequests)
	}
	// 6d + o(d): allow 8d for the lower-order terms at this size.
	if stats.Rounds > 8*d {
		t.Fatalf("local routing took %d rounds for d=%d (want <= %d)", stats.Rounds, d, 8*d)
	}
}

func TestStageRoundsMonotone(t *testing.T) {
	g := New(32)
	perm := prng.New(3).Perm(g.Nodes())
	stats := Route(g, permPackets(g, perm), Options{Seed: 8})
	if stats.StageRounds[0] > stats.StageRounds[1] || stats.StageRounds[1] > stats.StageRounds[2] {
		t.Fatalf("stage completion out of order: %v", stats.StageRounds)
	}
	if stats.StageRounds[2] != stats.Rounds {
		t.Fatalf("final stage %d != rounds %d", stats.StageRounds[2], stats.Rounds)
	}
	// With ε = 1/log n, stage 1 must finish in o(n) — generously n/2.
	if stats.StageRounds[0] > g.Side()/2 {
		t.Fatalf("stage 1 took %d rounds, want o(n)", stats.StageRounds[0])
	}
}

func TestQueueSizeModest(t *testing.T) {
	// §3.4: O(log n) queues for the basic algorithm; check a modest
	// absolute bound at n=64 with furthest-first.
	g := New(64)
	perm := prng.New(21).Perm(g.Nodes())
	stats := Route(g, permPackets(g, perm), Options{Seed: 9})
	if stats.MaxQueue > 24 {
		t.Fatalf("max queue %d exceeds expected O(log n) scale", stats.MaxQueue)
	}
}

func TestRoutePanics(t *testing.T) {
	g := New(4)
	for _, c := range testio.AdmissionCases("mesh", g.Nodes()) {
		t.Run(c.Name, func(t *testing.T) {
			testio.MustPanicWith(t, c.Want, func() { Route(g, c.Pkts, Options{}) })
		})
	}
	pkts := testio.AdmittedIDs()
	if st := Route(g, pkts, Options{Seed: 3}); st.DeliveredRequests != len(pkts) {
		t.Fatalf("delivered %d of %d packets with out-of-bitset IDs", st.DeliveredRequests, len(pkts))
	}
}

func TestSelfPacketsDeliverImmediately(t *testing.T) {
	g := New(8)
	pkts := make([]*packet.Packet, g.Nodes())
	for i := range pkts {
		pkts[i] = packet.New(i, i, i, packet.Transit)
	}
	stats := Route(g, pkts, Options{Seed: 1, SliceRows: 1})
	if stats.DeliveredRequests != g.Nodes() {
		t.Fatalf("delivered %d", stats.DeliveredRequests)
	}
	if stats.Rounds != 0 {
		t.Fatalf("self routing took %d rounds", stats.Rounds)
	}
}

// TestDisciplineGolden pins every packet's route cost under both
// queue disciplines: an FNV-1a digest of the Stats and each packet's
// (Hops, Delay, Arrived), at one and four workers. The values were
// recorded with the binary-heap queue the sorted link chains
// replaced, so a change to the furthest-first order (or its ID
// tie-break) shows here, not only in the round and max-queue totals.
func TestDisciplineGolden(t *testing.T) {
	want := map[string]uint64{
		"n16/furthest/seed1": 0x9fba3aae8b664939,
		"n16/furthest/seed7": 0x65b3476bc8e8aeb9,
		"n16/fifo/seed1":     0x66a21b53617cfbd5,
		"n16/fifo/seed7":     0xf065ffbc6b32c694,
		"n32/furthest/seed1": 0xc193720e601b0a49,
		"n32/furthest/seed7": 0x53598099183b4c96,
		"n32/fifo/seed1":     0xe0c93303b2a1eaf1,
		"n32/fifo/seed7":     0xd07191943cb27582,
	}
	for _, n := range []int{16, 32} {
		for _, d := range []struct {
			name string
			d    Discipline
		}{{"furthest", FurthestFirst}, {"fifo", FIFODiscipline}} {
			for _, seed := range []uint64{1, 7} {
				name := fmt.Sprintf("n%d/%s/seed%d", n, d.name, seed)
				g := New(n)
				perm := prng.New(seed).Perm(g.Nodes())
				var first uint64
				for _, workers := range []int{1, 4} {
					pkts := permPackets(g, perm)
					st := Route(g, pkts, Options{Seed: seed, Discipline: d.d, Workers: workers})
					h := fnv.New64a()
					fmt.Fprintf(h, "%+v", st)
					for _, p := range pkts {
						fmt.Fprintf(h, "|%d,%d,%d", p.Hops, p.Delay, p.Arrived)
					}
					got := h.Sum64()
					if workers == 1 {
						first = got
					} else if got != first {
						t.Fatalf("%s: workers %d digest %#x, workers 1 %#x", name, workers, got, first)
					}
				}
				if w, ok := want[name]; !ok || w != first {
					t.Errorf("%s: digest %#x, want %#x", name, first, w)
				}
			}
		}
	}
}
