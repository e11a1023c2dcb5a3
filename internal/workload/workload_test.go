package workload

import (
	"testing"

	"pramemu/internal/mesh"
	"pramemu/internal/packet"
	"pramemu/internal/pram"
)

func TestPermutationIsPermutation(t *testing.T) {
	pkts := Permutation(100, packet.Transit, 5)
	if len(pkts) != 100 {
		t.Fatalf("%d packets", len(pkts))
	}
	seen := make([]bool, 100)
	for i, p := range pkts {
		if p.Src != i || p.ID != i {
			t.Fatalf("packet %d: src=%d", i, p.Src)
		}
		if seen[p.Dst] {
			t.Fatalf("duplicate destination %d", p.Dst)
		}
		seen[p.Dst] = true
	}
}

func TestPermutationSeeded(t *testing.T) {
	a := Permutation(64, packet.Transit, 1)
	b := Permutation(64, packet.Transit, 1)
	c := Permutation(64, packet.Transit, 2)
	diff := false
	for i := range a {
		if a[i].Dst != b[i].Dst {
			t.Fatal("same seed differs")
		}
		if a[i].Dst != c[i].Dst {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds agree")
	}
}

func TestIdentity(t *testing.T) {
	for _, p := range IdentityInto(nil, 10, packet.Transit) {
		if p.Src != p.Dst {
			t.Fatal("identity packet not self-addressed")
		}
	}
}

func TestBitReversal(t *testing.T) {
	pkts := BitReversalInto(nil, 8, packet.Transit)
	want := []int{0, 4, 2, 6, 1, 5, 3, 7}
	for i, p := range pkts {
		if p.Dst != want[i] {
			t.Fatalf("rev(%d) = %d, want %d", i, p.Dst, want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two should panic")
		}
	}()
	BitReversalInto(nil, 6, packet.Transit)
}

func TestRelation(t *testing.T) {
	const nodes, h = 50, 4
	pkts := Relation(nodes, h, packet.Transit, 3)
	if len(pkts) != nodes*h {
		t.Fatalf("%d packets", len(pkts))
	}
	perSrc := make(map[int]int)
	perDst := make(map[int]int)
	ids := make(map[int]bool)
	for _, p := range pkts {
		perSrc[p.Src]++
		perDst[p.Dst]++
		if ids[p.ID] {
			t.Fatalf("duplicate id %d", p.ID)
		}
		ids[p.ID] = true
	}
	for node := 0; node < nodes; node++ {
		if perSrc[node] != h || perDst[node] != h {
			t.Fatalf("node %d: %d sources, %d dests", node, perSrc[node], perDst[node])
		}
	}
}

func TestHotSpot(t *testing.T) {
	pkts := HotSpot(200, 0.5, 7, packet.Transit, 9)
	hot := 0
	for _, p := range pkts {
		if p.Kind != packet.ReadRequest {
			t.Fatal("hot spot packets must be promoted to reads")
		}
		if p.Addr == 0 && p.Dst == 7 {
			hot++
		}
	}
	if hot < 60 || hot > 140 {
		t.Fatalf("hot fraction %d/200 far from 0.5", hot)
	}
	for _, p := range HotSpot(50, 1, 3, packet.WriteRequest, 9) {
		if p.Kind != packet.WriteRequest {
			t.Fatal("request kinds must pass through")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad fraction should panic")
		}
	}()
	HotSpot(10, 1.5, 0, packet.ReadRequest, 1)
}

func TestKHotTargetsKDistinctModules(t *testing.T) {
	pkts := KHotInto(nil, 300, 3, 1, packet.Transit, 11)
	dsts := make(map[int]bool)
	addrs := make(map[uint64]bool)
	for _, p := range pkts {
		if p.Kind != packet.ReadRequest {
			t.Fatal("khot packets must be promoted to reads")
		}
		dsts[p.Dst] = true
		addrs[p.Addr] = true
	}
	if len(dsts) != 3 {
		t.Fatalf("khot hit %d destinations, want 3", len(dsts))
	}
	if len(addrs) != 3 {
		t.Fatalf("khot used %d shared addresses at fraction 1, want 3", len(addrs))
	}
}

func TestShiftAndBitComplement(t *testing.T) {
	for i, p := range ShiftInto(nil, 10, packet.Transit) {
		if p.Dst != (i+1)%10 {
			t.Fatalf("shift(%d) = %d", i, p.Dst)
		}
	}
	for i, p := range BitComplementInto(nil, 8, packet.Transit) {
		if p.Dst != 7-i {
			t.Fatalf("bitcomp(%d) = %d, want %d", i, p.Dst, 7-i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two should panic")
		}
	}()
	BitComplementInto(nil, 6, packet.Transit)
}

func TestRequestsConversion(t *testing.T) {
	pkts := []*packet.Packet{
		packet.New(0, 2, 9, packet.ReadRequest),
		packet.New(1, 4, 9, packet.WriteRequest),
	}
	pkts[0].Addr = 11
	pkts[1].Addr = 22
	pkts[1].Value = 5
	reqs := Requests(6, pkts)
	if len(reqs) != 6 {
		t.Fatalf("%d requests", len(reqs))
	}
	if reqs[2].Op != pram.OpRead || reqs[2].Addr != 11 {
		t.Fatalf("req[2] = %+v", reqs[2])
	}
	if reqs[4].Op != pram.OpWrite || reqs[4].Value != 5 {
		t.Fatalf("req[4] = %+v", reqs[4])
	}
	if reqs[0].Op != pram.OpNone {
		t.Fatal("idle processors must get OpNone")
	}
}

func TestRandomStepDistinctAddrs(t *testing.T) {
	reqs := RandomStep(100, 1000, false, 4)
	seen := make(map[uint64]bool)
	for _, r := range reqs {
		if r.Op != pram.OpRead {
			t.Fatal("want reads")
		}
		if seen[r.Addr] {
			t.Fatalf("duplicate address %d in EREW step", r.Addr)
		}
		seen[r.Addr] = true
	}
	writes := RandomStep(10, 100, true, 4)
	for _, r := range writes {
		if r.Op != pram.OpWrite {
			t.Fatal("want writes")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("procs > memory should panic")
		}
	}()
	RandomStep(10, 5, false, 1)
}

func TestCRCWStep(t *testing.T) {
	reqs := CRCWStep(10, 42)
	for _, r := range reqs {
		if r.Op != pram.OpRead || r.Addr != 42 {
			t.Fatalf("req = %+v", r)
		}
	}
}

func TestMeshLocalWithinDistance(t *testing.T) {
	g := mesh.New(32)
	for _, d := range []int{1, 3, 8} {
		pkts := MeshLocal(g, d, uint64(d))
		if len(pkts) != g.Nodes() {
			t.Fatalf("%d packets", len(pkts))
		}
		for _, p := range pkts {
			if dist := g.L1(p.Src, p.Dst); dist > d {
				t.Fatalf("d=%d: packet %d->%d at distance %d", d, p.Src, p.Dst, dist)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("d=0 should panic")
		}
	}()
	MeshLocal(g, 0, 1)
}

func TestTranspose(t *testing.T) {
	// The square transpose on the mesh's row-major node ids is the mesh
	// transpose (r, c) -> (c, r).
	g := mesh.New(8)
	pkts := TransposeSquareInto(nil, g.Nodes(), packet.Transit)
	if len(pkts) != 64 {
		t.Fatalf("%d packets", len(pkts))
	}
	for _, p := range pkts {
		sr, sc := g.RowCol(p.Src)
		dr, dc := g.RowCol(p.Dst)
		if sr != dc || sc != dr {
			t.Fatalf("packet %d->%d is not a transpose", p.Src, p.Dst)
		}
	}
}

func TestTransposeSquare(t *testing.T) {
	const nodes = 81 // 9x9, works for any square count (torus or mesh)
	pkts := TransposeSquareInto(nil, nodes, packet.Transit)
	if len(pkts) != nodes {
		t.Fatalf("%d packets", len(pkts))
	}
	seen := make(map[int]bool, nodes)
	for _, p := range pkts {
		sr, sc := p.Src/9, p.Src%9
		dr, dc := p.Dst/9, p.Dst%9
		if sr != dc || sc != dr {
			t.Fatalf("packet %d->%d is not a transpose", p.Src, p.Dst)
		}
		if seen[p.Dst] {
			t.Fatalf("destination %d hit twice; not a permutation", p.Dst)
		}
		seen[p.Dst] = true
	}
}

func TestTransposeSquareRejectsNonSquares(t *testing.T) {
	if IsSquare(10) || !IsSquare(16) || IsSquare(0) {
		t.Fatal("IsSquare misclassifies")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-square count should panic")
		}
	}()
	TransposeSquareInto(nil, 10, packet.Transit)
}

// TestIntoVariantsMatchHeapVariants pins that the arena-allocating
// generators produce the same workload as their heap twins, and that
// the packets really come from the arena.
func TestIntoVariantsMatchHeapVariants(t *testing.T) {
	a := packet.NewArena()
	heapPerm := Permutation(64, packet.Transit, 7)
	arenaPerm := PermutationInto(a, 64, packet.Transit, 7)
	if len(heapPerm) != len(arenaPerm) {
		t.Fatalf("permutation lengths differ: %d vs %d", len(heapPerm), len(arenaPerm))
	}
	for i := range heapPerm {
		h, ar := heapPerm[i], arenaPerm[i]
		if h.ID != ar.ID || h.Src != ar.Src || h.Dst != ar.Dst || h.Kind != ar.Kind {
			t.Fatalf("permutation packet %d differs: %+v vs %+v", i, h, ar)
		}
		if ar != a.At(i) {
			t.Fatalf("permutation packet %d not arena-allocated", i)
		}
	}
	a.Reset()
	heapRel := Relation(32, 3, packet.ReadRequest, 9)
	arenaRel := RelationInto(a, 32, 3, packet.ReadRequest, 9)
	if len(heapRel) != len(arenaRel) || a.Len() != len(arenaRel) {
		t.Fatalf("relation lengths differ: %d vs %d (arena %d)", len(heapRel), len(arenaRel), a.Len())
	}
	for i := range heapRel {
		h, ar := heapRel[i], arenaRel[i]
		if h.ID != ar.ID || h.Src != ar.Src || h.Dst != ar.Dst || h.Kind != ar.Kind {
			t.Fatalf("relation packet %d differs: %+v vs %+v", i, h, ar)
		}
	}
}
