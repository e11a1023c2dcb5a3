package leveled

import (
	"testing"

	"pramemu/internal/packet"
	"pramemu/internal/prng"
	"pramemu/internal/testio"
)

// permPackets builds one Transit packet per first-column node whose
// destinations form the given permutation.
func permPackets(perm []int, kind packet.Kind) []*packet.Packet {
	pkts := make([]*packet.Packet, len(perm))
	for i, dst := range perm {
		pkts[i] = packet.New(i, i, dst, kind)
	}
	return pkts
}

func TestRoutePermutationDelivers(t *testing.T) {
	for _, cfg := range []struct{ d, levels int }{{2, 6}, {3, 5}, {4, 4}} {
		spec := NewDAry(cfg.d, cfg.levels)
		perm := prng.New(1).Perm(spec.Width())
		pkts := permPackets(perm, packet.Transit)
		stats := Route(spec, pkts, Options{Seed: 42})
		if stats.DeliveredRequests != spec.Width() {
			t.Fatalf("%s: delivered %d/%d", spec.Name(), stats.DeliveredRequests, spec.Width())
		}
		minTime := 2 * (spec.Levels() - 1)
		if stats.Rounds < minTime {
			t.Fatalf("%s: %d rounds < path length %d", spec.Name(), stats.Rounds, minTime)
		}
		// Theorem 2.1: Õ(ℓ). Allow a generous constant; the benches
		// measure the real one (~3).
		if stats.Rounds > 20*spec.Levels() {
			t.Fatalf("%s: %d rounds way beyond Õ(ℓ)", spec.Name(), stats.Rounds)
		}
		for _, p := range pkts {
			if p.Arrived < 0 {
				t.Fatalf("packet %d never arrived", p.ID)
			}
		}
	}
}

func TestRouteDeterministicSameSeed(t *testing.T) {
	spec := NewDAry(3, 5)
	perm := prng.New(9).Perm(spec.Width())
	a := Route(spec, permPackets(perm, packet.Transit), Options{Seed: 7})
	b := Route(spec, permPackets(perm, packet.Transit), Options{Seed: 7})
	if a != b {
		t.Fatalf("same seed, different stats:\n%+v\n%+v", a, b)
	}
	c := Route(spec, permPackets(perm, packet.Transit), Options{Seed: 8})
	if a == c {
		t.Fatal("different seeds produced identical stats (suspicious)")
	}
}

func TestRouteParallelMatchesSequential(t *testing.T) {
	spec := NewDAry(2, 10) // 512 nodes so the parallel path engages
	perm := prng.New(3).Perm(spec.Width())
	seq := Route(spec, permPackets(perm, packet.Transit), Options{Seed: 5, Replies: true})
	par := Route(spec, permPackets(perm, packet.Transit), Options{Seed: 5, Replies: true, Workers: 4})
	if seq != par {
		t.Fatalf("parallel simulation diverged:\nseq %+v\npar %+v", seq, par)
	}
}

func TestRoutePathsAreValidEdges(t *testing.T) {
	spec := NewDAry(3, 4)
	perm := prng.New(11).Perm(spec.Width())
	pkts := permPackets(perm, packet.Transit)
	Route(spec, pkts, Options{Seed: 1, RecordPaths: true})
	for _, p := range pkts {
		if len(p.Path) != 2*spec.Levels()-1 {
			t.Fatalf("packet %d path length %d, want %d", p.ID, len(p.Path), 2*spec.Levels()-1)
		}
		if int(p.Path[0]) != p.Src || int(p.Path[len(p.Path)-1]) != p.Dst {
			t.Fatalf("packet %d path endpoints %d..%d", p.ID, p.Path[0], p.Path[len(p.Path)-1])
		}
		for j := 0; j+1 < len(p.Path); j++ {
			phys := j
			if j >= spec.Levels()-1 {
				phys = j - (spec.Levels() - 1)
			}
			from, to := int(p.Path[j]), int(p.Path[j+1])
			found := false
			for slot := 0; slot < spec.OutDegree(phys, from); slot++ {
				if spec.Out(phys, from, slot) == to {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("packet %d hop %d->%d at level %d is not an edge", p.ID, from, to, j)
			}
		}
	}
}

func TestRouteReplies(t *testing.T) {
	spec := NewDAry(2, 7)
	perm := prng.New(2).Perm(spec.Width())
	pkts := permPackets(perm, packet.ReadRequest)
	stats := Route(spec, pkts, Options{Seed: 4, Replies: true})
	if stats.DeliveredReplies != spec.Width() {
		t.Fatalf("replies home: %d/%d", stats.DeliveredReplies, spec.Width())
	}
	if stats.Rounds < stats.RequestRounds {
		t.Fatalf("rounds %d < request rounds %d", stats.Rounds, stats.RequestRounds)
	}
	for _, p := range pkts {
		if p.Kind != packet.ReadReply {
			t.Fatalf("packet %d kind %v after reply run", p.ID, p.Kind)
		}
	}
}

func TestRouteSkipPhase1(t *testing.T) {
	spec := NewDAry(2, 8)
	perm := prng.New(6).Perm(spec.Width())
	stats := Route(spec, permPackets(perm, packet.Transit), Options{Seed: 3, SkipPhase1: true})
	if stats.DeliveredRequests != spec.Width() {
		t.Fatalf("delivered %d", stats.DeliveredRequests)
	}
	if stats.Rounds < spec.Levels()-1 {
		t.Fatalf("rounds %d below single-pass path length", stats.Rounds)
	}
}

// TestRouteAdversarialNeedsPhase1 demonstrates the point of Valiant's
// randomizing phase: the "digit reversal" permutation funnels many
// deterministic unique paths through the same middle links, while
// two-phase routing stays near the diameter.
func TestRouteAdversarialNeedsPhase1(t *testing.T) {
	const k = 14 // butterfly with 16384 rows; deterministic congestion ~ sqrt(N)
	spec := NewButterfly(k)
	perm := make([]int, spec.Width())
	for i := range perm {
		rev := 0
		for b := 0; b < k; b++ {
			rev = rev<<1 | (i >> b & 1)
		}
		perm[i] = rev
	}
	det := Route(spec, permPackets(perm, packet.Transit), Options{Seed: 1, SkipPhase1: true})
	rnd := Route(spec, permPackets(perm, packet.Transit), Options{Seed: 1})
	if det.Rounds < 2*rnd.Rounds {
		t.Fatalf("bit reversal should crush deterministic routing: det=%d rnd=%d",
			det.Rounds, rnd.Rounds)
	}
}

func TestRouteHotSpotCombining(t *testing.T) {
	spec := NewDAry(2, 8) // 128 rows
	n := spec.Width()
	pkts := make([]*packet.Packet, n)
	for i := 0; i < n; i++ {
		pkts[i] = packet.New(i, i, 77, packet.ReadRequest)
		pkts[i].Addr = 1234
		pkts[i].Value = -1
	}
	stats := Route(spec, pkts, Options{Seed: 10, Replies: true, Combine: true})
	if stats.Merges == 0 {
		t.Fatal("hot-spot run produced no combining merges")
	}
	if stats.DeliveredRequests != n {
		t.Fatalf("delivered requests %d, want %d", stats.DeliveredRequests, n)
	}
	if stats.DeliveredReplies != n {
		t.Fatalf("delivered replies %d, want %d", stats.DeliveredReplies, n)
	}
	if stats.MaxModuleLoad != n {
		t.Fatalf("module load %d, want %d", stats.MaxModuleLoad, n)
	}
	for _, p := range pkts {
		if p.Kind != packet.ReadReply {
			t.Fatalf("packet %d not flipped to reply: %v", p.ID, p.Kind)
		}
	}
}

func TestRouteCombiningSpeedsUpHotSpot(t *testing.T) {
	spec := NewDAry(2, 9) // 256 rows
	build := func() []*packet.Packet {
		pkts := make([]*packet.Packet, spec.Width())
		for i := range pkts {
			pkts[i] = packet.New(i, i, 0, packet.ReadRequest)
			pkts[i].Addr = 55
		}
		return pkts
	}
	with := Route(spec, build(), Options{Seed: 2, Replies: true, Combine: true})
	without := Route(spec, build(), Options{Seed: 2, Replies: true})
	// Without combining, 256 requests serialize through the module's
	// single incoming link: at least ~N rounds. With combining the
	// whole run stays near the diameter.
	if without.Rounds < spec.Width()/2 {
		t.Fatalf("uncombined hot spot finished suspiciously fast: %d", without.Rounds)
	}
	if with.Rounds*3 > without.Rounds {
		t.Fatalf("combining did not help: with=%d without=%d", with.Rounds, without.Rounds)
	}
}

func TestRouteRelation(t *testing.T) {
	// Partial ℓ-relation (Theorem 2.4): ℓ packets at each source, at
	// most ℓ per destination — realized here by ℓ independent random
	// permutations.
	spec := NewDAry(3, 5)
	src := prng.New(14)
	var pkts []*packet.Packet
	id := 0
	for rel := 0; rel < spec.Levels(); rel++ {
		perm := src.Perm(spec.Width())
		for i, dst := range perm {
			pkts = append(pkts, packet.New(id, i, dst, packet.Transit))
			id++
		}
	}
	stats := Route(spec, pkts, Options{Seed: 21})
	if stats.DeliveredRequests != len(pkts) {
		t.Fatalf("delivered %d/%d", stats.DeliveredRequests, len(pkts))
	}
	if stats.Rounds > 40*spec.Levels() {
		t.Fatalf("ℓ-relation rounds %d not Õ(ℓ)", stats.Rounds)
	}
}

func TestRoutePanics(t *testing.T) {
	spec := NewDAry(2, 3)
	for _, c := range testio.AdmissionCases("leveled", spec.Width()) {
		t.Run(c.Name, func(t *testing.T) {
			testio.MustPanicWith(t, c.Want, func() { Route(spec, c.Pkts, Options{}) })
		})
	}
	pkts := testio.AdmittedIDs()
	if st := Route(spec, pkts, Options{Seed: 3}); st.DeliveredRequests != len(pkts) {
		t.Fatalf("delivered %d of %d packets with out-of-bitset IDs", st.DeliveredRequests, len(pkts))
	}
}

func TestRouteEmpty(t *testing.T) {
	stats := Route(NewDAry(2, 3), nil, Options{})
	if stats.Rounds != 0 || stats.DeliveredRequests != 0 {
		t.Fatalf("empty route stats: %+v", stats)
	}
}

func TestRouteQueueBound(t *testing.T) {
	// Theorem 2.1: FIFO queues of size Õ(ℓ) suffice. Check the
	// observed max queue is within a small multiple of ℓ.
	spec := NewDAry(2, 11)
	perm := prng.New(17).Perm(spec.Width())
	stats := Route(spec, permPackets(perm, packet.Transit), Options{Seed: 23})
	if stats.MaxQueue > 4*spec.Levels() {
		t.Fatalf("max queue %d exceeds 4ℓ = %d", stats.MaxQueue, 4*spec.Levels())
	}
}
