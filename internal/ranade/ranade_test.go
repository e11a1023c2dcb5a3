package ranade

import (
	"testing"

	"pramemu/internal/packet"
	"pramemu/internal/prng"
)

func readPackets(n int, dsts []int, addrs []uint64) []*packet.Packet {
	pkts := make([]*packet.Packet, len(dsts))
	for i, dst := range dsts {
		pkts[i] = packet.New(i, i%n, dst, packet.ReadRequest)
		pkts[i].Addr = addrs[i]
	}
	return pkts
}

func TestPermutationDelivers(t *testing.T) {
	for _, k := range []int{2, 4, 6, 8} {
		net := New(k)
		n := net.Nodes()
		perm := prng.New(uint64(k)).Perm(n)
		addrs := make([]uint64, n)
		for i := range addrs {
			addrs[i] = uint64(i) * 7
		}
		pkts := readPackets(n, perm, addrs)
		stats := net.Route(pkts, Options{})
		if stats.DeliveredRequests != n {
			t.Fatalf("k=%d: delivered %d/%d", k, stats.DeliveredRequests, n)
		}
		if stats.DeliveredReplies != n {
			t.Fatalf("k=%d: replies %d/%d", k, stats.DeliveredReplies, n)
		}
		// O(log N): generously under 20k rounds.
		if stats.Rounds > 20*k {
			t.Fatalf("k=%d: %d rounds not O(k)", k, stats.Rounds)
		}
	}
}

func TestWritesGetNoReplies(t *testing.T) {
	net := New(4)
	n := net.Nodes()
	perm := prng.New(2).Perm(n)
	pkts := make([]*packet.Packet, n)
	for i, dst := range perm {
		pkts[i] = packet.New(i, i, dst, packet.WriteRequest)
		pkts[i].Addr = uint64(i)
	}
	stats := net.Route(pkts, Options{})
	if stats.DeliveredRequests != n || stats.DeliveredReplies != 0 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestHotSpotCombinesToOne(t *testing.T) {
	net := New(6) // 64 rows
	n := net.Nodes()
	dsts := make([]int, n)
	addrs := make([]uint64, n)
	for i := range dsts {
		dsts[i] = 13
		addrs[i] = 42
	}
	pkts := readPackets(n, dsts, addrs)
	stats := net.Route(pkts, Options{Combine: true})
	if stats.DeliveredRequests != n {
		t.Fatalf("delivered %d/%d", stats.DeliveredRequests, n)
	}
	if stats.DeliveredReplies != n {
		t.Fatalf("replies %d/%d", stats.DeliveredReplies, n)
	}
	// A perfect combining tree performs n-1 merges.
	if stats.Merges != n-1 {
		t.Fatalf("merges = %d, want %d", stats.Merges, n-1)
	}
	// And the whole step stays O(k).
	if stats.Rounds > 20*6 {
		t.Fatalf("combined hot spot took %d rounds", stats.Rounds)
	}
}

func TestHotSpotWithoutCombiningSerializes(t *testing.T) {
	net := New(6)
	n := net.Nodes()
	dsts := make([]int, n)
	addrs := make([]uint64, n)
	for i := range dsts {
		dsts[i] = 13
		addrs[i] = 42
	}
	with := net.Route(readPackets(n, dsts, addrs), Options{Combine: true})
	without := net.Route(readPackets(n, dsts, addrs), Options{})
	if without.Rounds < 2*with.Rounds {
		t.Fatalf("combining speedup missing: with=%d without=%d", with.Rounds, without.Rounds)
	}
}

func TestCombinedValuesPropagate(t *testing.T) {
	net := New(4)
	n := net.Nodes()
	dsts := make([]int, n)
	addrs := make([]uint64, n)
	for i := range dsts {
		dsts[i] = 5
		addrs[i] = 7
	}
	pkts := readPackets(n, dsts, addrs)
	// Simulate the module's answer: the emulator pre-stamps Value.
	for _, p := range pkts {
		p.Value = 999
	}
	net.Route(pkts, Options{Combine: true})
	for _, p := range pkts {
		if p.Kind != packet.ReadReply {
			t.Fatalf("packet %d kind %v", p.ID, p.Kind)
		}
		if p.Value != 999 {
			t.Fatalf("packet %d value %d", p.ID, p.Value)
		}
		if p.Arrived < 0 {
			t.Fatalf("packet %d reply never arrived", p.ID)
		}
	}
}

func TestDeterministic(t *testing.T) {
	net := New(5)
	n := net.Nodes()
	perm := prng.New(3).Perm(n)
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = uint64(i)
	}
	a := net.Route(readPackets(n, perm, addrs), Options{Combine: true})
	b := net.Route(readPackets(n, perm, addrs), Options{Combine: true})
	if a != b {
		t.Fatalf("nondeterministic:\n%+v\n%+v", a, b)
	}
}

func TestManyToFewModules(t *testing.T) {
	// All requests to 4 modules with distinct addresses: combining
	// cannot help, streams serialize, but everything still delivers.
	net := New(5)
	n := net.Nodes()
	dsts := make([]int, n)
	addrs := make([]uint64, n)
	for i := range dsts {
		dsts[i] = i % 4
		addrs[i] = uint64(i)
	}
	stats := net.Route(readPackets(n, dsts, addrs), Options{Combine: true})
	if stats.DeliveredRequests != n || stats.DeliveredReplies != n {
		t.Fatalf("stats %+v", stats)
	}
}

func TestPanics(t *testing.T) {
	net := New(3)
	for name, pkts := range map[string][]*packet.Packet{
		"dup ids": {
			packet.New(1, 0, 1, packet.ReadRequest),
			packet.New(1, 1, 2, packet.ReadRequest),
		},
		"bad endpoint": {packet.New(0, 0, 99, packet.ReadRequest)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			net.Route(pkts, Options{})
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("New(0) should panic")
		}
	}()
	New(0)
}

func TestEmptyRoute(t *testing.T) {
	net := New(3)
	stats := net.Route(nil, Options{})
	if stats.DeliveredRequests != 0 {
		t.Fatalf("stats %+v", stats)
	}
}
