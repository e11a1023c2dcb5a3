package engine

import (
	"sort"
	"testing"

	"pramemu/internal/packet"
	"pramemu/internal/prng"
)

// chain returns the link's packets in Each order, checking that Len
// agrees and that Each stops when asked.
func chain(t *testing.T, l *Link) []*packet.Packet {
	t.Helper()
	var out []*packet.Packet
	l.Each(func(p *packet.Packet) bool {
		out = append(out, p)
		return true
	})
	if len(out) != l.Len() {
		t.Fatalf("Each visited %d packets, Len says %d", len(out), l.Len())
	}
	if l.Len() > 1 {
		visited := 0
		l.Each(func(*packet.Packet) bool {
			visited++
			return false
		})
		if visited != 1 {
			t.Fatalf("Each visited %d packets after f returned false", visited)
		}
	}
	return out
}

func sameOrder(t *testing.T, what string, got, want []*packet.Packet) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d packets, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: position %d holds packet %d, want %d", what, i, got[i].ID, want[i].ID)
		}
	}
}

func pushAll(l *Link, less func(a, b *packet.Packet) bool, ids ...int) []*packet.Packet {
	pkts := make([]*packet.Packet, len(ids))
	for i, id := range ids {
		pkts[i] = packet.New(id, 0, 0, packet.Transit)
		l.push(pkts[i], less)
	}
	return pkts
}

// drain pops every queued packet, checks each leaves unchained, and
// checks the link ends as the zero Link.
func drain(t *testing.T, l *Link) []*packet.Packet {
	t.Helper()
	var out []*packet.Packet
	for l.Len() > 0 {
		p := l.pop()
		if p.Next != nil {
			t.Fatalf("popped packet %d still chained", p.ID)
		}
		out = append(out, p)
	}
	if *l != (Link{}) {
		t.Fatalf("drained link is %+v, want the zero Link", *l)
	}
	return out
}

// TestLinkFIFOOrder: a nil-comparator Link pops in push order.
func TestLinkFIFOOrder(t *testing.T) {
	var l Link
	pkts := pushAll(&l, nil, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	sameOrder(t, "pops", drain(t, &l), pkts)
}

// TestLinkFIFOZeroValue: the zero Link is an empty, usable queue.
func TestLinkFIFOZeroValue(t *testing.T) {
	var l Link
	if l.Len() != 0 || len(chain(t, &l)) != 0 {
		t.Fatalf("zero Link holds %d packets", l.Len())
	}
	pkts := pushAll(&l, nil, 1)
	if pkts[0].Next != pkts[0] {
		t.Fatal("a lone queued packet must chain to itself")
	}
	sameOrder(t, "pops", drain(t, &l), pkts)
}

// TestLinkFIFOInterleaved interleaves pushes and pops on a
// nil-comparator Link against a slice: pops come out in push order and
// every popped packet leaves unchained.
func TestLinkFIFOInterleaved(t *testing.T) {
	src := prng.New(11)
	var l Link
	var ref []*packet.Packet
	next := 0
	for step := 0; step < 2000; step++ {
		if len(ref) == 0 || src.Intn(3) > 0 {
			ref = append(ref, pushAll(&l, nil, next)...)
			next++
		} else {
			p := l.pop()
			if p != ref[0] {
				t.Fatalf("step %d: popped packet %d, want %d", step, p.ID, ref[0].ID)
			}
			if p.Next != nil {
				t.Fatalf("step %d: popped packet %d still chained", step, p.ID)
			}
			ref = ref[1:]
		}
		if l.Len() != len(ref) {
			t.Fatalf("step %d: Len %d, want %d", step, l.Len(), len(ref))
		}
	}
	sameOrder(t, "drain", drain(t, &l), ref)
}

// TestLinkFIFOEach: Each walks a FIFO Link head to tail after every
// push and pop, and stops when f returns false.
func TestLinkFIFOEach(t *testing.T) {
	src := prng.New(12)
	var l Link
	var ref []*packet.Packet
	next := 0
	for step := 0; step < 500; step++ {
		if len(ref) == 0 || src.Intn(3) > 0 {
			ref = append(ref, pushAll(&l, nil, next)...)
			next++
		} else {
			l.pop()
			ref = ref[1:]
		}
		sameOrder(t, "Each", chain(t, &l), ref)
	}
}

// furthestFirst is the mesh's comparator: larger remaining distance
// first, ties broken by packet ID.
func furthestFirst(a, b *packet.Packet) bool {
	if a.Hops != b.Hops {
		return a.Hops > b.Hops
	}
	return a.ID < b.ID
}

// sortedTrials fills a Link from random packets under furthestFirst,
// 300 times, and hands check the link and the sort.Slice order of its
// packets. Distances come from a small range, so most comparisons are
// ID ties.
func sortedTrials(t *testing.T, check func(trial int, l *Link, want []*packet.Packet)) {
	src := prng.New(5)
	for trial := 0; trial < 300; trial++ {
		n := src.Intn(65)
		pkts := make([]*packet.Packet, n)
		for i, id := range src.Perm(n) {
			pkts[i] = packet.New(id, 0, 0, packet.Transit)
			pkts[i].Hops = src.Intn(4)
		}
		var l Link
		for _, p := range pkts {
			l.push(p, furthestFirst)
		}
		want := append([]*packet.Packet(nil), pkts...)
		sort.Slice(want, func(i, j int) bool { return furthestFirst(want[i], want[j]) })
		check(trial, &l, want)
	}
}

// TestLinkSortedOrdering: a Link kept sorted by packet ID pops in
// ascending ID order whatever the push order.
func TestLinkSortedOrdering(t *testing.T) {
	byID := func(a, b *packet.Packet) bool { return a.ID < b.ID }
	var l Link
	pushAll(&l, byID, 5, 3, 8, 1, 9, 2, 7)
	prev := -1
	for _, p := range drain(t, &l) {
		if p.ID <= prev {
			t.Fatalf("sorted pop out of order: %d after %d", p.ID, prev)
		}
		prev = p.ID
	}
}

// TestLinkSortedMatchesSort: a Link kept sorted by furthestFirst pops
// in exactly the order sort.Slice gives under the same comparator, the
// order the heap it replaced popped in.
func TestLinkSortedMatchesSort(t *testing.T) {
	sortedTrials(t, func(trial int, l *Link, want []*packet.Packet) {
		for i, w := range want {
			if p := l.pop(); p != w {
				t.Fatalf("trial %d: pop %d gave packet %d, want %d", trial, i, p.ID, w.ID)
			}
		}
		if *l != (Link{}) {
			t.Fatalf("trial %d: drained link is %+v, want the zero Link", trial, *l)
		}
	})
}

// TestLinkSortedEach: Each walks a sorted Link in pop order.
func TestLinkSortedEach(t *testing.T) {
	sortedTrials(t, func(_ int, l *Link, want []*packet.Packet) {
		sameOrder(t, "Each", chain(t, l), want)
	})
}
