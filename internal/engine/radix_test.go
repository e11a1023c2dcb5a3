package engine

import (
	"sort"
	"testing"

	"pramemu/internal/packet"
	"pramemu/internal/prng"
)

// refSort is the specification sortArrivals must match: a stable
// comparison sort on (Key, ID).
func refSort(a []Arrival) {
	sort.SliceStable(a, func(i, j int) bool {
		if a[i].Key != a[j].Key {
			return a[i].Key < a[j].Key
		}
		return a[i].P.ID < a[j].P.ID
	})
}

// randomArrivals draws n arrivals whose keys collide heavily (keyed
// modulo keyRange) and whose IDs repeat (modulo idRange), so duplicate
// keys, duplicate (key, ID) pairs and stability are all exercised.
func randomArrivals(n int, keyRange uint64, idRange int, negIDs bool, seed uint64) []Arrival {
	src := prng.New(seed)
	out := make([]Arrival, n)
	for i := range out {
		id := src.Intn(idRange)
		if negIDs && src.Intn(2) == 0 {
			id = -id
		}
		out[i] = Arrival{
			Key: src.Uint64n(keyRange),
			P:   packet.New(id, i, i, packet.Transit),
		}
	}
	return out
}

// TestSortArrivalsMatchesReference is the property test of the radix
// push phase: on random (key, ID) sets — including duplicate keys,
// fully duplicate pairs and negative IDs — sortArrivals must agree
// with the stable comparison sort element for element, down to packet
// identity (which pins stability, since equal pairs are then only
// distinguishable by emission order).
func TestSortArrivalsMatchesReference(t *testing.T) {
	cases := []struct {
		n        int
		keyRange uint64
		idRange  int
		negIDs   bool
	}{
		{0, 1, 1, false},
		{1, 1, 1, false},
		{2, 2, 2, false},
		{31, 4, 4, false},     // insertion-sort path, heavy duplicates
		{33, 4, 4, false},     // smallest radix path
		{100, 1, 1000, false}, // single key: pure ID sort
		{100, 1000, 1, false}, // single ID: pure key sort
		{500, 8, 8, false},    // many fully duplicate (key, ID) pairs
		{500, 1 << 40, 1 << 20, false},
		{500, 1 << 62, 1 << 30, true}, // wide keys, negative IDs
		{4096, 1 << 16, 1 << 16, true},
	}
	for ci, c := range cases {
		for trial := uint64(0); trial < 3; trial++ {
			in := randomArrivals(c.n, c.keyRange, c.idRange, c.negIDs, 1991+trial*7+uint64(ci))
			want := append([]Arrival(nil), in...)
			refSort(want)
			var scratch []Arrival
			got, _ := sortArrivals(in, scratch)
			if len(got) != len(want) {
				t.Fatalf("case %d trial %d: length %d != %d", ci, trial, len(got), len(want))
			}
			for i := range want {
				if got[i].Key != want[i].Key || got[i].P != want[i].P {
					t.Fatalf("case %d trial %d: element %d = (key %d, id %d, %p), want (key %d, id %d, %p)",
						ci, trial, i, got[i].Key, got[i].P.ID, got[i].P,
						want[i].Key, want[i].P.ID, want[i].P)
				}
			}
		}
	}
}

// TestSortArrivalsReusesScratch pins the allocation contract: once the
// scratch buffer has grown to the batch size, re-sorting batches of
// equal or smaller size allocates nothing.
func TestSortArrivalsReusesScratch(t *testing.T) {
	batch := randomArrivals(1024, 1<<20, 1<<20, false, 3)
	buf := make([]Arrival, len(batch))
	var scratch []Arrival
	copy(buf, batch)
	buf, scratch = sortArrivals(buf, scratch)
	if allocs := testing.AllocsPerRun(10, func() {
		copy(buf[:cap(buf)][:len(batch)], batch)
		buf, scratch = sortArrivals(buf[:cap(buf)][:len(batch)], scratch)
	}); allocs != 0 {
		t.Fatalf("warm sortArrivals allocated %.1f objects, want 0", allocs)
	}
}

func BenchmarkSortArrivals(b *testing.B) {
	batch := randomArrivals(8192, 1<<20, 1<<20, false, 9)
	buf := make([]Arrival, len(batch))
	scratch := make([]Arrival, len(batch))
	b.Run("radix", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(buf[:len(batch)], batch)
			buf, scratch = sortArrivals(buf[:cap(buf)][:len(batch)], scratch)
		}
	})
	b.Run("sort.Slice", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(buf[:len(batch)], batch)
			s := buf[:len(batch)]
			sort.Slice(s, func(i, j int) bool {
				if s[i].Key != s[j].Key {
					return s[i].Key < s[j].Key
				}
				return s[i].P.ID < s[j].P.ID
			})
		}
	})
}
