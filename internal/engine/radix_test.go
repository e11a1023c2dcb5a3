package engine

import (
	"math"
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
	return drawArrivals(n, idRange, negIDs, seed, func(src *prng.Source) uint64 {
		return src.Uint64n(keyRange)
	})
}

// drawArrivals is randomArrivals with the key distribution supplied.
func drawArrivals(n, idRange int, negIDs bool, seed uint64, key func(*prng.Source) uint64) []Arrival {
	src := prng.New(seed)
	out := make([]Arrival, n)
	for i := range out {
		id := src.Intn(idRange)
		if negIDs && src.Intn(2) == 0 {
			id = -id
		}
		out[i] = Arrival{
			Key: key(src),
			P:   packet.New(id, i, i, packet.Transit),
		}
	}
	return out
}

// replyStyleKey mixes forward link keys below 2^20 with reply keys
// 1<<63 | pair (pair below 2^36), as a batch carrying both directions
// of a read does: the key varies in its low and top bytes only.
func replyStyleKey(src *prng.Source) uint64 {
	if src.Intn(2) == 0 {
		return src.Uint64n(1 << 20)
	}
	return 1<<63 | src.Uint64n(1<<36)
}

// middleByteKey varies a fixed key in its fourth byte only.
func middleByteKey(src *prng.Source) uint64 {
	return 0x0102030005060708 | src.Uint64n(16)<<24
}

// TestSortArrivalsMatchesReference is the property test of the radix
// push phase: on random (key, ID) sets — including duplicate keys,
// fully duplicate pairs and negative IDs — sortArrivals must agree
// with the stable comparison sort element for element, down to packet
// identity (which pins stability, since equal pairs are then only
// distinguishable by emission order).
func TestSortArrivalsMatchesReference(t *testing.T) {
	uniform := func(keyRange uint64) func(*prng.Source) uint64 {
		return func(src *prng.Source) uint64 { return src.Uint64n(keyRange) }
	}
	cases := []struct {
		n       int
		key     func(*prng.Source) uint64
		idRange int
		negIDs  bool
	}{
		{0, uniform(1), 1, false},
		{1, uniform(1), 1, false},
		{2, uniform(2), 2, false},
		{31, uniform(4), 4, false},     // insertion-sort path, heavy duplicates
		{33, uniform(4), 4, false},     // smallest radix path
		{100, uniform(1), 1000, false}, // single key: pure ID sort
		{100, uniform(1000), 1, false}, // single ID: pure key sort
		{500, uniform(8), 8, false},    // many fully duplicate (key, ID) pairs
		{500, uniform(1 << 40), 1 << 20, false},
		{500, uniform(1 << 62), 1 << 30, true}, // wide keys, negative IDs
		{4096, uniform(1 << 16), 1 << 16, true},
		{4096, uniform(16), 1 << 20, true}, // long equal-key runs: the stable-sort path
		// One key, 50 000 arrivals, shuffled IDs with duplicates and
		// negatives: a single long run, which must sort in O(n log n).
		{50000, uniform(1), 20000, true},
		{2000, replyStyleKey, 1 << 20, false}, // forward and reply keys mixed
		{2000, middleByteKey, 1 << 10, true},  // one varying middle byte
	}
	for ci, c := range cases {
		for trial := uint64(0); trial < 3; trial++ {
			in := drawArrivals(c.n, c.idRange, c.negIDs, 1991+trial*7+uint64(ci), c.key)
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

// TestSortArrivalsLongRunIsNotQuadratic counts the ID comparisons
// sortRunsByID makes on a single-key batch of 50 000 arrivals whose
// IDs descend, an insertion sort's worst case. An O(n log n) run sort
// stays within 2 n log2 n of them (about 1.6M); an insertion sort over
// the whole run would make n²/2 (1.25G). The count is deterministic,
// so the bound does not depend on the host's speed.
func TestSortArrivalsLongRunIsNotQuadratic(t *testing.T) {
	const n = 50000
	a := randomArrivals(n, 1, 1, false, 5)
	for i := range a {
		a[i].P.ID = -i
	}
	calls := 0
	sortRunsByID(a, func(x, y Arrival) int {
		calls++
		return byID(x, y)
	})
	for i := range a {
		if a[i].P.ID != i-(n-1) {
			t.Fatalf("element %d has ID %d, want %d", i, a[i].P.ID, i-(n-1))
		}
	}
	if limit := int(2 * n * math.Log2(n)); calls == 0 || calls > limit {
		t.Fatalf("sorting one key's run of %d made %d ID comparisons, want 1..%d (O(n log n))", n, calls, limit)
	}
}

// sortBatches are the batch shapes the scratch test and the benchmark
// share. narrow is route-mode traffic with keys below 2^20; wide mixes
// forward and reply keys, as an emulated read's batch does; ties has
// keys drawn from 5n values, so about 17 % of arrivals share a key in
// runs of 2-4, the most tied traffic measured on the bench workloads
// (khot cells in route mode); onekey is one run of n, a shape no bench
// workload produces, which takes the long-run stable sort.
func sortBatches(n int, seed uint64) []struct {
	name  string
	batch []Arrival
} {
	return []struct {
		name  string
		batch []Arrival
	}{
		{"narrow", randomArrivals(n, 1<<20, 1<<20, false, seed)},
		{"wide", drawArrivals(n, 1<<20, false, seed, replyStyleKey)},
		{"ties", randomArrivals(n, uint64(5*n), 1<<20, false, seed)},
		{"onekey", randomArrivals(n, 1, 1<<20, false, seed)},
	}
}

// TestSortArrivalsReusesScratch pins the allocation contract: once the
// scratch buffer has grown to the batch size, re-sorting batches of
// equal or smaller size allocates nothing, whichever passes and run
// sorts the batch needs.
func TestSortArrivalsReusesScratch(t *testing.T) {
	for _, c := range sortBatches(4096, 3) {
		buf := make([]Arrival, len(c.batch))
		var scratch []Arrival
		copy(buf, c.batch)
		buf, scratch = sortArrivals(buf, scratch)
		if allocs := testing.AllocsPerRun(10, func() {
			copy(buf[:cap(buf)][:len(c.batch)], c.batch)
			buf, scratch = sortArrivals(buf[:cap(buf)][:len(c.batch)], scratch)
		}); allocs != 0 {
			t.Fatalf("%s: warm sortArrivals allocated %.1f objects, want 0", c.name, allocs)
		}
	}
}

func BenchmarkSortArrivals(b *testing.B) {
	for _, c := range sortBatches(8192, 9) {
		batch := c.batch
		buf := make([]Arrival, len(batch))
		scratch := make([]Arrival, len(batch))
		b.Run(c.name+"/radix", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(buf[:len(batch)], batch)
				buf, scratch = sortArrivals(buf[:cap(buf)][:len(batch)], scratch)
			}
		})
		b.Run(c.name+"/sort.Slice", func(b *testing.B) {
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
}
