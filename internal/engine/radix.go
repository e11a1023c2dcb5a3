package engine

import (
	"cmp"
	"slices"
)

// smallSort is the length at or below which a batch, or a run of
// equal keys, is insertion-sorted: below it a radix pass, or the
// stable sort of a long run, costs more than the comparisons it saves.
const smallSort = 32

// sortArrivals sorts buf ascending by (Key, P.ID) — the canonical
// queue-insertion order of invariant 2 — and returns the sorted slice
// plus the spare buffer, each of which aliases buf or scratch. The
// sort is an LSD radix on the key alone: one scan XORs every key
// against the first to find the bytes on which the batch varies, one
// scan builds the histograms of all of them, and only those bytes get
// a scatter pass. The ID order is then restored inside each run of
// equal keys, so packet IDs are read only where keys tie. scratch
// grows only when shorter than buf, so a caller that retains both
// returned slices sorts every subsequent batch of equal or smaller
// size without allocating — unlike sort.Slice, whose closure and
// interface header escape on every call.
//
// The sort is stable: arrivals with fully equal (Key, ID) keep their
// emission order.
func sortArrivals(buf, scratch []Arrival) (sorted, spare []Arrival) {
	n := len(buf)
	if n < 2 {
		return buf, scratch
	}
	if n <= smallSort {
		insertionSortArrivals(buf)
		return buf, scratch
	}
	if cap(scratch) < n {
		scratch = make([]Arrival, n)
	}
	scratch = scratch[:n]
	first := buf[0].Key
	var diff uint64
	for i := 1; i < n; i++ {
		diff |= buf[i].Key ^ first
	}
	var shifts [8]uint
	nb := 0
	for s := uint(0); s < 64; s += 8 {
		if diff>>s&0xff != 0 {
			shifts[nb] = s
			nb++
		}
	}
	src, dst := buf, scratch
	if nb > 0 {
		// A histogram does not depend on element order, so one scan
		// counts every varying byte before the first scatter.
		var count [8][256]int
		for i := range src {
			k := src[i].Key
			for j, s := range shifts[:nb] {
				count[j][k>>s&0xff]++
			}
		}
		for j, s := range shifts[:nb] {
			offs := &count[j]
			pos := 0
			for b, c := range offs {
				offs[b] = pos
				pos += c
			}
			for i := range src {
				b := src[i].Key >> s & 0xff
				dst[offs[b]] = src[i]
				offs[b]++
			}
			src, dst = dst, src
		}
	}
	sortRunsByID(src, byID)
	return src, dst
}

// sortRunsByID stably orders every run of equal keys in a by packet
// ID, comparing IDs with cmpID: runs up to smallSort long by
// insertion, longer ones by slices.SortStableFunc, which is in-place,
// allocation-free and O(r log r) in comparisons. A run is bounded by
// the in-degree of the link's tail node plus its injections: bench
// traffic ties on 1-19 % of its arrivals, in runs of at most 7, so
// the long path only keeps unusual batches (say, one Step injecting a
// long relation onto one link) from going quadratic. The scan looks
// for a tie with the previous key, the rare case, before finding the
// run.
func sortRunsByID(a []Arrival, cmpID func(x, y Arrival) int) {
	for i := 1; i < len(a); i++ {
		if a[i].Key != a[i-1].Key {
			continue
		}
		lo, hi := i-1, i+1
		for hi < len(a) && a[hi].Key == a[lo].Key {
			hi++
		}
		if hi-lo <= smallSort {
			insertionSortArrivals(a[lo:hi])
		} else {
			slices.SortStableFunc(a[lo:hi], cmpID)
		}
		i = hi
	}
}

// byID compares two arrivals by packet ID.
func byID(x, y Arrival) int { return cmp.Compare(x.P.ID, y.P.ID) }

// insertionSortArrivals is the small-batch path: stable, in-place and
// branch-cheap below the radix pass break-even point.
func insertionSortArrivals(a []Arrival) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && (a[j].Key > x.Key || (a[j].Key == x.Key && a[j].P.ID > x.P.ID)) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}
