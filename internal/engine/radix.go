package engine

// sortArrivals sorts buf ascending by (Key, P.ID) — the canonical
// queue-insertion order of invariant 2 — and returns the sorted slice
// plus the spare buffer, each of which aliases buf or scratch. The
// sort is an LSD radix over the bytes of ID then Key, delta-encoded
// against the per-batch minima so negative IDs and offset key ranges
// cost no extra passes; bytes on which the whole batch agrees are
// skipped. scratch grows only when shorter than buf, so a caller that
// retains both returned slices sorts every subsequent batch of equal
// or smaller size without allocating — unlike sort.Slice, whose
// closure and interface header escape on every call.
//
// The sort is stable: arrivals with fully equal (Key, ID) keep their
// emission order.
func sortArrivals(buf, scratch []Arrival) (sorted, spare []Arrival) {
	n := len(buf)
	if n < 2 {
		return buf, scratch
	}
	if n <= 32 {
		insertionSortArrivals(buf)
		return buf, scratch
	}
	if cap(scratch) < n {
		scratch = make([]Arrival, n)
	}
	scratch = scratch[:n]
	minID, maxID := buf[0].P.ID, buf[0].P.ID
	minKey, maxKey := buf[0].Key, buf[0].Key
	for i := 1; i < n; i++ {
		if id := buf[i].P.ID; id < minID {
			minID = id
		} else if id > maxID {
			maxID = id
		}
		if k := buf[i].Key; k < minKey {
			minKey = k
		} else if k > maxKey {
			maxKey = k
		}
	}
	src, dst := buf, scratch
	// Two's-complement subtraction maps the signed ID range onto an
	// order-preserving unsigned span starting at zero.
	idBase := uint64(minID)
	idSpan := uint64(maxID) - idBase
	for shift := uint(0); idSpan>>shift != 0; shift += 8 {
		if radixPassID(src, dst, shift, idBase) {
			src, dst = dst, src
		}
	}
	keySpan := maxKey - minKey
	for shift := uint(0); keySpan>>shift != 0; shift += 8 {
		if radixPassKey(src, dst, shift, minKey) {
			src, dst = dst, src
		}
	}
	return src, dst
}

// radixPassID performs one stable counting-sort pass on byte
// (ID-base)>>shift, reporting false (nothing moved) when every element
// shares that byte.
func radixPassID(src, dst []Arrival, shift uint, base uint64) bool {
	var count [256]int
	for i := range src {
		count[(uint64(src[i].P.ID)-base)>>shift&0xff]++
	}
	if count[(uint64(src[0].P.ID)-base)>>shift&0xff] == len(src) {
		return false
	}
	var offs [256]int
	pos := 0
	for b := range count {
		offs[b] = pos
		pos += count[b]
	}
	for i := range src {
		b := (uint64(src[i].P.ID) - base) >> shift & 0xff
		dst[offs[b]] = src[i]
		offs[b]++
	}
	return true
}

// radixPassKey is radixPassID over the Key bytes.
func radixPassKey(src, dst []Arrival, shift uint, base uint64) bool {
	var count [256]int
	for i := range src {
		count[(src[i].Key-base)>>shift&0xff]++
	}
	if count[(src[0].Key-base)>>shift&0xff] == len(src) {
		return false
	}
	var offs [256]int
	pos := 0
	for b := range count {
		offs[b] = pos
		pos += count[b]
	}
	for i := range src {
		b := (src[i].Key - base) >> shift & 0xff
		dst[offs[b]] = src[i]
		offs[b]++
	}
	return true
}

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
