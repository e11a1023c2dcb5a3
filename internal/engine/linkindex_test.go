package engine

import (
	"testing"

	"pramemu/internal/prng"
)

// checkIndex compares ix against the reference map and verifies the
// structural invariants deletion must preserve: the occupied count,
// the load bound, and that every stored key is reachable from its home
// slot without crossing an empty slot.
func checkIndex(t *testing.T, step int, ix *linkIndex, ref map[uint64]Link) {
	t.Helper()
	if ix.n != len(ref) {
		t.Fatalf("step %d: index holds %d keys, reference %d", step, ix.n, len(ref))
	}
	if 2*ix.n > len(ix.keys) {
		t.Fatalf("step %d: load %d/%d above one half", step, ix.n, len(ix.keys))
	}
	for k, l := range ref {
		if got := *ix.get(k); got != l {
			t.Fatalf("step %d: get(%#x) = %+v, want %+v", step, k, got, l)
		}
	}
	mask := len(ix.keys) - 1
	occupied := 0
	for j, l := range ix.links {
		if l.n == 0 {
			if l != (Link{}) || ix.keys[j] != 0 {
				t.Fatalf("step %d: empty slot %d is not zero", step, j)
			}
			continue
		}
		occupied++
		if ref[ix.keys[j]] != l {
			t.Fatalf("step %d: slot %d holds key %#x the reference lacks", step, j, ix.keys[j])
		}
		for i := ix.home(ix.keys[j]); i != j; i = (i + 1) & mask {
			if ix.links[i].n == 0 {
				t.Fatalf("step %d: key %#x in slot %d unreachable from home %d (hole at %d)",
					step, ix.keys[j], j, ix.home(ix.keys[j]), i)
			}
		}
	}
	if occupied != ix.n {
		t.Fatalf("step %d: %d occupied slots, count says %d", step, occupied, ix.n)
	}
}

// put stores l (non-empty) as key's Link, as a push onto a claimed
// slot does.
func (ix *linkIndex) put(key uint64, l Link) { *ix.insert(key) = l }

// remove empties key's Link and then deletes it, the order the drain
// uses: del runs on a slot a pop has already emptied.
func (ix *linkIndex) remove(key uint64) {
	*ix.get(key) = Link{}
	ix.del(key)
}

// TestLinkIndexMatchesMap drives the index and a map through the same
// random put/get/delete sequences over the key shapes the engine
// stores: packed (from, to) pairs, leveled's high-bit reply keys,
// dense small keys and keys scattered over all 64 bits. Small key
// pools force repeated deletes and reinserts into the same probe
// runs; the largest pool crosses several doublings mid-sequence.
func TestLinkIndexMatchesMap(t *testing.T) {
	shapes := []struct {
		name string
		key  func(src *prng.Source, pool int) uint64
	}{
		{"pair", func(src *prng.Source, pool int) uint64 {
			return uint64(src.Intn(pool))<<32 | uint64(src.Intn(pool))
		}},
		{"reply", func(src *prng.Source, pool int) uint64 {
			return 1<<63 | uint64(src.Intn(pool))<<32 | uint64(src.Intn(pool))
		}},
		{"dense", func(src *prng.Source, pool int) uint64 {
			return uint64(src.Intn(pool * pool))
		}},
		{"scattered", func(src *prng.Source, pool int) uint64 {
			return src.Uint64() % uint64(pool*pool) * 0x9e3779b97f4a7c15
		}},
	}
	for _, sh := range shapes {
		for _, pool := range []int{3, 8, 40} {
			src := prng.New(uint64(pool))
			ix := newLinkIndex()
			ref := make(map[uint64]Link)
			slots := len(ix.keys)
			for step := 0; step < 4000; step++ {
				k := sh.key(src, pool)
				switch op := src.Intn(10); {
				case op < 5:
					l := Link{n: step + 1}
					ix.put(k, l)
					ref[k] = l
				case op < 8:
					if _, ok := ref[k]; ok {
						ix.remove(k)
						delete(ref, k)
					}
				default:
					if *ix.get(k) != ref[k] {
						t.Fatalf("%s/%d step %d: get(%#x) disagrees with the map", sh.name, pool, step, k)
					}
				}
				checkIndex(t, step, &ix, ref)
				slots = max(slots, len(ix.keys))
			}
			if pool == 40 && slots <= linkIndexMinSlots {
				t.Fatalf("%s/%d: table never grew past %d slots", sh.name, pool, slots)
			}
			for k := range ref {
				ix.remove(k)
				delete(ref, k)
			}
			checkIndex(t, -1, &ix, ref)
		}
	}
}

// keysHomedAt returns n distinct keys whose home slot in ix is slot.
func keysHomedAt(ix *linkIndex, slot, n int, from uint64) []uint64 {
	var out []uint64
	for k := from; len(out) < n; k++ {
		if ix.home(k) == slot {
			out = append(out, k)
		}
	}
	return out
}

// TestLinkIndexWrapAroundDeletes builds a probe run that starts in the
// last slots and wraps past the table end, then deletes from its head
// so the backward shift moves entries across the boundary, back from
// slot 0 into the last slots. Every delete runs on an already-emptied
// slot, as in the drain.
func TestLinkIndexWrapAroundDeletes(t *testing.T) {
	ix := newLinkIndex()
	last := len(ix.keys) - 1
	// Three keys homed at the last slot and two at slot 0: the run
	// occupies last, 0, 1, 2, 3, with the slot-0 keys displaced.
	tail := keysHomedAt(&ix, last, 3, 0)
	head := keysHomedAt(&ix, 0, 2, 0)
	ref := make(map[uint64]Link)
	for i, k := range append(append([]uint64(nil), tail...), head...) {
		l := Link{n: i + 1}
		ix.put(k, l)
		ref[k] = l
	}
	if len(ix.keys) != last+1 {
		t.Fatalf("table grew to %d slots; the test needs the initial size", len(ix.keys))
	}
	checkIndex(t, 0, &ix, ref)
	if ix.links[last].n == 0 || ix.links[3].n == 0 || ix.links[4].n != 0 {
		t.Fatal("probe run does not wrap from the last slot through slot 3")
	}
	// The first delete empties the last slot in place, so the shift
	// pulls the displaced slot-0 key back across the table end into it.
	ix.links[last] = Link{}
	ix.del(tail[0])
	delete(ref, tail[0])
	checkIndex(t, 1, &ix, ref)
	if ix.keys[last] != tail[1] {
		t.Fatalf("last slot holds %#x after the wrapped shift, want %#x", ix.keys[last], tail[1])
	}
	for step, k := range []uint64{head[0], tail[2], tail[1], head[1]} {
		ix.remove(k)
		delete(ref, k)
		checkIndex(t, step+2, &ix, ref)
	}
	// A key homed at slot 0 must now sit in its home slot again.
	k := head[0]
	ix.put(k, Link{n: 9})
	if ix.links[0].n == 0 || ix.keys[0] != k {
		t.Fatal("emptied wrapped run left slot 0 occupied or tombstoned")
	}
}

// TestLinkIndexReserve checks that reserve sizes the table in one step
// for a batch on top of the live keys: the batch then inserts without
// growing, every key stays reachable, and a reserve that already fits
// leaves the table alone.
func TestLinkIndexReserve(t *testing.T) {
	ix := newLinkIndex()
	ref := make(map[uint64]Link)
	for k := uint64(0); k < 5; k++ {
		ix.put(k*7919, Link{n: 1})
		ref[k*7919] = Link{n: 1}
	}
	ix.reserve(1000)
	slots := len(ix.keys)
	if slots != 2048 {
		t.Fatalf("reserve(1000) over 5 keys sized %d slots, want 2048", slots)
	}
	checkIndex(t, 0, &ix, ref)
	for k := uint64(5); k < 1005; k++ {
		ix.put(k*7919, Link{n: int(k)})
		ref[k*7919] = Link{n: int(k)}
	}
	if len(ix.keys) != slots {
		t.Fatalf("inserting the reserved batch grew the table to %d slots", len(ix.keys))
	}
	checkIndex(t, 1, &ix, ref)
	ix.reserve(19)
	if len(ix.keys) != slots {
		t.Fatalf("a reserve that fits resized the table to %d slots", len(ix.keys))
	}
}
