package engine

import (
	"testing"

	"pramemu/internal/prng"
	"pramemu/internal/queue"
)

// checkIndex compares ix against the reference map and verifies the
// structural invariants deletion must preserve: the occupied count,
// the load bound, and that every stored key is reachable from its home
// slot without crossing an empty slot.
func checkIndex(t *testing.T, step int, ix *linkIndex, ref map[uint64]queue.Discipline) {
	t.Helper()
	if ix.n != len(ref) {
		t.Fatalf("step %d: index holds %d keys, reference %d", step, ix.n, len(ref))
	}
	if 2*ix.n > len(ix.keys) {
		t.Fatalf("step %d: load %d/%d above one half", step, ix.n, len(ix.keys))
	}
	for k, q := range ref {
		if got := ix.get(k); got != q {
			t.Fatalf("step %d: get(%#x) returned a different queue", step, k)
		}
	}
	mask := len(ix.keys) - 1
	occupied := 0
	for j, q := range ix.qs {
		if q == nil {
			continue
		}
		occupied++
		if ref[ix.keys[j]] != q {
			t.Fatalf("step %d: slot %d holds key %#x the reference lacks", step, j, ix.keys[j])
		}
		for i := ix.home(ix.keys[j]); i != j; i = (i + 1) & mask {
			if ix.qs[i] == nil {
				t.Fatalf("step %d: key %#x in slot %d unreachable from home %d (hole at %d)",
					step, ix.keys[j], j, ix.home(ix.keys[j]), i)
			}
		}
	}
	if occupied != ix.n {
		t.Fatalf("step %d: %d occupied slots, count says %d", step, occupied, ix.n)
	}
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
			ref := make(map[uint64]queue.Discipline)
			slots := len(ix.keys)
			for step := 0; step < 4000; step++ {
				k := sh.key(src, pool)
				switch op := src.Intn(10); {
				case op < 5:
					q := queue.NewFIFO(1)
					ix.put(k, q)
					ref[k] = q
				case op < 8:
					ix.del(k)
					delete(ref, k)
				default:
					if ix.get(k) != ref[k] {
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
				ix.del(k)
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
// slot 0 into the last slots.
func TestLinkIndexWrapAroundDeletes(t *testing.T) {
	ix := newLinkIndex()
	last := len(ix.keys) - 1
	// Three keys homed at the last slot and two at slot 0: the run
	// occupies last, 0, 1, 2, 3, with the slot-0 keys displaced.
	tail := keysHomedAt(&ix, last, 3, 0)
	head := keysHomedAt(&ix, 0, 2, 0)
	ref := make(map[uint64]queue.Discipline)
	for _, k := range append(append([]uint64(nil), tail...), head...) {
		q := queue.NewFIFO(1)
		ix.put(k, q)
		ref[k] = q
	}
	if len(ix.keys) != last+1 {
		t.Fatalf("table grew to %d slots; the test needs the initial size", len(ix.keys))
	}
	checkIndex(t, 0, &ix, ref)
	if ix.qs[last] == nil || ix.qs[3] == nil || ix.qs[4] != nil {
		t.Fatal("probe run does not wrap from the last slot through slot 3")
	}
	for step, k := range []uint64{tail[0], head[0], tail[2], tail[1], head[1]} {
		ix.del(k)
		delete(ref, k)
		checkIndex(t, step+1, &ix, ref)
	}
	// A key homed at slot 0 must now sit in its home slot again.
	k := head[0]
	ix.put(k, queue.NewFIFO(1))
	if ix.qs[0] == nil || ix.keys[0] != k {
		t.Fatal("emptied wrapped run left slot 0 occupied or tombstoned")
	}
}
