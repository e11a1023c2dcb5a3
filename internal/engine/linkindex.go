package engine

import (
	"math/bits"

	"pramemu/internal/queue"
)

// linkIndex is the hashed (StateHashed) layout: an open-addressed map
// from 64-bit link key to queue. Slots live in two parallel
// power-of-two slices; a nil queue marks an empty slot, so any key,
// zero included, can be stored. The slot of a key is its Fibonacci
// (multiplicative) hash, collisions probe linearly, the load stays at
// or below one half, and deletion shifts the rest of the probe run
// back instead of leaving tombstones, so a long run of inserts and
// deletes never degrades lookups. The table grows by doubling and
// never shrinks: once a run reaches its peak live-key count, rounds
// are allocation-free.
type linkIndex struct {
	keys  []uint64
	qs    []queue.Discipline
	n     int  // occupied slots
	shift uint // 64 - log2(len(keys)): the slot is the product's top bits
}

// linkIndexMinSlots is the initial table size.
const linkIndexMinSlots = 16

// fibMul is 2^64 divided by the golden ratio, rounded to odd: the
// multiplier of Fibonacci hashing, which spreads structured keys such
// as from<<32|to over the product's top bits.
const fibMul = 0x9e3779b97f4a7c15

func newLinkIndex() linkIndex {
	var ix linkIndex
	ix.resize(linkIndexMinSlots)
	return ix
}

func (ix *linkIndex) resize(slots int) {
	ix.keys = make([]uint64, slots)
	ix.qs = make([]queue.Discipline, slots)
	ix.shift = uint(64 - bits.TrailingZeros(uint(slots)))
}

func (ix *linkIndex) home(key uint64) int { return int((key * fibMul) >> ix.shift) }

// find returns the slot holding key, or the empty slot that ends its
// probe run when key is absent.
func (ix *linkIndex) find(key uint64) int {
	mask := len(ix.keys) - 1
	i := ix.home(key)
	for ix.qs[i] != nil && ix.keys[i] != key {
		i = (i + 1) & mask
	}
	return i
}

// get returns the queue of key, or nil when key is absent.
func (ix *linkIndex) get(key uint64) queue.Discipline { return ix.qs[ix.find(key)] }

// put stores q (non-nil) as the queue of key.
func (ix *linkIndex) put(key uint64, q queue.Discipline) {
	i := ix.find(key)
	if ix.qs[i] == nil {
		if 2*(ix.n+1) > len(ix.keys) {
			ix.grow()
			i = ix.find(key)
		}
		ix.keys[i] = key
		ix.n++
	}
	ix.qs[i] = q
}

// del removes key, if present. The entries after it in the same probe
// run move back into the hole whenever their home slot does not lie
// cyclically between the hole and their current slot, which keeps
// every remaining key reachable from its home without tombstones.
func (ix *linkIndex) del(key uint64) {
	i := ix.find(key)
	if ix.qs[i] == nil {
		return
	}
	mask := len(ix.keys) - 1
	for j := (i + 1) & mask; ix.qs[j] != nil; j = (j + 1) & mask {
		if (j-ix.home(ix.keys[j]))&mask >= (j-i)&mask {
			ix.keys[i], ix.qs[i] = ix.keys[j], ix.qs[j]
			i = j
		}
	}
	ix.keys[i], ix.qs[i] = 0, nil
	ix.n--
}

// grow doubles the table and reinserts every entry.
func (ix *linkIndex) grow() {
	keys, qs := ix.keys, ix.qs
	ix.resize(2 * len(keys))
	for i, q := range qs {
		if q != nil {
			j := ix.find(keys[i])
			ix.keys[j], ix.qs[j] = keys[i], q
		}
	}
}
