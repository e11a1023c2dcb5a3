package engine

import "math/bits"

// linkIndex is the hashed (StateHashed) layout: an open-addressed map
// from 64-bit link key to Link. Slots live in two parallel
// power-of-two slices; an empty Link (n == 0) marks an empty slot, so
// any key, zero included, can be stored. The slot of a key is its
// Fibonacci (multiplicative) hash, collisions probe linearly, the load
// stays at or below one half, and deletion shifts the rest of the
// probe run back instead of leaving tombstones, so a long run of
// inserts and deletes never degrades lookups. The table grows by
// doubling (reserve takes several doublings in one step) and never
// shrinks: once a run reaches its peak live-key count, rounds are
// allocation-free.
type linkIndex struct {
	keys  []uint64
	links []Link
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
	ix.links = make([]Link, slots)
	ix.shift = uint(64 - bits.TrailingZeros(uint(slots)))
}

func (ix *linkIndex) home(key uint64) int { return int((key * fibMul) >> ix.shift) }

// find returns the slot holding key, or the empty slot that ends its
// probe run when key is absent.
func (ix *linkIndex) find(key uint64) int {
	mask := len(ix.keys) - 1
	i := ix.home(key)
	for ix.links[i].n != 0 && ix.keys[i] != key {
		i = (i + 1) & mask
	}
	return i
}

// get returns the Link of key; it is empty when key is absent.
func (ix *linkIndex) get(key uint64) *Link { return &ix.links[ix.find(key)] }

// insert returns the Link of key, claiming a slot for it when key is
// absent. The claimed slot stays empty — and so unoccupied to find —
// until the caller pushes onto it, which it must do before the next
// index operation.
func (ix *linkIndex) insert(key uint64) *Link {
	i := ix.find(key)
	if ix.links[i].n == 0 {
		if 2*(ix.n+1) > len(ix.keys) {
			ix.grow()
			i = ix.find(key)
		}
		ix.keys[i] = key
		ix.n++
	}
	return &ix.links[i]
}

// del removes key after a pop has emptied its Link. find still stops
// at that slot: every slot between it and the key's home is occupied.
// The entries after it in the same probe run move back into the hole
// whenever their home slot does not lie cyclically between the hole
// and their current slot, which keeps every remaining key reachable
// from its home without tombstones.
func (ix *linkIndex) del(key uint64) {
	i := ix.find(key)
	mask := len(ix.keys) - 1
	for j := (i + 1) & mask; ix.links[j].n != 0; j = (j + 1) & mask {
		if (j-ix.home(ix.keys[j]))&mask >= (j-i)&mask {
			ix.keys[i], ix.links[i] = ix.keys[j], ix.links[j]
			i = j
		}
	}
	ix.keys[i], ix.links[i] = 0, Link{}
	ix.n--
}

// reserve makes room for extra more keys under the half-load bound,
// growing the table in one step to the first doubling that fits. The
// push phase reserves for its whole batch of arrivals before inserting
// them, so a run that starts cold or spikes in live links rehashes
// once instead of once per doubling.
func (ix *linkIndex) reserve(extra int) {
	slots := len(ix.keys)
	for 2*(ix.n+extra) > slots {
		slots *= 2
	}
	if slots != len(ix.keys) {
		ix.rehash(slots)
	}
}

// grow doubles the table.
func (ix *linkIndex) grow() { ix.rehash(2 * len(ix.keys)) }

// rehash moves every entry into a new table of slots slots.
func (ix *linkIndex) rehash(slots int) {
	keys, links := ix.keys, ix.links
	ix.resize(slots)
	for i, l := range links {
		if l.n != 0 {
			j := ix.find(keys[i])
			ix.keys[j], ix.links[j] = keys[i], l
		}
	}
}
