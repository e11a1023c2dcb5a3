package twophase

import (
	"testing"

	"pramemu/internal/engine"
)

// TestPairKeyRoundTrip checks the two encodings the routers use: the
// point-to-point router's from<<32 | to and the leveled router's
// reverse-bit product keyed by level.
func TestPairKeyRoundTrip(t *testing.T) {
	direct := PairKey{Width: 1 << 32}
	if got := direct.Key(5, 7, 9); got != 7<<32|9 {
		t.Fatalf("direct key %#x, want %#x", got, uint64(7<<32|9))
	}
	const w = 128
	rev := PairKey{Base: 1 << 63, LevelStride: w, Width: w}
	for _, c := range [][3]int{{0, 0, 0}, {3, 17, 100}, {12, w - 1, w - 1}} {
		for _, k := range []PairKey{direct, rev} {
			key := k.Key(c[0], c[1], c[2])
			if k.From(key) != c[1] || k.To(key) != c[2] {
				t.Fatalf("%+v: key %#x decodes to (%d, %d), want (%d, %d)",
					k, key, k.From(key), k.To(key), c[1], c[2])
			}
		}
	}
	if rev.Key(0, 0, 0) < 1<<63 {
		t.Fatal("reverse keys must sort after every forward key (all below 2^63)")
	}
	if rev.Key(1, 0, 0) <= rev.Key(0, w-1, w-1) {
		t.Fatal("reverse keys must order by level first")
	}
}

// TestEngineCopiesEvent checks that a router filling its node hooks
// never writes through to the caller's EventOptions.
func TestEngineCopiesEvent(t *testing.T) {
	ev := &engine.EventOptions{Base: 1}
	eo := Options{Seed: 9, MemBudget: 64, Event: ev}.Engine(42)
	if eo.Event == ev || eo.MaxKey != 42 || eo.Seed != 9 || eo.MemBudget != 64 {
		t.Fatalf("unexpected engine options %+v", eo)
	}
	eo.Event.Nodes = 3
	if ev.Nodes != 0 {
		t.Fatal("Engine shared the caller's EventOptions")
	}
}
