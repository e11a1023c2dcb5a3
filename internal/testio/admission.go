package testio

import (
	"fmt"
	"testing"

	"pramemu/internal/packet"
)

// AdmissionCase is one injection that a router's admission check
// (packet.Admission) must refuse, with the exact panic message.
type AdmissionCase struct {
	Name string
	Pkts []*packet.Packet
	Want string
}

// AdmissionCases returns the refused injections for a router that
// prefixes its panics with name and has nodes nodes (at least 4). The
// admission checks IDs 0..64*ceil(n/64)-1 against a bitset and every
// other ID against a fallback map, so the cases straddle that edge: a
// duplicate in the bitset, a duplicate negative ID, a duplicate far
// above the packet count, a duplicate just past the bitset behind IDs
// the bitset took, and endpoints out of range under a huge ID.
func AdmissionCases(name string, nodes int) []AdmissionCase {
	const huge = 1 << 40
	pk := func(id, src, dst int) *packet.Packet { return packet.New(id, src, dst, packet.Transit) }
	dup := func(id int) string { return fmt.Sprintf("%s: duplicate packet ID %d", name, id) }
	out := func(id int) string { return fmt.Sprintf("%s: packet %d endpoints out of range", name, id) }
	return []AdmissionCase{
		{"duplicate ids", []*packet.Packet{pk(1, 0, 1), pk(1, 2, 3)}, dup(1)},
		{"duplicate at the bitset's last bit", []*packet.Packet{pk(63, 0, 1), pk(63, 2, 3)}, dup(63)},
		{"duplicate negative id", []*packet.Packet{pk(-5, 0, 1), pk(-5, 2, 3)}, dup(-5)},
		{"duplicate id far above the packet count", []*packet.Packet{pk(huge, 0, 1), pk(huge, 2, 3)}, dup(huge)},
		{"duplicate past the bitset after bitset ids", []*packet.Packet{pk(0, 0, 1), pk(63, 1, 2), pk(64, 2, 3), pk(64, 3, 0)}, dup(64)},
		{"src out of range", []*packet.Packet{pk(0, -1, 0)}, out(0)},
		{"dst out of range", []*packet.Packet{pk(0, 0, nodes)}, out(0)},
		{"endpoints out of range under a huge id", []*packet.Packet{pk(0, 0, 1), pk(huge, 0, nodes)}, out(huge)},
	}
}

// AdmittedIDs returns packets whose IDs are unique but fall on every
// side of the admission bitset (negative, its last bit, just past it,
// far above the packet count): a router must route them, not refuse
// them.
func AdmittedIDs() []*packet.Packet {
	ids := []int{-7, -1, 0, 63, 64, 1 << 40}
	pkts := make([]*packet.Packet, len(ids))
	for i, id := range ids {
		pkts[i] = packet.New(id, i%4, (i+1)%4, packet.Transit)
	}
	return pkts
}

// MustPanicWith fails t unless f panics with exactly the string want.
func MustPanicWith(t testing.TB, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("no panic, want %q", want)
			return
		}
		if got := fmt.Sprint(r); got != want {
			t.Errorf("panic %q, want %q", got, want)
		}
	}()
	f()
}
