package pramemu

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"pramemu/internal/engine"
	"pramemu/internal/leveled"
	"pramemu/internal/packet"
	"pramemu/internal/prng"
	"pramemu/internal/simnet"
	"pramemu/internal/star"
)

// replyStatsFields are the Stats fields the reply golden hashes, by
// name, so the digest does not depend on the struct's layout.
var replyStatsFields = []string{
	"Rounds", "RequestRounds", "MaxQueue", "TotalDelay", "MaxPacketSteps",
	"DeliveredRequests", "DeliveredReplies", "Merges", "Retransmits", "MaxModuleLoad",
}

// replyDigest is an FNV-1a hash over the named Stats fields and each
// packet's (ID, Kind, Arrived, Hops, Delay).
func replyDigest(st any, pkts []*packet.Packet) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	sv := reflect.ValueOf(st)
	for _, name := range replyStatsFields {
		put(sv.FieldByName(name).Int())
	}
	for _, p := range pkts {
		put(int64(p.ID))
		put(int64(p.Kind))
		put(int64(p.Arrived))
		put(int64(p.Hops))
		put(int64(p.Delay))
	}
	return h.Sum64()
}

// readHotModules is a read workload whose requests all go to eight
// modules, one address each, so combining fires and replies fan out
// at the merge nodes. (readHotSpots spreads its shared addresses over
// distinct modules, so it never combines.)
func readHotModules(nodes int, seed uint64) []*packet.Packet {
	perm := prng.New(seed).Perm(nodes)
	pkts := make([]*packet.Packet, nodes)
	for i := range pkts {
		dst := perm[i%8]
		p := packet.New(i, i, dst, packet.ReadRequest)
		p.Addr = uint64(dst)
		p.Proc = i
		pkts[i] = p
	}
	return pkts
}

// TestReplyRoutingGolden pins reply routing — the request pass, the
// Theorem 2.6 fan-out and the reverse-path retrace — of the
// point-to-point router (star 5) and the leveled router (butterfly 7)
// to fixed digests, on the round engine and on the faulty event
// engine, with readHotSpots and readHotModules. The event engine draws
// per-link latency, outages and drops by link key, so any change to
// the reply-key encoding moves these digests even where round-engine
// artifacts would not notice.
func TestReplyRoutingGolden(t *testing.T) {
	want := map[string]uint64{
		"star5-round-spots/7":           0xf5f6e2f985cbe1f0,
		"star5-round-spots/1991":        0x35ab3c849e96e9f1,
		"star5-round-modules/7":         0xec2e07e1a8ebe29f,
		"star5-round-modules/1991":      0x126b12d627f1aa96,
		"star5-event-spots/7":           0xb874f29dc11ad6d,
		"star5-event-spots/1991":        0x4653e9e209c06a9c,
		"star5-event-modules/7":         0x3906a82a496e9b5a,
		"star5-event-modules/1991":      0xd19021a6dcdc665b,
		"butterfly7-round-spots/7":      0x61d83a0ebd313d68,
		"butterfly7-round-spots/1991":   0x3dc28ca657a471d8,
		"butterfly7-round-modules/7":    0x68b7e22310facb0b,
		"butterfly7-round-modules/1991": 0x4e7e5128a164cb1c,
		"butterfly7-event-spots/7":      0x59a4e3fa80bdc492,
		"butterfly7-event-spots/1991":   0x1580b0688a74b881,
		"butterfly7-event-modules/7":    0xe8491dad76e36d0e,
		"butterfly7-event-modules/1991": 0xb8755df4adebb07b,
	}
	merges := map[string]int64{}
	for _, router := range []string{"star5", "butterfly7"} {
		for _, eng := range []string{"round", "event"} {
			for _, wl := range []string{"spots", "modules"} {
				for _, seed := range []uint64{7, 1991} {
					var ev *engine.EventOptions
					if eng == "event" {
						ev = eventFaulty()
					}
					gen := readHotSpots
					if wl == "modules" {
						gen = readHotModules
					}
					opts := simnet.Options{Seed: seed * 31, Replies: true, Combine: true, Event: ev}
					var st any
					var pkts []*packet.Packet
					if router == "star5" {
						g := star.New(5)
						pkts = gen(g.Nodes(), seed)
						st = mustSimRoute(g, pkts, opts)
					} else {
						spec := leveled.NewButterfly(7)
						pkts = gen(spec.Width(), seed)
						st = leveled.Route(spec, pkts, opts)
					}
					name := fmt.Sprintf("%s-%s-%s/%d", router, eng, wl, seed)
					sv := reflect.ValueOf(st)
					if r := sv.FieldByName("DeliveredReplies").Int(); r != int64(len(pkts)) {
						t.Fatalf("%s: %d of %d replies delivered", name, r, len(pkts))
					}
					merges[router] += sv.FieldByName("Merges").Int()
					if got := replyDigest(st, pkts); got != want[name] {
						t.Errorf("%s: reply digest %#x, want %#x", name, got, want[name])
					}
				}
			}
		}
	}
	// The golden is only worth pinning if each router exercised the
	// fan-out somewhere.
	for router, m := range merges {
		if m == 0 {
			t.Errorf("%s: no run combined a request", router)
		}
	}
}
