package ranade

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"pramemu/internal/packet"
	"pramemu/internal/prng"
)

// goldenPackets is a mixed step: two requests per row, a quarter of
// them writes, three eighths reads of four hot modules' home
// addresses (so combining fires and replies fan out at merge nodes),
// and the rest reads of random addresses. Each packet carries a
// distinct Value, so a fan-out that copies the wrong parent's value
// shows in the digest.
func goldenPackets(rows int, seed uint64) []*packet.Packet {
	r := prng.New(seed)
	hot := r.Perm(rows)[:4]
	pkts := make([]*packet.Packet, 2*rows)
	for i := range pkts {
		kind, dst, addr := packet.ReadRequest, r.Intn(rows), uint64(r.Intn(4*rows))
		switch v := r.Intn(8); {
		case v < 2:
			kind = packet.WriteRequest
		case v < 5:
			dst = hot[r.Intn(len(hot))]
			addr = uint64(dst)
		}
		p := packet.New(i, i%rows, dst, kind)
		p.Addr = addr
		p.Value = int64(7*i + 1)
		pkts[i] = p
	}
	return pkts
}

// goldenDigest is an FNV-1a hash over every Stats field and each
// packet's (ID, Kind, Arrived, Hops, Value, Path).
func goldenDigest(st Stats, pkts []*packet.Packet) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, v := range []int{st.Rounds, st.RequestRounds, st.MaxQueue, st.Merges,
		st.DeliveredRequests, st.DeliveredReplies, st.Ghosts} {
		put(int64(v))
	}
	for _, p := range pkts {
		put(int64(p.ID))
		put(int64(p.Kind))
		put(int64(p.Arrived))
		put(int64(p.Hops))
		put(p.Value)
		put(int64(len(p.Path)))
		for _, v := range p.Path {
			put(int64(v))
		}
	}
	return h.Sum64()
}

// TestRanadeReplyGolden pins the whole Ranade step — the sorted-stream
// forward pass, combining, and the reply pass's retrace and fan-out —
// to fixed digests on New(7) and New(10), combining on and off, at
// Workers 1 and 2. Reply queueing delay is not pinned (Ranade is
// priced from Stats.Rounds, not per-packet Delay), only checked to be
// non-negative.
func TestRanadeReplyGolden(t *testing.T) {
	want := map[string]uint64{
		"k7/combine=false/seed1":     0x9fa2f61ede8f907f,
		"k7/combine=false/seed7":     0xa6a9a1a146f1862a,
		"k7/combine=false/seed1991":  0xc95f450003f8eaa8,
		"k7/combine=true/seed1":      0xf11b2f241122b649,
		"k7/combine=true/seed7":      0x82e41e1575b1a61e,
		"k7/combine=true/seed1991":   0xcfff7d3f02114dd3,
		"k10/combine=false/seed1":    0xd0106a625b3835ed,
		"k10/combine=false/seed7":    0x5576573fd6271a28,
		"k10/combine=false/seed1991": 0xb4b35e281fa59545,
		"k10/combine=true/seed1":     0xa11b2fa411df3681,
		"k10/combine=true/seed7":     0xbdcbfe8c6b55ba09,
		"k10/combine=true/seed1991":  0xa4fbc8d83b4373e1,
	}
	for _, k := range []int{7, 10} {
		for _, combine := range []bool{false, true} {
			for _, seed := range []uint64{1, 7, 1991} {
				name := fmt.Sprintf("k%d/combine=%v/seed%d", k, combine, seed)
				var merges int
				for _, workers := range []int{1, 2} {
					net := New(k)
					pkts := goldenPackets(net.Nodes(), seed)
					st := net.Route(pkts, Options{Combine: combine, Workers: workers})
					reads := 0
					for _, p := range pkts {
						if p.Delay < 0 {
							t.Fatalf("%s workers=%d: packet %d delay %d", name, workers, p.ID, p.Delay)
						}
						if p.Kind == packet.ReadReply {
							reads++
						}
					}
					if st.DeliveredRequests != len(pkts) || st.DeliveredReplies != reads {
						t.Fatalf("%s workers=%d: delivered %d requests, %d replies; want %d, %d",
							name, workers, st.DeliveredRequests, st.DeliveredReplies, len(pkts), reads)
					}
					merges = st.Merges
					got := goldenDigest(st, pkts)
					if got != want[name] {
						t.Errorf("%s workers=%d: digest %#x, want %#x", name, workers, got, want[name])
					}
				}
				if combine && merges == 0 {
					t.Errorf("%s: no request combined", name)
				}
			}
		}
	}
}
