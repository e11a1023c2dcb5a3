package pramemu

import (
	"testing"

	"pramemu/internal/engine"
	"pramemu/internal/leveled"
	"pramemu/internal/mesh"
	"pramemu/internal/packet"
	"pramemu/internal/prng"
	"pramemu/internal/simnet"
	"pramemu/internal/star"
	"pramemu/internal/workload"
)

// reuseTrace is what a packet's run leaves on it: its route lengths,
// its arrival and the random choices drawn from its own stream.
type reuseTrace struct {
	Hops, Delay, Arrived, Inter, Row2 int
}

func reuseTraces(pkts []*packet.Packet) []reuseTrace {
	out := make([]reuseTrace, len(pkts))
	for i, p := range pkts {
		out[i] = reuseTrace{p.Hops, p.Delay, p.Arrived, p.Inter, p.Row2}
	}
	return out
}

// hotSpotsIn is readHotSpots with its packets allocated from a (the
// heap when a is nil).
func hotSpotsIn(a *packet.Arena, nodes int, seed uint64) []*packet.Packet {
	perm := prng.New(seed).Perm(nodes)
	pkts := make([]*packet.Packet, nodes)
	for i, dst := range perm {
		p := packet.NewIn(a, i, i, dst, packet.ReadRequest)
		p.Addr = uint64(dst / 4)
		p.Proc = i
		pkts[i] = p
	}
	return pkts
}

// TestArenaReuseMatchesFreshPackets routes one traffic pattern three
// times per router: on fresh packet.New packets, then twice on one
// arena with a Reset between. The second arena run gets recycled
// packets whose Rand Sources still hold the first run's consumed
// streams; admission must reseed them in place so that every run
// reports the same Stats and the same per-packet trace.
func TestArenaReuseMatchesFreshPackets(t *testing.T) {
	const seed = 1991
	g := star.New(5)
	spec := leveled.NewButterfly(6)
	grid := mesh.New(12)
	cases := []struct {
		name  string
		route func(a *packet.Arena) (any, []*packet.Packet)
	}{
		{"simnet", func(a *packet.Arena) (any, []*packet.Packet) {
			pkts := hotSpotsIn(a, g.Nodes(), seed)
			return mustSimRoute(g, pkts, simnet.Options{Seed: seed, Replies: true, Combine: true}), pkts
		}},
		{"leveled", func(a *packet.Arena) (any, []*packet.Packet) {
			pkts := hotSpotsIn(a, spec.Width(), seed)
			return leveled.Route(spec, pkts, leveled.Options{Seed: seed, Replies: true, Combine: true}), pkts
		}},
		{"mesh", func(a *packet.Arena) (any, []*packet.Packet) {
			pkts := workload.PermutationInto(a, grid.Nodes(), packet.Transit, seed)
			return mesh.Route(grid, pkts, mesh.Options{Seed: seed}), pkts
		}},
		{"event", func(a *packet.Arena) (any, []*packet.Packet) {
			pkts := workload.PermutationInto(a, g.Nodes(), packet.Transit, seed)
			return mustSimRoute(g, pkts, simnet.Options{Seed: seed, Event: eventFaulty()}), pkts
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wantStats, fresh := c.route(nil)
			want := reuseTraces(fresh)
			a := packet.NewArena()
			for run := 0; run < 2; run++ {
				a.Reset()
				gotStats, pkts := c.route(a)
				if run == 1 && pkts[0].Rand == nil {
					t.Fatal("a recycled arena packet lost its Rand Source")
				}
				if gotStats != wantStats {
					t.Fatalf("arena run %d stats %+v, fresh packets %+v", run, gotStats, wantStats)
				}
				for i, got := range reuseTraces(pkts) {
					if got != want[i] {
						t.Fatalf("arena run %d packet %d: %+v, fresh packet %+v", run, i, got, want[i])
					}
				}
			}
		})
	}
}

// TestWarmRouteAllocationsDoNotGrow bounds a warm simnet.Route's
// allocations: with the packets recycled from an arena (paths and
// Rand Sources kept) and the engine kept by a Lease,
// a run allocates only its fixed set-up, the same count at 120 packets
// as at 720.
func TestWarmRouteAllocationsDoNotGrow(t *testing.T) {
	allocs := func(n int) float64 {
		g := star.New(n)
		a := packet.NewArena()
		opts := simnet.Options{Seed: 5, Workers: 1, RecordPaths: true, Lease: &engine.Lease{}}
		run := func() {
			a.Reset()
			mustSimRoute(g, workload.PermutationInto(a, g.Nodes(), packet.Transit, 5), opts)
		}
		run()
		return testing.AllocsPerRun(10, run)
	}
	small, large := allocs(5), allocs(6)
	if large != small {
		t.Fatalf("a warm route allocated %.0f objects at 120 packets but %.0f at 720", small, large)
	}
}
