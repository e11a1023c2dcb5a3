package emul

import (
	"testing"

	"pramemu/internal/packet"
	"pramemu/internal/pram"
	"pramemu/internal/prng"
)

// mixedStep is a CRCW step on procs processors: every third one reads
// one shared address (the combining hot spot), every sixth writes,
// and the rest read random addresses from [0, memory), some shared.
func mixedStep(procs int, memory uint64, seed uint64) []pram.Request {
	src := prng.New(seed)
	reqs := make([]pram.Request, procs)
	for i := range reqs {
		reqs[i] = pram.Request{Proc: i, Op: pram.OpRead, Addr: src.Uint64n(memory)}
		switch {
		case i%3 == 0:
			reqs[i].Addr = 7
		case i%6 == 1:
			reqs[i].Op, reqs[i].Value = pram.OpWrite, int64(i)
		}
	}
	return reqs
}

// shortDiameter reports diameter 1 for its network, which lowers the
// emulator's overload threshold to OverloadFactor addresses per module
// without changing how steps route.
type shortDiameter struct{ Network }

func (shortDiameter) Diameter() int { return 1 }

// rehashingSeed returns the first seed whose mixed step on net
// overloads a module at OverloadFactor 3 (more than three distinct
// addresses on one module) and so rehashes before it routes.
func rehashingSeed(t *testing.T, net Network) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 400; seed++ {
		e := mustNew(net, Config{Memory: 1 << 12, Seed: seed, Combine: true, OverloadFactor: 3})
		e.RouteRequests(mixedStep(net.Nodes(), 1<<12, seed))
		if e.Rehashes() > 0 {
			return seed
		}
	}
	t.Fatal("no seed below 400 forces a rehash")
	return 0
}

// TestArenaStepMatchesHeapStep routes one CRCW step with combining,
// and one that is forced to rehash first, with and without
// Config.Arena: stats, cost and rehash count must agree, also when the
// arena is already warm from an earlier step, and the arena must hold
// just the last attempt's packets.
func TestArenaStepMatchesHeapStep(t *testing.T) {
	net := shortDiameter{starNet(5)}
	for _, c := range []struct {
		name     string
		seed     uint64
		overload int
	}{
		{"combining", 3, 0},
		{"forced rehash", rehashingSeed(t, net), 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			reqs := mixedStep(net.Nodes(), 1<<12, c.seed)
			cfg := Config{Memory: 1 << 12, Seed: c.seed, Combine: true, OverloadFactor: c.overload}
			heap := mustNew(net, cfg)
			wantStats, wantCost := heap.RouteRequests(reqs)
			if wantStats.Merges == 0 {
				t.Fatal("the step never combined")
			}
			if c.overload > 0 && heap.Rehashes() == 0 {
				t.Fatal("the step never rehashed")
			}
			cfg.Arena = packet.NewArena()
			for run := 0; run < 2; run++ {
				e := mustNew(net, cfg)
				stats, cost := e.RouteRequests(reqs)
				if stats != wantStats || cost != wantCost || e.Rehashes() != heap.Rehashes() {
					t.Fatalf("arena run %d: stats %+v cost %d rehashes %d; heap packets: %+v cost %d rehashes %d",
						run, stats, cost, e.Rehashes(), wantStats, wantCost, heap.Rehashes())
				}
				// Each attempt starts the arena over, so a rehashed step
				// leaves one packet per request, not one per attempt.
				if cfg.Arena.Len() != stats.Requests {
					t.Fatalf("arena run %d holds %d packets for %d requests", run, cfg.Arena.Len(), stats.Requests)
				}
			}
		})
	}
}

// TestWarmArenaStepAllocationsDoNotGrow bounds a warm emulated step's
// allocations with Config.Arena set. The step's packets, their paths
// and Rand Sources come from the arena a first step grew, so no
// allocation is made per request: what is left is the emulator's and
// the per-run engine's set-up. Emulated steps run on the hashed
// layout, which no Lease stocks, so one engine buffer, the injection
// burst's emit list, still grows by doubling: 720 requests may cost
// log2(720/120) < 3 more allocations than 120, plus one for the worker
// pool's recycling. Any per-request allocation would add hundreds.
func TestWarmArenaStepAllocationsDoNotGrow(t *testing.T) {
	allocs := func(n int) float64 {
		net := starNet(n)
		reqs := mixedStep(net.Nodes(), 1<<16, 5)
		cfg := Config{Memory: 1 << 16, Seed: 5, Combine: true, Workers: 1, Arena: packet.NewArena()}
		step := func() { mustNew(net, cfg).RouteRequests(reqs) }
		step()
		return testing.AllocsPerRun(5, step)
	}
	small, large := allocs(5), allocs(6) // 120 and 720 requests
	if large > small+4 {
		t.Fatalf("a warm step allocated %.0f objects at 120 requests but %.0f at 720", small, large)
	}
}

// refMaxAddrLoad is the map-based count maxAddrLoad replaced: distinct
// addresses per module, first occurrence counted.
func refMaxAddrLoad(nodes int, pkts []*packet.Packet) int {
	seen := make(map[uint64]struct{}, len(pkts))
	perModule := make([]int, nodes)
	best := 0
	for _, p := range pkts {
		if _, dup := seen[p.Addr]; dup {
			continue
		}
		seen[p.Addr] = struct{}{}
		perModule[p.Dst]++
		best = max(best, perModule[p.Dst])
	}
	return best
}

// TestMaxAddrLoadMatchesMapCount checks the counting-sort maxAddrLoad
// against the map-based count on random steps, from all-distinct
// addresses to heavily duplicated ones, reusing one emulator's scratch
// across steps of different sizes.
func TestMaxAddrLoadMatchesMapCount(t *testing.T) {
	net := starNet(5)
	e := mustNew(net, Config{Memory: 1 << 12, Seed: 1})
	src := prng.New(11)
	for trial := 0; trial < 200; trial++ {
		n := 1 + src.Intn(3*net.Nodes())
		span := uint64(1 + src.Intn(4*n)) // small spans repeat addresses
		pkts := make([]*packet.Packet, n)
		for i := range pkts {
			addr := src.Uint64n(span)
			// Copies of an address share a module, as hashing makes them.
			p := packet.New(i, 0, int(addr*2654435761%uint64(net.Nodes())), packet.ReadRequest)
			p.Addr = addr
			pkts[i] = p
		}
		if got, want := e.maxAddrLoad(pkts), refMaxAddrLoad(net.Nodes(), pkts); got != want {
			t.Fatalf("trial %d (%d packets, %d addresses): maxAddrLoad %d, map count %d", trial, n, span, got, want)
		}
	}
}
