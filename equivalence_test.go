// Determinism-equivalence property tests for the parallel sharded
// round engine: for every topology the paper treats (star graph,
// hypercube, d-way shuffle, butterfly, mesh — plus Ranade's butterfly
// emulation), routing the same seeded workload with Workers: 1 and
// Workers: N must produce identical aggregate statistics (round
// counts, queue maxima, delays) and identical per-packet delivery
// traces (arrival round, hops, delay, kind, value, recorded path).
// This is the engine's defining invariant; everything else in the PR
// rests on it.
package pramemu

import (
	"fmt"
	"runtime"
	"testing"

	"pramemu/internal/engine"
	"pramemu/internal/leveled"
	"pramemu/internal/mesh"
	"pramemu/internal/packet"
	"pramemu/internal/pancake"
	"pramemu/internal/prng"
	"pramemu/internal/ranade"
	"pramemu/internal/shuffle"
	"pramemu/internal/simnet"
	"pramemu/internal/star"
	"pramemu/internal/torus"
	"pramemu/internal/workload"

	"pramemu/internal/hypercube"
)

// mustSimRoute wraps simnet.Route for the statically sized
// equivalence topologies (all far below the key-space bound).
func mustSimRoute(topo simnet.Topology, pkts []*packet.Packet, opts simnet.Options) simnet.Stats {
	st, err := simnet.Route(topo, pkts, opts)
	if err != nil {
		panic(err)
	}
	return st
}

// ptrace is the observable outcome of one packet: if any field
// differs between worker counts, the simulation diverged.
type ptrace struct {
	ID, Src, Dst         int
	Kind                 packet.Kind
	Arrived, Hops, Delay int
	Value                int64
	Path                 string
}

func tracesOf(pkts []*packet.Packet) []ptrace {
	out := make([]ptrace, len(pkts))
	for i, p := range pkts {
		out[i] = ptrace{
			ID: p.ID, Src: p.Src, Dst: p.Dst,
			Kind: p.Kind, Arrived: p.Arrived, Hops: p.Hops, Delay: p.Delay,
			Value: p.Value, Path: fmt.Sprint(p.Path),
		}
	}
	return out
}

// readHotSpots builds a read-request permutation workload with shared
// addresses (four requesters per address), so runs with combining
// exercise the merge/fan-out machinery.
func readHotSpots(nodes int, seed uint64) []*packet.Packet {
	perm := prng.New(seed).Perm(nodes)
	pkts := make([]*packet.Packet, nodes)
	for i, dst := range perm {
		p := packet.New(i, i, dst, packet.ReadRequest)
		p.Addr = uint64(dst / 4)
		p.Proc = i
		pkts[i] = p
	}
	return pkts
}

// simCase routes one topology's workload at the given worker count
// and returns the stats (as a comparable value) plus delivery traces.
type simCase struct {
	name string
	run  func(seed uint64, workers int) (any, []ptrace)
}

func equivalenceCases() []simCase {
	return []simCase{
		{"star5", func(seed uint64, workers int) (any, []ptrace) {
			g := star.New(5) // 120 nodes
			pkts := readHotSpots(g.Nodes(), seed)
			st := mustSimRoute(g, pkts, simnet.Options{
				Seed: seed * 31, Replies: true, Combine: true, Workers: workers,
			})
			return st, tracesOf(pkts)
		}},
		{"hypercube7", func(seed uint64, workers int) (any, []ptrace) {
			g := hypercube.New(7) // 128 nodes
			pkts := readHotSpots(g.Nodes(), seed)
			st := mustSimRoute(g, pkts, simnet.Options{
				Seed: seed * 31, Replies: true, Combine: true, Workers: workers,
			})
			return st, tracesOf(pkts)
		}},
		{"shuffle4", func(seed uint64, workers int) (any, []ptrace) {
			g := shuffle.NewNWay(4) // 256 nodes
			pkts := readHotSpots(g.Nodes(), seed)
			st := leveled.Route(g.AsLeveled(), pkts, leveled.Options{
				Seed: seed * 31, Replies: true, Combine: true, Workers: workers,
			})
			return st, tracesOf(pkts)
		}},
		{"pancake6", func(seed uint64, workers int) (any, []ptrace) {
			g := pancake.New(6) // 720 nodes, greedy prefix-reversal paths
			pkts := readHotSpots(g.Nodes(), seed)
			st := mustSimRoute(g, pkts, simnet.Options{
				Seed: seed * 31, Replies: true, Combine: true, Workers: workers,
			})
			return st, tracesOf(pkts)
		}},
		{"torus8x3", func(seed uint64, workers int) (any, []ptrace) {
			g := torus.New(8, 3) // 512 nodes, wraparound dimension-order paths
			pkts := readHotSpots(g.Nodes(), seed)
			st := mustSimRoute(g, pkts, simnet.Options{
				Seed: seed * 31, Replies: true, Combine: true, Workers: workers,
			})
			return st, tracesOf(pkts)
		}},
		{"butterfly7", func(seed uint64, workers int) (any, []ptrace) {
			spec := leveled.NewButterfly(7) // 128 rows, 8 levels
			pkts := readHotSpots(spec.Width(), seed)
			st := leveled.Route(spec, pkts, leveled.Options{
				Seed: seed * 31, Replies: true, Combine: true, Workers: workers,
			})
			return st, tracesOf(pkts)
		}},
		{"mesh24", func(seed uint64, workers int) (any, []ptrace) {
			g := mesh.New(24) // 576 nodes, furthest-first heaps
			pkts := workload.Permutation(g.Nodes(), packet.Transit, seed)
			st := mesh.Route(g, pkts, mesh.Options{Seed: seed * 31, Workers: workers})
			return st, tracesOf(pkts)
		}},
		{"mesh16-fifo", func(seed uint64, workers int) (any, []ptrace) {
			g := mesh.New(16)
			pkts := workload.Permutation(g.Nodes(), packet.Transit, seed)
			st := mesh.Route(g, pkts, mesh.Options{
				Seed: seed * 31, Discipline: mesh.FIFODiscipline, Workers: workers,
			})
			return st, tracesOf(pkts)
		}},
		{"hypercube10-large", func(seed uint64, workers int) (any, []ptrace) {
			// 1024 nodes: enough concurrent traffic to cross the
			// engine's inline-round threshold, so the goroutine path
			// itself runs (and is raced) here.
			g := hypercube.New(10)
			pkts := readHotSpots(g.Nodes(), seed)
			st := mustSimRoute(g, pkts, simnet.Options{
				Seed: seed * 31, Replies: true, Combine: true, Workers: workers,
			})
			return st, tracesOf(pkts)
		}},
		{"ranade7", func(seed uint64, workers int) (any, []ptrace) {
			n := ranade.New(7) // 128 rows
			pkts := readHotSpots(n.Nodes(), seed)
			st := n.RouteOpts(pkts, ranade.Options{Combine: true, Seed: seed, Workers: workers})
			return st, tracesOf(pkts)
		}},
		{"ranade9-large", func(seed uint64, workers int) (any, []ptrace) {
			// 512 rows: above ranade's 256-row inline cutoff, so its
			// per-level worker fan-out (the one parallel path not on
			// internal/engine) runs — and is raced — here.
			n := ranade.New(9)
			pkts := readHotSpots(n.Nodes(), seed)
			st := n.RouteOpts(pkts, ranade.Options{Combine: true, Seed: seed, Workers: workers})
			return st, tracesOf(pkts)
		}},
	}
}

// TestWorkerEquivalence is the PR's core property: Workers: 1 and
// Workers: N are byte-identical for fixed seeds on every topology.
func TestWorkerEquivalence(t *testing.T) {
	seeds := []uint64{1, 7, 1991}
	workerSet := []int{2, 3, 8}
	if testing.Short() {
		seeds = seeds[:2]
		workerSet = []int{3}
	}
	for _, c := range equivalenceCases() {
		t.Run(c.name, func(t *testing.T) {
			for _, seed := range seeds {
				wantStats, wantTraces := c.run(seed, 1)
				for _, workers := range workerSet {
					gotStats, gotTraces := c.run(seed, workers)
					if gotStats != wantStats {
						t.Fatalf("seed %d: stats diverged between Workers=1 and Workers=%d:\nseq: %+v\npar: %+v",
							seed, workers, wantStats, gotStats)
					}
					if len(gotTraces) != len(wantTraces) {
						t.Fatalf("seed %d workers %d: trace count %d != %d",
							seed, workers, len(gotTraces), len(wantTraces))
					}
					for i := range wantTraces {
						if gotTraces[i] != wantTraces[i] {
							t.Fatalf("seed %d: packet %d trace diverged between Workers=1 and Workers=%d:\nseq: %+v\npar: %+v",
								seed, workers, i, wantTraces[i], gotTraces[i])
						}
					}
				}
			}
		})
	}
}

// hashedBudget is the storage-path selector of the dense/hashed
// cases: a one-byte MemBudget degrades any dense or paged table to the
// engine's hashed fallback, exactly as an over-budget production run
// does; zero leaves the dense default.
func hashedBudget(hashed bool) int64 {
	if hashed {
		return 1
	}
	return 0
}

// denseCase routes one reply-free workload — the configuration on
// which the simulators declare their dense link-key space — with an
// explicit storage-path selector.
type denseCase struct {
	name string
	run  func(seed uint64, workers int, hashed bool) (any, []ptrace)
}

func denseHashedCases() []denseCase {
	return []denseCase{
		{"star5-direct", func(seed uint64, workers int, hashed bool) (any, []ptrace) {
			g := star.New(5)
			pkts := workload.Permutation(g.Nodes(), packet.Transit, seed)
			st := mustSimRoute(g, pkts, simnet.Options{
				Seed: seed * 31, Workers: workers, MemBudget: hashedBudget(hashed),
			})
			return st, tracesOf(pkts)
		}},
		{"shuffle3-direct", func(seed uint64, workers int, hashed bool) (any, []ptrace) {
			g := shuffle.NewNWay(3) // taken-sensitive NextHop under slot keys
			pkts := workload.Permutation(g.Nodes(), packet.Transit, seed)
			st := mustSimRoute(g, pkts, simnet.Options{
				Seed: seed * 31, Workers: workers, MemBudget: hashedBudget(hashed),
			})
			return st, tracesOf(pkts)
		}},
		{"butterfly7-leveled", func(seed uint64, workers int, hashed bool) (any, []ptrace) {
			spec := leveled.NewButterfly(7)
			pkts := workload.Permutation(spec.Width(), packet.Transit, seed)
			st := leveled.Route(spec, pkts, leveled.Options{
				Seed: seed * 31, Workers: workers, MemBudget: hashedBudget(hashed),
			})
			return st, tracesOf(pkts)
		}},
		{"star5-leveled-combine", func(seed uint64, workers int, hashed bool) (any, []ptrace) {
			// Combining without replies keeps the dense path on while
			// exercising the push-phase combiner hook.
			g := star.New(5)
			pkts := readHotSpots(g.Nodes(), seed)
			st := leveled.Route(g.AsLeveled(), pkts, leveled.Options{
				Seed: seed * 31, Combine: true, Workers: workers, MemBudget: hashedBudget(hashed),
			})
			return st, tracesOf(pkts)
		}},
		{"mesh16", func(seed uint64, workers int, hashed bool) (any, []ptrace) {
			g := mesh.New(16)
			pkts := workload.Permutation(g.Nodes(), packet.Transit, seed)
			st := mesh.Route(g, pkts, mesh.Options{
				Seed: seed * 31, Workers: workers, MemBudget: hashedBudget(hashed),
			})
			return st, tracesOf(pkts)
		}},
		{"ranade6-replylinks", func(seed uint64, workers int, _ bool) (any, []ptrace) {
			// Ranade has no engine link state: its reply pass keeps
			// its own reverse-link table, so only the workers vary.
			n := ranade.New(6)
			pkts := readHotSpots(n.Nodes(), seed)
			st := n.RouteOpts(pkts, ranade.Options{
				Combine: true, Seed: seed, Workers: workers,
			})
			return st, tracesOf(pkts)
		}},
	}
}

// TestWorkerEquivalenceDenseHashed is the storage-path half of the
// engine invariant: for every reply-free configuration, the dense
// slice-table path and the hashed-map fallback produce identical
// stats and per-packet traces at Workers 1 and 4 — all four
// combinations collapse to one result. (The name keeps it inside the
// CI race job's TestWorker filter, so both paths are race-checked.)
func TestWorkerEquivalenceDenseHashed(t *testing.T) {
	seeds := []uint64{3, 1991}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, c := range denseHashedCases() {
		t.Run(c.name, func(t *testing.T) {
			for _, seed := range seeds {
				wantStats, wantTraces := c.run(seed, 1, false)
				for _, v := range []struct {
					workers int
					hashed  bool
				}{{4, false}, {1, true}, {4, true}} {
					gotStats, gotTraces := c.run(seed, v.workers, v.hashed)
					if gotStats != wantStats {
						t.Fatalf("seed %d: workers=%d hashed=%v stats diverged from dense workers=1:\nwant: %+v\ngot:  %+v",
							seed, v.workers, v.hashed, wantStats, gotStats)
					}
					for i := range wantTraces {
						if gotTraces[i] != wantTraces[i] {
							t.Fatalf("seed %d: workers=%d hashed=%v packet %d trace diverged:\nwant: %+v\ngot:  %+v",
								seed, v.workers, v.hashed, i, wantTraces[i], gotTraces[i])
						}
					}
				}
			}
		})
	}
}

// pagedCase routes one reply-free workload with the full three-way
// storage selector: flat dense tables (the small-key default), the
// paged directory (the million-node path) and the hashed-map
// fallback.
type pagedCase struct {
	name string
	run  func(seed uint64, workers int, paged, hashed bool) (any, []ptrace)
}

func pagedCases() []pagedCase {
	return []pagedCase{
		{"star5-direct", func(seed uint64, workers int, paged, hashed bool) (any, []ptrace) {
			g := star.New(5)
			pkts := workload.Permutation(g.Nodes(), packet.Transit, seed)
			st := mustSimRoute(g, pkts, simnet.Options{
				Seed: seed * 31, Workers: workers, PagedKeys: paged, MemBudget: hashedBudget(hashed),
			})
			return st, tracesOf(pkts)
		}},
		{"butterfly7-leveled", func(seed uint64, workers int, paged, hashed bool) (any, []ptrace) {
			spec := leveled.NewButterfly(7)
			pkts := workload.Permutation(spec.Width(), packet.Transit, seed)
			st := leveled.Route(spec, pkts, leveled.Options{
				Seed: seed * 31, Workers: workers, PagedKeys: paged, MemBudget: hashedBudget(hashed),
			})
			return st, tracesOf(pkts)
		}},
		{"mesh16", func(seed uint64, workers int, paged, hashed bool) (any, []ptrace) {
			g := mesh.New(16)
			pkts := workload.Permutation(g.Nodes(), packet.Transit, seed)
			st := mesh.Route(g, pkts, mesh.Options{
				Seed: seed * 31, Workers: workers, PagedKeys: paged, MemBudget: hashedBudget(hashed),
			})
			return st, tracesOf(pkts)
		}},
	}
}

// TestWorkerEquivalencePagedDenseHashed closes the storage-path
// invariant over all three link-table states: on every configuration
// the paged directory must reproduce the flat dense result bit for
// bit — same stats, same per-packet traces — at Workers 1, 4 and 0
// (GOMAXPROCS), exactly as the hashed fallback does. Routing decisions
// never depend on how the link state is stored, which is what lets
// the engine degrade dense→paged→hashed purely on footprint grounds.
// (The name keeps it inside the CI race job's TestWorker filter, so
// the paged path's first-touch page allocation is race-checked across
// shards.)
func TestWorkerEquivalencePagedDenseHashed(t *testing.T) {
	seeds := []uint64{3, 1991}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, c := range pagedCases() {
		t.Run(c.name, func(t *testing.T) {
			for _, seed := range seeds {
				wantStats, wantTraces := c.run(seed, 1, false, false)
				for _, v := range []struct {
					workers       int
					paged, hashed bool
				}{{1, true, false}, {4, true, false}, {0, true, false}, {4, false, true}} {
					gotStats, gotTraces := c.run(seed, v.workers, v.paged, v.hashed)
					if gotStats != wantStats {
						t.Fatalf("seed %d: workers=%d paged=%v hashed=%v stats diverged from dense workers=1:\nwant: %+v\ngot:  %+v",
							seed, v.workers, v.paged, v.hashed, wantStats, gotStats)
					}
					for i := range wantTraces {
						if gotTraces[i] != wantTraces[i] {
							t.Fatalf("seed %d: workers=%d paged=%v hashed=%v packet %d trace diverged:\nwant: %+v\ngot:  %+v",
								seed, v.workers, v.paged, v.hashed, i, wantTraces[i], gotTraces[i])
						}
					}
				}
			}
		})
	}
}

// eventFaulty is a kitchen-sink asynchronous configuration — jittered
// latency, transient outages, stragglers and packet loss all at once.
func eventFaulty() *engine.EventOptions {
	return &engine.EventOptions{
		Model:           engine.LatencyJitter,
		Base:            1,
		Jitter:          2,
		LinkFailure:     0.1,
		Straggler:       0.2,
		Drop:            0.1,
		RetransmitAfter: 4,
	}
}

// eventCases routes on the asynchronous event engine through both
// simulator layers, faults dialed in.
func eventCases() []simCase {
	return []simCase{
		{"star5-event", func(seed uint64, workers int) (any, []ptrace) {
			g := star.New(5)
			pkts := workload.Permutation(g.Nodes(), packet.Transit, seed)
			st := mustSimRoute(g, pkts, simnet.Options{
				Seed: seed * 31, Workers: workers, Event: eventFaulty(),
			})
			return st, tracesOf(pkts)
		}},
		{"torus8x3-event", func(seed uint64, workers int) (any, []ptrace) {
			g := torus.New(8, 3)
			pkts := workload.Permutation(g.Nodes(), packet.Transit, seed)
			st := mustSimRoute(g, pkts, simnet.Options{
				Seed: seed * 31, Workers: workers, Event: eventFaulty(),
			})
			return st, tracesOf(pkts)
		}},
		{"star5-event-replies", func(seed uint64, workers int) (any, []ptrace) {
			// Replies + combining: the event loop carries the request
			// pass, the reply fan-out and the merge hooks alike.
			g := star.New(5)
			pkts := readHotSpots(g.Nodes(), seed)
			st := mustSimRoute(g, pkts, simnet.Options{
				Seed: seed * 31, Replies: true, Combine: true, Workers: workers, Event: eventFaulty(),
			})
			return st, tracesOf(pkts)
		}},
		{"butterfly7-event-combine", func(seed uint64, workers int) (any, []ptrace) {
			spec := leveled.NewButterfly(7)
			pkts := readHotSpots(spec.Width(), seed)
			st := leveled.Route(spec, pkts, leveled.Options{
				Seed: seed * 31, Combine: true, Workers: workers, Event: eventFaulty(),
			})
			return st, tracesOf(pkts)
		}},
	}
}

// TestWorkerEquivalenceEventEngine extends the invariant to the
// asynchronous event engine: the Workers knob must be a no-op there —
// the loop is strictly sequential and every random link property keys
// to stable entities (link key, node, packet ID), never to shard
// streams — so a fully faulty configuration produces identical stats
// and per-packet traces at any worker count, and reruns replay byte
// for byte. (The name keeps it inside the CI race job's TestWorker
// filter.)
func TestWorkerEquivalenceEventEngine(t *testing.T) {
	seeds := []uint64{7, 1991}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, c := range eventCases() {
		t.Run(c.name, func(t *testing.T) {
			for _, seed := range seeds {
				wantStats, wantTraces := c.run(seed, 1)
				for _, workers := range []int{4, 0} {
					gotStats, gotTraces := c.run(seed, workers)
					if gotStats != wantStats {
						t.Fatalf("seed %d: event stats diverged between Workers=1 and Workers=%d:\nseq: %+v\npar: %+v",
							seed, workers, wantStats, gotStats)
					}
					for i := range wantTraces {
						if gotTraces[i] != wantTraces[i] {
							t.Fatalf("seed %d: packet %d event trace diverged between Workers=1 and Workers=%d:\nseq: %+v\npar: %+v",
								seed, i, workers, wantTraces[i], gotTraces[i])
						}
					}
				}
			}
		})
	}
}

// TestWorkerEquivalenceDefaultWorkers pins the GOMAXPROCS default
// (Workers: 0) to the sequential result, since that is what every
// existing caller now gets implicitly.
func TestWorkerEquivalenceDefaultWorkers(t *testing.T) {
	for _, c := range equivalenceCases() {
		wantStats, _ := c.run(42, 1)
		gotStats, _ := c.run(42, 0)
		if gotStats != wantStats {
			t.Fatalf("%s: Workers=0 (GOMAXPROCS=%d) diverged from Workers=1:\nseq: %+v\ndef: %+v",
				c.name, runtime.GOMAXPROCS(0), wantStats, gotStats)
		}
	}
}
