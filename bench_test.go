// Package pramemu's root benchmark harness: one benchmark per
// experiment in DESIGN.md's index (E1-E21), regenerating the series
// behind every claim of the paper. Custom metrics report the
// normalized quantities the theorems bound (rounds/ℓ, rounds/n,
// cost/diameter, ...) so `go test -bench=.` output reads directly
// against the paper: Theorem 2.1 predicts a flat rounds/l column,
// Theorem 3.1 a rounds/n near 2, Theorem 3.2 a cost/n near 4, etc.
package pramemu

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"pramemu/internal/advsearch"
	"pramemu/internal/buildcache"
	"pramemu/internal/emul"
	"pramemu/internal/experiments"
	"pramemu/internal/hashing"
	"pramemu/internal/leveled"
	"pramemu/internal/mesh"
	"pramemu/internal/packet"
	"pramemu/internal/prng"
	"pramemu/internal/scenario"
	"pramemu/internal/shuffle"
	"pramemu/internal/simnet"
	"pramemu/internal/star"
	"pramemu/internal/topology"
	_ "pramemu/internal/topology/families"
	"pramemu/internal/workload"
)

const benchSeed = 1991

// mustSim routes on a statically sized benchmark topology, where a
// key-space failure is a programming error.
func mustSim(topo simnet.Topology, pkts []*packet.Packet, opts simnet.Options) simnet.Stats {
	s, err := simnet.Route(topo, pkts, opts)
	if err != nil {
		panic(err)
	}
	return s
}

// benchEmul builds an emulator for a statically sized configuration.
func benchEmul(net emul.Network, cfg emul.Config) *emul.Emulator {
	e, err := emul.New(net, cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// benchNet adapts a registry family for the emulator benchmarks
// (leveled view preferred, as the emulator does).
func benchNet(name string, p topology.Params) emul.Network {
	b, err := topology.Build(name, p)
	if err != nil {
		panic(err)
	}
	net, err := emul.NewTopologyNetwork(b)
	if err != nil {
		panic(err)
	}
	return net
}

// benchDirectNet forces the point-to-point view (Algorithm 2.2).
func benchDirectNet(name string, p topology.Params) emul.Network {
	b, err := topology.Build(name, p)
	if err != nil {
		panic(err)
	}
	net, err := emul.NewDirectTopologyNetwork(b)
	if err != nil {
		panic(err)
	}
	return net
}

// BenchmarkE1LeveledPermutation — Theorem 2.1: permutation routing on
// leveled networks in Õ(ℓ) with Õ(ℓ) FIFO queues.
func BenchmarkE1LeveledPermutation(b *testing.B) {
	specs := []leveled.Spec{
		leveled.NewButterfly(8),
		leveled.NewButterfly(12),
		leveled.NewDAry(4, 5),
		leveled.NewDAry(6, 7),
	}
	for _, spec := range specs {
		b.Run(spec.Name(), func(b *testing.B) {
			var rounds, maxQ int
			for i := 0; i < b.N; i++ {
				pkts := workload.Permutation(spec.Width(), packet.Transit, benchSeed+uint64(i))
				s := leveled.Route(spec, pkts, leveled.Options{Seed: uint64(i) * 31})
				rounds += s.Rounds
				if s.MaxQueue > maxQ {
					maxQ = s.MaxQueue
				}
			}
			b.ReportMetric(float64(rounds)/float64(b.N)/float64(spec.Levels()), "rounds/l")
			b.ReportMetric(float64(maxQ), "maxQ")
		})
	}
}

// BenchmarkE2StarRouting — Theorem 2.2 / Corollary 2.1: n-star
// permutation and n-relation routing in Õ(n).
func BenchmarkE2StarRouting(b *testing.B) {
	for _, n := range []int{5, 6, 7} {
		g := star.New(n)
		b.Run(fmt.Sprintf("perm/n=%d", n), func(b *testing.B) {
			rounds := 0
			for i := 0; i < b.N; i++ {
				pkts := workload.Permutation(g.Nodes(), packet.Transit, benchSeed+uint64(i))
				s := mustSim(g, pkts, simnet.Options{Seed: uint64(i) * 17})
				rounds += s.Rounds
			}
			b.ReportMetric(float64(rounds)/float64(b.N)/float64(g.Diameter()), "rounds/diam")
		})
		b.Run(fmt.Sprintf("relation/n=%d", n), func(b *testing.B) {
			rounds := 0
			for i := 0; i < b.N; i++ {
				pkts := workload.Relation(g.Nodes(), n, packet.Transit, benchSeed+uint64(i))
				s := mustSim(g, pkts, simnet.Options{Seed: uint64(i) * 17})
				rounds += s.Rounds
			}
			b.ReportMetric(float64(rounds)/float64(b.N)/float64(g.Diameter()), "rounds/diam")
		})
	}
}

// BenchmarkE3ShuffleRouting — Theorem 2.3 / Corollary 2.2: n-way
// shuffle routing in Õ(n) via Algorithm 2.3.
func BenchmarkE3ShuffleRouting(b *testing.B) {
	for _, n := range []int{3, 4, 5} {
		g := shuffle.NewNWay(n)
		spec := g.AsLeveled()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rounds := 0
			for i := 0; i < b.N; i++ {
				pkts := workload.Permutation(g.Nodes(), packet.Transit, benchSeed+uint64(i))
				s := leveled.Route(spec, pkts, leveled.Options{Seed: uint64(i) * 13})
				rounds += s.Rounds
			}
			b.ReportMetric(float64(rounds)/float64(b.N)/float64(n), "rounds/n")
		})
	}
}

// BenchmarkE4HashLoad — Lemma 2.2: max module load of one step's
// addresses under the Karlin-Upfal class, degree S = cL (star n=7:
// N = 5040 modules, L = 9).
func BenchmarkE4HashLoad(b *testing.B) {
	for _, degree := range []int{9, 18, 36} {
		b.Run(fmt.Sprintf("S=%d", degree), func(b *testing.B) {
			maxLoad := 0
			for i := 0; i < b.N; i++ {
				if load := benchHashLoadOnce(5040, degree, benchSeed+uint64(i)); load > maxLoad {
					maxLoad = load
				}
			}
			b.ReportMetric(float64(maxLoad), "maxload")
		})
	}
}

// benchHashLoadOnce draws one hash function and maps n random
// addresses onto n modules, returning the max module load.
func benchHashLoadOnce(n, degree int, seed uint64) int {
	src := prng.New(seed)
	f := hashing.NewClass(1<<30, n, degree).Draw(src)
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = src.Uint64n(1 << 30)
	}
	return f.MaxLoad(addrs)
}

// BenchmarkE5PRAMStepLeveled — Theorems 2.5/2.6: EREW and CRCW step
// emulation on star and shuffle in Õ(diameter).
func BenchmarkE5PRAMStepLeveled(b *testing.B) {
	nets := map[string]emul.Network{
		"star6":    benchNet("star", topology.Params{N: 6}),
		"shuffle4": benchNet("shuffle", topology.Params{N: 4}),
	}
	for name, net := range nets {
		b.Run(name+"/erew", func(b *testing.B) {
			cost := 0
			for i := 0; i < b.N; i++ {
				e := benchEmul(net, emul.Config{Memory: 1 << 24, Seed: benchSeed + uint64(i)})
				_, c := e.RouteRequests(workload.RandomStep(net.Nodes(), 1<<24, false, uint64(i)*7))
				cost += c
			}
			b.ReportMetric(float64(cost)/float64(b.N)/float64(net.Diameter()), "cost/diam")
		})
		b.Run(name+"/crcw-combining", func(b *testing.B) {
			cost := 0
			for i := 0; i < b.N; i++ {
				e := benchEmul(net, emul.Config{Memory: 1 << 24, Seed: benchSeed + uint64(i), Combine: true})
				_, c := e.RouteRequests(workload.CRCWStep(net.Nodes(), 12345))
				cost += c
			}
			b.ReportMetric(float64(cost)/float64(b.N)/float64(net.Diameter()), "cost/diam")
		})
	}
}

// BenchmarkE6StarVsHypercube — the introduction's claim: emulation
// cost tracks diameter, so the star graph (sub-logarithmic diameter)
// beats the hypercube (logarithmic) at comparable sizes.
func BenchmarkE6StarVsHypercube(b *testing.B) {
	configs := []struct {
		name string
		net  emul.Network
	}{
		{"star6-720", benchDirectNet("star", topology.Params{N: 6})},
		{"cube10-1024", benchDirectNet("hypercube", topology.Params{N: 10})},
		{"star7-5040", benchDirectNet("star", topology.Params{N: 7})},
		{"cube12-4096", benchDirectNet("hypercube", topology.Params{N: 12})},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			cost := 0
			for i := 0; i < b.N; i++ {
				e := benchEmul(cfg.net, emul.Config{Memory: 1 << 24, Seed: benchSeed + uint64(i)})
				_, c := e.RouteRequests(workload.RandomStep(cfg.net.Nodes(), 1<<24, false, uint64(i)*3))
				cost += c
			}
			b.ReportMetric(float64(cost)/float64(b.N), "cost")
			b.ReportMetric(float64(cost)/float64(b.N)/float64(cfg.net.Diameter()), "cost/diam")
		})
	}
}

// BenchmarkE7MeshRouting — Theorem 3.1: three-stage mesh routing at
// 2n + o(n) vs Valiant-Brebner at 3n + o(n).
func BenchmarkE7MeshRouting(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		g := mesh.New(n)
		for _, alg := range []struct {
			name string
			a    mesh.Algorithm
		}{{"threestage", mesh.ThreeStage}, {"valiant-brebner", mesh.ValiantBrebner}} {
			b.Run(fmt.Sprintf("%s/n=%d", alg.name, n), func(b *testing.B) {
				rounds := 0
				for i := 0; i < b.N; i++ {
					pkts := workload.Permutation(g.Nodes(), packet.Transit, benchSeed+uint64(i))
					s := mesh.Route(g, pkts, mesh.Options{Seed: uint64(i) * 7, Algorithm: alg.a})
					rounds += s.Rounds
				}
				b.ReportMetric(float64(rounds)/float64(b.N)/float64(n), "rounds/n")
			})
		}
	}
}

// BenchmarkE8MeshEmulation — Theorem 3.2: EREW PRAM step on the mesh,
// two-phase (4n + o(n)) vs Karlin-Upfal four-phase (~8n).
func BenchmarkE8MeshEmulation(b *testing.B) {
	for _, n := range []int{32, 64} {
		g := mesh.New(n)
		for _, scheme := range []struct {
			name string
			s    emul.MeshScheme
		}{{"twophase", emul.TwoPhase}, {"ku4phase", emul.KarlinUpfal4Phase}} {
			b.Run(fmt.Sprintf("%s/n=%d", scheme.name, n), func(b *testing.B) {
				cost := 0
				for i := 0; i < b.N; i++ {
					net := &emul.MeshNetwork{G: g, Scheme: scheme.s}
					e := benchEmul(net, emul.Config{Memory: 1 << 26, Seed: benchSeed + uint64(i)})
					_, c := e.RouteRequests(workload.RandomStep(g.Nodes(), 1<<26, false, uint64(i)*5))
					cost += c
				}
				b.ReportMetric(float64(cost)/float64(b.N)/float64(n), "cost/n")
			})
		}
	}
}

// BenchmarkE9MeshLocality — Theorem 3.3: distance-d-local requests
// complete in O(d), within 6d + o(d).
func BenchmarkE9MeshLocality(b *testing.B) {
	g := mesh.New(128)
	for _, d := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			rounds := 0
			for i := 0; i < b.N; i++ {
				pkts := workload.MeshLocal(g, d, benchSeed+uint64(i))
				s := mesh.Route(g, pkts, mesh.Options{
					Seed:          uint64(i) * 3,
					LocalityBound: d,
					SliceRows:     max(1, d/4),
				})
				rounds += s.Rounds
			}
			b.ReportMetric(float64(rounds)/float64(b.N)/float64(d), "rounds/d")
		})
	}
}

// BenchmarkE10QueueSizes — §3.4 queue discipline ablation.
func BenchmarkE10QueueSizes(b *testing.B) {
	g := mesh.New(64)
	for _, disc := range []struct {
		name string
		d    mesh.Discipline
	}{{"furthest-first", mesh.FurthestFirst}, {"fifo", mesh.FIFODiscipline}} {
		b.Run(disc.name, func(b *testing.B) {
			maxQ, rounds := 0, 0
			for i := 0; i < b.N; i++ {
				pkts := workload.Permutation(g.Nodes(), packet.Transit, benchSeed+uint64(i))
				s := mesh.Route(g, pkts, mesh.Options{Seed: uint64(i) * 19, Discipline: disc.d})
				rounds += s.Rounds
				if s.MaxQueue > maxQ {
					maxQ = s.MaxQueue
				}
			}
			b.ReportMetric(float64(maxQ), "maxQ")
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds")
		})
	}
}

// BenchmarkE11Rehash — §2.1: rehash frequency across emulated steps
// (expected: zero on healthy configurations).
func BenchmarkE11Rehash(b *testing.B) {
	net := benchNet("star", topology.Params{N: 5})
	b.Run("star5", func(b *testing.B) {
		e := benchEmul(net, emul.Config{Memory: 1 << 22, Seed: benchSeed})
		for i := 0; i < b.N; i++ {
			e.RouteRequests(workload.RandomStep(net.Nodes(), 1<<22, i%2 == 0, uint64(i)))
		}
		b.ReportMetric(float64(e.Rehashes()), "rehashes")
	})
}

// BenchmarkE12SortVsRoute — §2.2.1: sorting-based deterministic
// routing vs the randomized three-stage algorithm.
func BenchmarkE12SortVsRoute(b *testing.B) {
	for _, n := range []int{32, 64} {
		g := mesh.New(n)
		b.Run(fmt.Sprintf("shearsort/n=%d", n), func(b *testing.B) {
			rounds := 0
			for i := 0; i < b.N; i++ {
				pkts := workload.Permutation(g.Nodes(), packet.Transit, benchSeed+uint64(i))
				rounds += mesh.SortRoute(g, pkts)
			}
			b.ReportMetric(float64(rounds)/float64(b.N)/float64(n), "rounds/n")
		})
		b.Run(fmt.Sprintf("threestage/n=%d", n), func(b *testing.B) {
			rounds := 0
			for i := 0; i < b.N; i++ {
				pkts := workload.Permutation(g.Nodes(), packet.Transit, benchSeed+uint64(i))
				s := mesh.Route(g, pkts, mesh.Options{Seed: uint64(i)})
				rounds += s.Rounds
			}
			b.ReportMetric(float64(rounds)/float64(b.N)/float64(n), "rounds/n")
		})
	}
}

// speedupCase is one large-n configuration of the E13 harness: route
// runs once with Workers=1 and once with Workers=GOMAXPROCS on
// identical workloads (the engine guarantees identical results), and
// the wall-clock ratio is the parallel engine's speedup.
type speedupCase struct {
	name string
	run  func(seed uint64, workers int) int // returns Rounds
}

func speedupCases() []speedupCase {
	return []speedupCase{
		{"star7-relation", func(seed uint64, workers int) int {
			g := star.New(7) // 5040 nodes, 7-relation: 35280 packets
			pkts := workload.Relation(g.Nodes(), 7, packet.Transit, seed)
			return leveled.Route(g.AsLeveled(), pkts, leveled.Options{Seed: seed * 31, Workers: workers}).Rounds
		}},
		{"butterfly14-perm", func(seed uint64, workers int) int {
			spec := leveled.NewButterfly(14) // 16384 rows, 15 levels
			pkts := workload.Permutation(spec.Width(), packet.Transit, seed)
			return leveled.Route(spec, pkts, leveled.Options{Seed: seed * 31, Workers: workers}).Rounds
		}},
		{"mesh128-perm", func(seed uint64, workers int) int {
			g := mesh.New(128) // 16384 nodes
			pkts := workload.Permutation(g.Nodes(), packet.Transit, seed)
			return mesh.Route(g, pkts, mesh.Options{Seed: seed * 31, Workers: workers}).Rounds
		}},
	}
}

// BenchmarkE13ParallelEngine — the parallel sharded round engine PR:
// each sub-benchmark reports seq_rounds/sec (Workers=1),
// par_rounds/sec (Workers=GOMAXPROCS) and their wall-clock ratio as
// "speedup" (> 1 means the parallel engine wins; expect ~1 on a
// single-core runner, where the engine degrades to the sequential
// loop).
func BenchmarkE13ParallelEngine(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	for _, c := range speedupCases() {
		b.Run(c.name, func(b *testing.B) {
			var seqNS, parNS time.Duration
			var rounds int
			for i := 0; i < b.N; i++ {
				seed := benchSeed + uint64(i)
				t0 := time.Now()
				seqRounds := c.run(seed, 1)
				seqNS += time.Since(t0)
				t0 = time.Now()
				parRounds := c.run(seed, workers)
				parNS += time.Since(t0)
				if seqRounds != parRounds {
					b.Fatalf("determinism violated: seq %d rounds, par %d", seqRounds, parRounds)
				}
				rounds += seqRounds
			}
			b.ReportMetric(float64(rounds)/seqNS.Seconds(), "seq_rounds/sec")
			b.ReportMetric(float64(rounds)/parNS.Seconds(), "par_rounds/sec")
			b.ReportMetric(seqNS.Seconds()/parNS.Seconds(), "speedup")
		})
	}
}

// BenchmarkE15EngineHotPath — the flat-state round engine PR: the
// same large-n configurations priced on the dense slice-table path
// and on the hashed link-index fallback (forced by a one-byte
// MemBudget, as an over-budget run degrades), with Workers: 1
// so the metrics isolate the data plane. ns/round, B/round and
// allocs/round are per simulated round across all trials; packets
// come from one slab arena recycled per trial. The residual B/round
// is injection-time setup (per-packet PRNG substreams, workload
// vectors) amortized over the run — steady-state rounds themselves
// allocate zero, which TestSteadyStateRoundIsAllocationFree asserts
// exactly.
func BenchmarkE15EngineHotPath(b *testing.B) {
	type hotCase struct {
		name string
		run  func(a *packet.Arena, seed uint64, hashed bool) int // returns Rounds
	}
	cases := []hotCase{
		{"star7-relation", func(a *packet.Arena, seed uint64, hashed bool) int {
			g := star.New(7) // 5040 nodes, 7-relation: 35280 packets
			pkts := workload.RelationInto(a, g.Nodes(), 7, packet.Transit, seed)
			return leveled.Route(g.AsLeveled(), pkts, leveled.Options{
				Seed: seed * 31, Workers: 1, MemBudget: hashedBudget(hashed),
			}).Rounds
		}},
		{"shuffle5-perm", func(a *packet.Arena, seed uint64, hashed bool) int {
			g := shuffle.NewNWay(5) // 3125 nodes, 6-column unrolling
			pkts := workload.PermutationInto(a, g.Nodes(), packet.Transit, seed)
			return leveled.Route(g.AsLeveled(), pkts, leveled.Options{
				Seed: seed * 31, Workers: 1, MemBudget: hashedBudget(hashed),
			}).Rounds
		}},
		{"mesh128-perm", func(a *packet.Arena, seed uint64, hashed bool) int {
			g := mesh.New(128) // 16384 nodes, furthest-first sorted queues
			pkts := workload.PermutationInto(a, g.Nodes(), packet.Transit, seed)
			return mesh.Route(g, pkts, mesh.Options{
				Seed: seed * 31, Workers: 1, MemBudget: hashedBudget(hashed),
			}).Rounds
		}},
	}
	for _, c := range cases {
		for _, mode := range []struct {
			name   string
			hashed bool
		}{{"dense", false}, {"hashed", true}} {
			b.Run(c.name+"/"+mode.name, func(b *testing.B) {
				arena := packet.NewArena()
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				rounds := 0
				b.ResetTimer()
				start := time.Now()
				for i := 0; i < b.N; i++ {
					arena.Reset()
					rounds += c.run(arena, benchSeed+uint64(i), mode.hashed)
				}
				elapsed := time.Since(start)
				b.StopTimer()
				runtime.ReadMemStats(&after)
				b.ReportMetric(float64(elapsed.Nanoseconds())/float64(rounds), "ns/round")
				b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(rounds), "B/round")
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(rounds), "allocs/round")
				b.ReportMetric(float64(rounds)/elapsed.Seconds(), "rounds/sec")
			})
		}
	}
}

// BenchmarkE16ScenarioMatrix — the workload-registry payoff: every
// registered topology family priced against every applicable
// registered workload generator, the full cross-product of the two
// registries gated by the workload capability checks. A family or
// generator registered tomorrow appears as a new sub-benchmark with
// no edits here. Cells run at the quick comparable sizes on the
// scenario runner (the same path -sweep uses), Workers: 1.
func BenchmarkE16ScenarioMatrix(b *testing.B) {
	sizes := experiments.CrossFamilySizes(true)
	for _, family := range topology.Names() {
		p := sizes[family]
		bt, err := topology.Build(family, p)
		if err != nil {
			b.Fatalf("%s: %v", family, err)
		}
		for _, wl := range workload.Names() {
			gen, _ := workload.Lookup(wl)
			if gen.Check(bt) != nil {
				continue // capability-gated pair (e.g. bitrev on a factorial family)
			}
			cell := scenario.Cell{
				Topo:    scenario.TopoRef{Family: family, N: p.N, K: p.K, Leveled: bt.Spec != nil},
				Work:    scenario.WorkRef{Name: wl},
				Built:   bt, // reuse the built graph so ns/op prices routing, not construction
				Workers: 1,
				Trials:  1,
			}
			b.Run(family+"/"+wl, func(b *testing.B) {
				rounds, diam := 0, 1
				for i := 0; i < b.N; i++ {
					cell.Seed = benchSeed + uint64(i)
					res, err := scenario.RunCell(cell)
					if err != nil {
						b.Fatal(err)
					}
					rounds += res.RoundsMax
					diam = res.Diameter
				}
				b.ReportMetric(float64(rounds)/float64(b.N)/float64(diam), "rounds/diam")
			})
		}
	}
}

// BenchmarkE17EmulationMatrix — Theorems 2.5/2.6 over the whole grid:
// one emulated PRAM step priced on every emulation-capable registered
// family × every single-step access pattern × both emulation modes
// (erew: exclusive accesses; crcw: combining enabled). The reported
// cost/diam is the theorems' bound — emulation cost tracks the
// diameter, whatever the family — and a family or generator
// registered tomorrow appears as new sub-benchmarks with no edits
// here. Cells run on the scenario runner's emulation path (the same
// one `-sweep` specs with a mode axis use), Workers: 1.
func BenchmarkE17EmulationMatrix(b *testing.B) {
	sizes := experiments.CrossFamilySizes(true)
	for _, family := range topology.Names() {
		p := sizes[family]
		bt, err := topology.Build(family, p)
		if err != nil {
			b.Fatalf("%s: %v", family, err)
		}
		for _, wl := range workload.Names() {
			gen, _ := workload.Lookup(wl)
			if gen.Check(bt) != nil {
				continue // capability-gated pair
			}
			for _, mode := range []string{scenario.ModeEREW, scenario.ModeCRCW} {
				if scenario.ModeCheck(mode, gen.Class) != nil {
					continue // e.g. many-one patterns are crcw-only
				}
				cell := scenario.Cell{
					Topo:    scenario.TopoRef{Family: family, N: p.N, K: p.K, Leveled: bt.Spec != nil},
					Work:    scenario.WorkRef{Name: wl},
					Built:   bt,
					Mode:    mode,
					Workers: 1,
					Trials:  1,
				}
				b.Run(family+"/"+wl+"/"+mode, func(b *testing.B) {
					cost, diam := 0, 1
					for i := 0; i < b.N; i++ {
						cell.Seed = benchSeed + uint64(i)
						res, err := scenario.RunCell(cell)
						if err != nil {
							b.Fatal(err)
						}
						cost += res.RoundsMax
						diam = res.Diameter
					}
					b.ReportMetric(float64(cost)/float64(b.N)/float64(diam), "cost/diam")
				})
			}
		}
	}
}

// BenchmarkE18AsynchronyMatrix — routing under asynchrony: every
// registered family × a permutation and a many-one workload, priced
// on the synchronous round engine and on the asynchronous event
// engine at each fault level of the E18 ladder (none / moderate /
// harsh). ticks/diam is the asynchronous counterpart of rounds/diam —
// the last delivery tick over the diameter — and retransmits/op
// prices the loss recovery of the drop axis explicitly. Cells run on
// the scenario runner (the same path `-sweep` specs with an engine
// axis use) at the quick comparable sizes, Workers: 1.
func BenchmarkE18AsynchronyMatrix(b *testing.B) {
	sizes := experiments.CrossFamilySizes(true)
	latency := experiments.E18Latency()
	for _, family := range topology.Names() {
		p := sizes[family]
		bt, err := topology.Build(family, p)
		if err != nil {
			b.Fatalf("%s: %v", family, err)
		}
		for _, wl := range []string{"perm", "khot"} {
			gen, _ := workload.Lookup(wl)
			if gen.Check(bt) != nil {
				continue // capability-gated pair
			}
			run := func(name string, cell scenario.Cell) {
				b.Run(family+"/"+wl+"/"+name, func(b *testing.B) {
					ticks, retransmits, diam := 0, 0, 1
					for i := 0; i < b.N; i++ {
						cell.Seed = benchSeed + uint64(i)
						res, err := scenario.RunCell(cell)
						if err != nil {
							b.Fatal(err)
						}
						ticks += res.RoundsMax
						retransmits += res.Retransmits
						diam = res.Diameter
					}
					b.ReportMetric(float64(ticks)/float64(b.N)/float64(diam), "ticks/diam")
					b.ReportMetric(float64(retransmits)/float64(b.N), "retransmits/op")
				})
			}
			base := scenario.Cell{
				Topo:    scenario.TopoRef{Family: family, N: p.N, K: p.K, Leveled: bt.Spec != nil},
				Work:    scenario.WorkRef{Name: wl},
				Built:   bt, // reuse the built graph so ns/op prices routing, not construction
				Workers: 1,
				Trials:  1,
			}
			run("round", base)
			for _, fault := range experiments.E18FaultLevels() {
				cell := base
				cell.Engine = scenario.EngineEvent
				cell.Latency = *latency
				cell.Fault = fault
				run("event/"+fault.Name, cell)
			}
		}
	}
}

// BenchmarkE14CrossFamily — the topology-registry payoff: permutation
// routing priced on every registered family at comparable sizes, with
// rounds/diam as the reported metric. The paper's framework predicts
// a modest constant on every family — including the four registered
// after the refactor (pancake, ttree, torus, debruijn) — because the
// two-phase argument only uses the unique-path structure, never the
// family identity.
func BenchmarkE14CrossFamily(b *testing.B) {
	sizes := experiments.CrossFamilySizes(false)
	for _, name := range topology.Names() {
		bt, err := topology.Build(name, sizes[name])
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		b.Run(name, func(b *testing.B) {
			rounds := 0
			for i := 0; i < b.N; i++ {
				pkts := workload.Permutation(bt.Nodes(), packet.Transit, benchSeed+uint64(i))
				if bt.Spec != nil {
					rounds += leveled.Route(bt.Spec, pkts, leveled.Options{Seed: uint64(i) * 23}).Rounds
				} else {
					rounds += mustSim(bt.Graph, pkts, simnet.Options{Seed: uint64(i) * 23}).Rounds
				}
			}
			b.ReportMetric(float64(rounds)/float64(b.N)/float64(bt.Diameter()), "rounds/diam")
			b.ReportMetric(float64(bt.Diameter()), "diam")
		})
	}
}

// BenchmarkE19ScaleCeiling — the paged-tables/64-bit-key PR: the E19
// A/B rungs (quick sizes; the full 16.7M-node ladder lives in the
// table, not a benchmark loop), each priced once on the flat dense
// tables and once under experiments.E19PagedBudget, which steps them
// down to paged tables. Identical rounds by
// construction — the engine guarantees bit-identical routing across
// table states — so the comparison isolates the paged directory's
// cost: tableB and B/node price the footprint, ns/op the indirection.
func BenchmarkE19ScaleCeiling(b *testing.B) {
	ab, _ := experiments.E19Sizes(true)
	for _, ref := range ab {
		bt, err := topology.Build(ref.Family, topology.Params{N: ref.N, K: ref.K})
		if err != nil {
			b.Fatalf("%s: %v", ref.Family, err)
		}
		for _, layout := range []struct {
			state  string
			budget int64
		}{{"dense", 0}, {"paged", experiments.E19PagedBudget}} {
			cell := scenario.Cell{
				Topo:      ref,
				Work:      scenario.WorkRef{Name: "perm"},
				Built:     bt, // reuse the built graph so ns/op prices routing, not construction
				Workers:   1,
				Trials:    1,
				MemBudget: layout.budget,
			}
			b.Run(fmt.Sprintf("%s%d/%s", ref.Family, bt.Nodes(), layout.state), func(b *testing.B) {
				rounds, diam := 0, 1
				var last scenario.Result
				for i := 0; i < b.N; i++ {
					cell.Seed = benchSeed + uint64(i)
					res, err := scenario.RunCell(cell)
					if err != nil {
						b.Fatal(err)
					}
					if res.State != layout.state {
						b.Fatalf("resolved %s tables, want %s", res.State, layout.state)
					}
					rounds += res.RoundsMax
					diam = res.Diameter
					last = res
				}
				b.ReportMetric(float64(rounds)/float64(b.N)/float64(diam), "rounds/diam")
				b.ReportMetric(float64(last.TableBytes), "tableB")
				b.ReportMetric(last.BPerNode, "B/node")
			})
		}
	}
}

// BenchmarkE20BuildCache — the cross-cell build-cache PR: the same
// cross-family sweep priced cold (a fresh cache per iteration, so
// every topology is constructed) and warm (one cache primed before
// the loop, so every build is adopted and only routing is paid). The
// ns/op gap is the construction cost the cache removes from a warm
// sweep farm; build-ms/sweep isolates it, and KB/cell shows the
// allocation the cache and the pooled arenas/tables avoid. Routing is
// bit-identical across the two modes by construction — the E20 table
// asserts it — so the comparison prices reuse, nothing else.
func BenchmarkE20BuildCache(b *testing.B) {
	sizes := experiments.CrossFamilySizes(true)
	var topos []scenario.TopoRef
	for _, family := range topology.Names() {
		p := sizes[family]
		bt, err := topology.Build(family, p)
		if err != nil {
			b.Fatalf("%s: %v", family, err)
		}
		topos = append(topos, scenario.TopoRef{Family: family, N: p.N, K: p.K, Leveled: bt.Spec != nil})
	}
	spec := scenario.Spec{
		Name:             "bench-e20",
		Topologies:       topos,
		Workloads:        []scenario.WorkRef{{Name: "perm"}},
		Workers:          []int{1},
		Trials:           1,
		Seed:             benchSeed,
		SkipIncompatible: true,
	}
	priceSweep := func(b *testing.B, nextCache func() *buildcache.Cache) {
		var m0, m1 runtime.MemStats
		var buildNS int64
		cells := 1
		runtime.GC()
		runtime.ReadMemStats(&m0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cache := nextCache()
			before := cache.Stats()
			results, err := scenario.RunContextOptions(context.Background(), spec, scenario.RunOptions{Cache: cache})
			if err != nil {
				b.Fatal(err)
			}
			buildNS += cache.Stats().Delta(before).BuildNS
			cells = len(results)
		}
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		b.ReportMetric(float64(buildNS)/float64(b.N)/1e6, "build-ms/sweep")
		b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(b.N)/float64(cells)/1024, "KB/cell")
	}
	b.Run("cold", func(b *testing.B) {
		priceSweep(b, func() *buildcache.Cache { return buildcache.New(buildcache.DefaultBudget) })
	})
	b.Run("warm", func(b *testing.B) {
		cache := buildcache.New(buildcache.DefaultBudget)
		if _, err := scenario.RunContextOptions(context.Background(), spec, scenario.RunOptions{Cache: cache}); err != nil {
			b.Fatal(err)
		}
		priceSweep(b, func() *buildcache.Cache { return cache })
	})
}

// BenchmarkE21AdversarialBounds prices the adversarial search per
// strategy on a three-family slice of the registry and reports the
// worst observed rounds/diam each strategy reaches — the tail the
// whp bounds hide, as a benchmark series. The budgets are small: the
// benchmark tracks the searchers' cost and their findings' severity
// across commits, not the full nightly hunt.
func BenchmarkE21AdversarialBounds(b *testing.B) {
	families := []scenario.TopoRef{
		{Family: "hypercube", N: 8},
		{Family: "torus", N: 4, K: 4},
		{Family: "mesh", N: 16},
	}
	for _, strategy := range advsearch.Strategies() {
		b.Run(strategy, func(b *testing.B) {
			worst := 0.0
			for i := 0; i < b.N; i++ {
				rep, err := advsearch.Run(context.Background(), advsearch.Spec{
					Name:       "bench-e21",
					Families:   families,
					Strategies: []string{strategy},
					Seeds:      8,
					Iters:      8,
					Trials:     1,
					Seed:       benchSeed,
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, f := range rep.Findings {
					if f.RoundsPerDiam > worst {
						worst = f.RoundsPerDiam
					}
				}
			}
			b.ReportMetric(worst, "worst-rounds/diam")
		})
	}
}
