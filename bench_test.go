// Package pramemu's root benchmark harness. BenchmarkExperiments
// runs every table of the experiment index (DESIGN.md's E1-E21, the
// internal/experiments Index) at its quick sizes and logs the
// rendered table, so `go test -bench=.` output reads directly against
// the paper: Theorem 2.1 predicts a flat rounds/l column, Theorem 3.1
// a rounds/n near 2, Theorem 3.2 a cost/n near 4, etc. E13 and E15
// price this repository's round engine rather than a paper table, so
// they stay benchmarks of their own.
package pramemu

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"pramemu/internal/experiments"
	"pramemu/internal/leveled"
	"pramemu/internal/mesh"
	"pramemu/internal/packet"
	"pramemu/internal/shuffle"
	"pramemu/internal/star"
	"pramemu/internal/workload"
)

const benchSeed = 1991

// BenchmarkExperiments regenerates each experiment table once per
// iteration at quick sizes and a single trial; ns/op is the table's
// cost, and the table itself goes to the benchmark log (go test trims
// a benchmark's log to ten lines unless -v is given).
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Index {
		b.Run(e.ID, func(b *testing.B) {
			var table string
			for i := 0; i < b.N; i++ {
				table = e.Run(experiments.Options{Quick: true, Trials: 1}).String()
			}
			b.Log("\n" + strings.TrimSuffix(table, "\n"))
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
