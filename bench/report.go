package main

import "slices"

// metric is one printed measurement.
type metric struct {
	name, unit string
	value      float64
}

// endToEnd computes the metrics of an untraced run: what a user of the
// simulator sees. Host timings come from the timed ops; the simulated
// metrics are geometric means over the digest prefix, so they repeat
// exactly per seed.
func endToEnd(r *result) []metric {
	return []metric{
		{"setup_s", "s", quantile(r.setups, 0.5)},
		{"cells_per_s", "cells/s", quantile(r.cycleRates, 0.5)},
		{"op_ms_p50", "ms", quantile(r.lat, 0.5)},
		{"op_ms_p90", "ms", quantile(r.lat, 0.9)},
		{"max_rss_mb", "MiB", float64(r.maxRSS) / 1024},
		{"rounds_per_diam", "rounds/diam", r.rpd},
		{"max_queue", "packets", r.maxQ},
	}
}

// layerAgg sums the timed spans of one or more span names.
type layerAgg struct {
	n          int
	durs       []float64 // ms per span
	dur, self  float64   // ns
	c          counts    // summed counters
	hashed     int       // spans whose engine state was hashed
	tablePerN  float64   // summed table bytes per node
	arenaPerN  float64   // summed arena bytes per node
	withTables int       // spans that report engine tables
}

// timedSpans are the finished spans of timed ops (Op >= 0), with the
// self times of every span.
type timedSpans struct {
	spans []span
	self  map[int]int64
}

func newTimedSpans(all []span) timedSpans {
	ts := timedSpans{self: selfTimes(all)}
	for _, s := range all {
		if s.Op >= 0 && s.End > s.Start {
			ts.spans = append(ts.spans, s)
		}
	}
	return ts
}

// sum aggregates the spans with any of the given names.
func (ts timedSpans) sum(names ...string) *layerAgg {
	a := &layerAgg{}
	for _, s := range ts.spans {
		if !slices.Contains(names, s.Name) {
			continue
		}
		d := float64(s.End - s.Start)
		a.n++
		a.durs = append(a.durs, d/1e6)
		a.dur += d
		a.self += float64(ts.self[s.ID])
		a.c.Allocs += s.Allocs
		a.c.Pkts += s.Pkts
		a.c.Hops += s.Hops
		a.c.Rounds += s.Rounds
		a.c.Merges += s.Merges
		a.c.Retransmits += s.Retransmits
		a.c.Rehashes += s.Rehashes
		if s.Nodes > 0 && s.TableBytes > 0 {
			a.withTables++
			a.tablePerN += float64(s.TableBytes) / float64(s.Nodes)
			a.arenaPerN += float64(s.ArenaBytes) / float64(s.Nodes)
			if s.Hashed {
				a.hashed++
			}
		}
	}
	return a
}

// perSecond is a count per second of span time.
func (a *layerAgg) perSecond(count int) float64 { return ratio(float64(count), a.dur/1e9) }

// perLayer computes the metrics of a traced run. Every workload prints
// every metric; a layer the workload does not call reads 0. Layer time
// is reported as throughput or as a share of op time, so a layer's
// absolute time per op is its share times trace.op_ms_p50.
func perLayer(r *result) []metric {
	ts := newTimedSpans(r.tracer.spans)
	op := ts.sum("op")
	ops := float64(op.n)
	// The innermost simulator call on each workload's path: the router on
	// the direct workloads, RunCellSafe on sweep-cold.
	sim := ts.sum("simnet.route", "leveled.route", "mesh.route", "event.route", "scenario.cell")
	rounds := ts.sum("simnet.route", "leveled.route", "mesh.route")
	gen := ts.sum("workload.generate")
	work := ts.sum("workload.generate", "workload.step_requests")
	event := ts.sum("event.route")
	step := ts.sum("emul.step")
	pool := ts.sum("scenario.pool")
	cells := ts.sum("scenario.cell")
	// Sweep cells run on a pool, so their span time can exceed op time.
	width := 1.0
	if r.cfg.w.kinds == nil {
		width = sweepPool
	}
	ms := []metric{
		{"trace.op_ms_p50", "ms", quantile(op.durs, 0.5)},
		{"trace.cells_per_s", "cells/s", quantile(r.cycleRates, 0.5)},
		{"sim.ms_p50", "ms", quantile(sim.durs, 0.5)},
		{"sim.ms_p90", "ms", quantile(sim.durs, 0.9)},
		{"sim.ns_per_round", "ns", ratio(sim.dur, float64(sim.c.Rounds))},
		{"sim.share", "ratio", ratio(sim.dur, width*op.dur)},
		{"topology.build_ms", "ms", ratio(float64(r.builds.BuildNS)/1e6, float64(r.builds.Misses))},
		{"buildcache.misses_per_op", "count", ratio(float64(r.timedBuilds.Misses), ops)},
		{"workload.share", "ratio", ratio(work.dur, op.dur)},
		{"workload.pkts_per_s", "pkts/s", gen.perSecond(gen.c.Pkts)},
	}
	for _, name := range []string{"simnet", "leveled", "mesh"} {
		a := ts.sum(name + ".route")
		ms = append(ms,
			metric{name + ".hops_per_s", "hops/s", a.perSecond(a.c.Hops)},
			metric{name + ".rounds_per_s", "rounds/s", a.perSecond(a.c.Rounds)},
			metric{name + ".allocs_per_round", "count", ratio(float64(a.c.Allocs), float64(a.c.Rounds))},
		)
	}
	ms = append(ms,
		metric{"event.hops_per_s", "hops/s", event.perSecond(event.c.Hops)},
		metric{"event.ticks_per_s", "ticks/s", event.perSecond(event.c.Rounds)},
		metric{"event.retransmit_ratio", "ratio", ratio(float64(event.c.Retransmits), float64(event.c.Hops+event.c.Retransmits))},
		metric{"event.allocs_per_op", "count", ratio(float64(event.c.Allocs), float64(event.n))},
		metric{"engine.speedup_w2", "ratio", speedupW2(r, ts)},
		metric{"engine.table_b_per_node", "B", ratio(rounds.tablePerN, float64(rounds.withTables))},
		metric{"engine.hashed_share", "ratio", ratio(float64(rounds.hashed), float64(rounds.withTables))},
		metric{"engine.rounds_per_op", "count", ratio(float64(rounds.c.Rounds), ops)},
		metric{"engine.hops_per_op", "count", ratio(float64(rounds.c.Hops), ops)},
		metric{"packet.arena_b_per_node", "B", ratio(rounds.arenaPerN, float64(rounds.withTables))},
		metric{"emul.new_share", "ratio", ratio(ts.sum("emul.new").dur, op.dur)},
		metric{"emul.self_share", "ratio", ratio(step.self, op.dur)},
		metric{"emul.merges_per_req", "ratio", ratio(float64(step.c.Merges), float64(step.c.Pkts))},
		metric{"emul.rehashes", "count", float64(step.c.Rehashes)},
		metric{"emul.allocs_per_step", "count", ratio(float64(step.c.Allocs), float64(step.n))},
		metric{"scenario.pool_idle_share", "ratio", poolIdle(cells, pool)},
		metric{"scenario.expand_share", "ratio", ratio(ts.sum("scenario.expand").dur, op.dur)},
		metric{"scenario.encode_share", "ratio", ratio(ts.sum("scenario.encode").dur, op.dur)},
	)
	return append(ms, runtimeMetrics(r)...)
}

// poolIdle is the share of the sweep pool's worker time not spent in a
// cell: 1 - Σcell / (width × pool wall time); 0 without a pool.
func poolIdle(cells, pool *layerAgg) float64 {
	if pool.dur == 0 {
		return 0
	}
	return 1 - cells.dur/(sweepPool*pool.dur)
}

// speedupW2 is the geometric mean, over the configurations routed at
// both one and two engine workers, of the median one-worker route time
// divided by the median two-worker route time; 0 when no configuration
// runs at two workers.
func speedupW2(r *result, ts timedSpans) float64 {
	k := len(r.kinds)
	if k == 0 {
		return 0
	}
	byKind := make([][]float64, k)
	for _, s := range ts.spans {
		if s.Name == "simnet.route" || s.Name == "leveled.route" || s.Name == "mesh.route" {
			byKind[s.Op%k] = append(byKind[s.Op%k], float64(s.End-s.Start))
		}
	}
	var speedups []float64
	for i, a := range r.kinds {
		for j, b := range r.kinds {
			if a.Workers == 1 && b.Workers == 2 && a.Topo == b.Topo && a.Work == b.Work && a.Mode == b.Mode && a.Engine == b.Engine {
				speedups = append(speedups, ratio(quantile(byKind[i], 0.5), quantile(byKind[j], 0.5)))
			}
		}
	}
	return geomean(speedups)
}

// runtimeMetrics are the Go runtime's costs over the timed phase, read
// from runtime.ReadMemStats once before and once after it.
func runtimeMetrics(r *result) []metric {
	ops := float64(len(r.lat))
	m0, m1 := r.mem[0], r.mem[1]
	return []metric{
		{"runtime.alloc_b_per_op", "B", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), ops)},
		{"runtime.allocs_per_op", "count", ratio(float64(m1.Mallocs-m0.Mallocs), ops)},
		{"runtime.gc_cycles_per_op", "count", ratio(float64(m1.NumGC-m0.NumGC), ops)},
		{"runtime.gc_pause_us_per_op", "us", ratio(float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e3, ops)},
	}
}
