package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"pramemu/internal/mathx"
	"pramemu/internal/metrics"
	"pramemu/internal/workload"
)

// DistStats summarizes one metric's per-trial sample — the tail the
// mean-only columns hide. Hist is a fixed-width histogram over
// [HistLo, HistLo+len(Hist)*HistW): bucket i counts samples in
// [HistLo+i*HistW, HistLo+(i+1)*HistW), with the top bucket absorbing
// the maximum. Everything derives deterministically from the sample.
type DistStats struct {
	N      int     `json:"n"`
	Max    int     `json:"max"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	P99    float64 `json:"p99"`
	P999   float64 `json:"p999"`
	HistLo int     `json:"hist_lo"`
	HistW  int     `json:"hist_w"`
	Hist   []int   `json:"hist"`
}

// distHistBuckets caps the histogram width so distribution rows stay
// one readable line even for thousand-seed sweeps.
const distHistBuckets = 16

// NewDistStats summarizes an integer sample into distribution
// statistics. It returns the zero value for an empty sample (a cell
// group that carried no per-trial arrays contributes nothing).
func NewDistStats(samples []int) DistStats {
	if len(samples) == 0 {
		return DistStats{}
	}
	s := mathx.SummarizeInts(samples)
	lo, hi := samples[0], samples[0]
	for _, x := range samples {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	buckets := hi - lo + 1
	if buckets > distHistBuckets {
		buckets = distHistBuckets
	}
	w := (hi - lo + buckets) / buckets // ceil((hi-lo+1)/buckets)
	if w < 1 {
		w = 1
	}
	hist := make([]int, buckets)
	for _, x := range samples {
		i := (x - lo) / w
		if i >= buckets {
			i = buckets - 1
		}
		hist[i]++
	}
	return DistStats{
		N:      s.N,
		Max:    hi,
		Mean:   s.Mean,
		StdDev: s.StdDev,
		P99:    s.P99,
		P999:   s.P999,
		HistLo: lo,
		HistW:  w,
		Hist:   hist,
	}
}

// ReportRow is one line of the sweep-level derived report: either a
// "speedup" row (one cell of the engine-workers axis, with the
// wall-clock speedup over the group's smallest workers value when the
// sweep was timed) or a "class" row (one traffic class × emulation
// mode aggregated across every family in the sweep). The Report field
// discriminates the two, so report rows can ride in the same JSONL
// stream as Result rows without ambiguity — Result has no "report"
// key.
type ReportRow struct {
	Report string `json:"report"` // "speedup" | "class" | "dist"

	// Speedup rows: Scenario is the cell key with the trailing
	// workers segment stripped (the group identity), Workers the axis
	// value, and Speedup the wall-clock ratio against the group's
	// smallest workers value (1.0 for the baseline itself; 0 when the
	// sweep carried no timing). RoundsMean documents the engine
	// invariant: it is identical across the group's rows.
	Scenario     string  `json:"scenario,omitempty"`
	Workers      int     `json:"workers,omitempty"`
	RoundsMean   float64 `json:"rounds_mean,omitempty"`
	RoundsPerSec float64 `json:"rounds_per_sec,omitempty"`
	Speedup      float64 `json:"speedup,omitempty"`

	// Class rows: aggregates across families for one (traffic class,
	// mode) pair — Cells grid cells over Families distinct families.
	Class             string  `json:"class,omitempty"`
	Mode              string  `json:"mode,omitempty"`
	Cells             int     `json:"cells,omitempty"`
	Families          int     `json:"families,omitempty"`
	RoundsPerDiamMean float64 `json:"rounds_per_diam_mean,omitempty"`
	RoundsPerDiamMax  float64 `json:"rounds_per_diam_max,omitempty"`
	MaxQueue          int     `json:"max_queue,omitempty"`

	// Dist rows: tail statistics over the per-trial samples of every
	// Distribution cell sharing one workers-stripped scenario key (the
	// engine invariant makes the rounds identical along the workers
	// axis, so pooling the group costs nothing). Present only when the
	// sweep ran with "distribution": true.
	RoundsDist *DistStats `json:"rounds_dist,omitempty"`
	MaxQDist   *DistStats `json:"max_q_dist,omitempty"`
}

// Report derives the sweep-level summary rows from a sweep's results:
// speedup rows across the engine-workers axis (for every group of
// cells identical up to Workers, when the axis has more than one
// value) followed by per-class aggregate rows across families. Both
// orderings are canonical — by scenario key and workers, then by
// class and mode — so the report is as deterministic as its inputs
// (wall-clock speedups, when present, are inherently run-dependent).
func Report(results []Result) []ReportRow {
	rows := append(speedupRows(results), classRows(results)...)
	return append(rows, distRows(results)...)
}

// distRows derives the tail-statistics rows from Distribution cells:
// results carrying per-trial arrays are grouped by their
// workers-stripped scenario key and each group's pooled samples are
// summarized. Sweeps without the distribution axis produce none.
func distRows(results []Result) []ReportRow {
	type samples struct {
		rounds, maxQ []int
	}
	groups := make(map[string]*samples)
	var keys []string
	for _, r := range results {
		if len(r.TrialRounds) == 0 && len(r.TrialMaxQ) == 0 {
			continue
		}
		base := workersStrippedKey(r)
		g := groups[base]
		if g == nil {
			g = &samples{}
			groups[base] = g
			keys = append(keys, base)
		}
		g.rounds = append(g.rounds, r.TrialRounds...)
		g.maxQ = append(g.maxQ, r.TrialMaxQ...)
	}
	sort.Strings(keys)
	var rows []ReportRow
	for _, base := range keys {
		g := groups[base]
		row := ReportRow{Report: "dist", Scenario: base}
		if len(g.rounds) > 0 {
			d := NewDistStats(g.rounds)
			row.RoundsDist = &d
		}
		if len(g.maxQ) > 0 {
			d := NewDistStats(g.maxQ)
			row.MaxQDist = &d
		}
		rows = append(rows, row)
	}
	return rows
}

// speedupRows groups results by their workers-stripped scenario key
// and emits one row per (group, workers) cell for groups that sweep
// more than one workers value. Speedup is computed from RoundsPerSec
// when the results carry timing (routebench -sweep -report times its
// run); untimed results still get their rows — documenting that
// RoundsMean is identical along the axis — with Speedup zero.
func speedupRows(results []Result) []ReportRow {
	groups := make(map[string][]Result)
	var keys []string
	for _, r := range results {
		base := workersStrippedKey(r)
		if _, seen := groups[base]; !seen {
			keys = append(keys, base)
		}
		groups[base] = append(groups[base], r)
	}
	sort.Strings(keys)
	var rows []ReportRow
	for _, base := range keys {
		group := groups[base]
		if len(group) < 2 {
			continue
		}
		// Order by the EFFECTIVE worker count: the axis value 0 means
		// GOMAXPROCS (fully parallel), so sorting it first by raw value
		// would crown the widest run as the "baseline" and invert every
		// speedup. Ties (0 vs an explicit GOMAXPROCS) break on the raw
		// value, keeping the order deterministic.
		sort.Slice(group, func(i, j int) bool {
			ei, ej := effectiveWorkers(group[i].Workers), effectiveWorkers(group[j].Workers)
			if ei != ej {
				return ei < ej
			}
			return group[i].Workers < group[j].Workers
		})
		baseline := group[0]
		for _, r := range group {
			row := ReportRow{
				Report:       "speedup",
				Scenario:     base,
				Workers:      r.Workers,
				RoundsMean:   r.RoundsMean,
				RoundsPerSec: r.RoundsPerSec,
			}
			if baseline.RoundsPerSec > 0 && r.RoundsPerSec > 0 {
				row.Speedup = r.RoundsPerSec / baseline.RoundsPerSec
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// effectiveWorkers resolves the workers axis value 0 (= GOMAXPROCS)
// to the width it actually ran with, for baseline ordering.
func effectiveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// workersStrippedKey removes the workers segment from the result's
// scenario key (reconstructing the key when the result came from a
// single run and has none). A budget demotion's "/state=" suffix
// follows that segment, so it is set aside and re-appended on both
// branches: degraded cells group along the workers axis like any
// other, and never with an undegraded twin. The reconstructed fallback
// carries every axis the sweep key does — topology instance, mode,
// engine, fault level, discipline, algorithm, the ablation and the
// resolved state — so two single runs differing only in, say, mode can
// never collapse into one bogus speedup group.
func workersStrippedKey(r Result) string {
	key := baseKey(r)
	if key == "" {
		var b strings.Builder
		fmt.Fprintf(&b, "%s/%s", r.Topology, r.Workload)
		if r.Algorithm != "" {
			fmt.Fprintf(&b, "/alg=%s", r.Algorithm)
		}
		if r.Discipline != "" {
			fmt.Fprintf(&b, "/disc=%s", r.Discipline)
		}
		if r.View != "" {
			fmt.Fprintf(&b, "/view=%s", r.View)
		}
		if r.Mode != "" {
			fmt.Fprintf(&b, "/mode=%s", r.Mode)
		}
		if r.Engine != "" {
			fmt.Fprintf(&b, "/eng=%s", r.Engine)
			if r.Fault != "" {
				fmt.Fprintf(&b, "/fault=%s", r.Fault)
			}
		}
		if r.SkipPhase1 {
			b.WriteString("/nophase1")
		}
		key = b.String()
	} else {
		key = strings.TrimSuffix(key, "/w="+strconv.Itoa(r.Workers))
	}
	if r.Degraded {
		key += "/state=" + r.State
	}
	return key
}

// classRows aggregates the sweep across the family axis: one row per
// (traffic class, emulation mode) pair present in the results.
func classRows(results []Result) []ReportRow {
	type agg struct {
		cells    int
		families map[string]bool
		sum, max float64
		maxQ     int
	}
	aggs := make(map[[2]string]*agg)
	var keys [][2]string
	for _, r := range results {
		class := r.Workload
		if gen, ok := workload.Lookup(r.Workload); ok {
			class = gen.Class.String()
		}
		k := [2]string{class, r.Mode}
		a := aggs[k]
		if a == nil {
			a = &agg{families: make(map[string]bool)}
			aggs[k] = a
			keys = append(keys, k)
		}
		a.cells++
		a.families[r.Family] = true
		a.sum += r.RoundsPerDiam
		if r.RoundsPerDiam > a.max {
			a.max = r.RoundsPerDiam
		}
		if r.MaxQueue > a.maxQ {
			a.maxQ = r.MaxQueue
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	var rows []ReportRow
	for _, k := range keys {
		a := aggs[k]
		rows = append(rows, ReportRow{
			Report:            "class",
			Class:             k[0],
			Mode:              k[1],
			Cells:             a.cells,
			Families:          len(a.families),
			RoundsPerDiamMean: a.sum / float64(a.cells),
			RoundsPerDiamMax:  a.max,
			MaxQueue:          a.maxQ,
		})
	}
	return rows
}

// WriteReportJSONL appends one JSON object per report row — the rows
// `routebench -sweep -report` emits after the result lines.
func WriteReportJSONL(w io.Writer, rows []ReportRow) error {
	enc := json.NewEncoder(w)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

// ReadResults parses a sweep JSONL artifact back into results,
// skipping any interleaved report rows — the consumption path of
// `cmd/tables -sweep`.
func ReadResults(r io.Reader) ([]Result, error) {
	dec := json.NewDecoder(r)
	var results []Result
	for lineNo := 1; dec.More(); lineNo++ {
		var raw map[string]json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return nil, fmt.Errorf("scenario: parsing sweep line %d: %w", lineNo, err)
		}
		if _, isReport := raw["report"]; isReport {
			continue
		}
		line, err := json.Marshal(raw)
		if err != nil {
			return nil, err
		}
		var res Result
		if err := json.Unmarshal(line, &res); err != nil {
			return nil, fmt.Errorf("scenario: parsing sweep line %d: %w", lineNo, err)
		}
		results = append(results, res)
	}
	return results, nil
}

// ReportTables renders the derived report as the tables `cmd/tables
// -sweep` prints: the engine-workers speedup table, the per-class
// aggregate table, and — when the sweep carried the distribution axis
// — the per-group tail-statistics table.
func ReportTables(rows []ReportRow) []*metrics.Table {
	speed := metrics.NewTable("sweep report: speedup across the engine-workers axis",
		"scenario", "workers", "rounds(mean)", "rounds/sec", "speedup")
	classes := metrics.NewTable("sweep report: per-class aggregates across families",
		"class", "mode", "cells", "families", "rounds/diam(mean)", "rounds/diam(max)", "maxQ")
	dists := metrics.NewTable("sweep report: per-group distribution tails over trials",
		"scenario", "n", "rounds(max)", "rounds(p99)", "rounds(p999)", "rounds(stddev)", "maxQ(max)", "maxQ(p99)")
	for _, r := range rows {
		switch r.Report {
		case "dist":
			n, rMax, rP99, rP999, rStd := "-", "-", "-", "-", "-"
			if d := r.RoundsDist; d != nil {
				n = fmt.Sprintf("%d", d.N)
				rMax = fmt.Sprintf("%d", d.Max)
				rP99 = fmt.Sprintf("%.1f", d.P99)
				rP999 = fmt.Sprintf("%.1f", d.P999)
				rStd = fmt.Sprintf("%.2f", d.StdDev)
			}
			qMax, qP99 := "-", "-"
			if d := r.MaxQDist; d != nil {
				if n == "-" {
					n = fmt.Sprintf("%d", d.N)
				}
				qMax = fmt.Sprintf("%d", d.Max)
				qP99 = fmt.Sprintf("%.1f", d.P99)
			}
			dists.AddRow(r.Scenario, n, rMax, rP99, rP999, rStd, qMax, qP99)
		case "speedup":
			rps, speedup := "-", "-"
			if r.RoundsPerSec > 0 {
				rps = fmt.Sprintf("%.0f", r.RoundsPerSec)
			}
			if r.Speedup > 0 {
				speedup = fmt.Sprintf("%.2f", r.Speedup)
			}
			speed.AddRow(r.Scenario,
				fmt.Sprintf("%d", r.Workers),
				fmt.Sprintf("%.1f", r.RoundsMean),
				rps, speedup)
		case "class":
			mode := r.Mode
			if mode == "" {
				mode = ModeRoute
			}
			classes.AddRow(r.Class, mode,
				fmt.Sprintf("%d", r.Cells),
				fmt.Sprintf("%d", r.Families),
				fmt.Sprintf("%.2f", r.RoundsPerDiamMean),
				fmt.Sprintf("%.2f", r.RoundsPerDiamMax),
				fmt.Sprintf("%d", r.MaxQueue))
		}
	}
	tables := []*metrics.Table{speed, classes}
	if dists.Rows() > 0 {
		tables = append(tables, dists)
	}
	return tables
}
