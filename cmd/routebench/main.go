// Command routebench runs routing experiments with explicit
// parameters — the interactive companion to cmd/tables. Networks are
// selected by topology-registry name and traffic by workload-registry
// name, so every registered family and generator runs without command
// changes; -list prints both registries with each workload's
// capability requirements, and incompatible (family, workload) pairs
// are rejected with an error naming the missing capability.
//
// A single invocation prices one (network, workload) cell and prints
// one report line (or one JSON object with -json); -mode erew/crcw
// prices one emulated PRAM step per trial instead of raw routing
// (Theorems 2.5/2.6), with the workload as the step's memory-access
// pattern; -engine event prices the same routing on the asynchronous
// discrete-event engine instead of synchronous rounds, with the link
// latency model (-latency/-base/-jitter/-lscale/-gap) and fault axes
// (-linkfail/-repair, -straggler/-stragglerx, -drop/-rto) dialed in
// from the command line. The engine's link-table layout has its own
// knobs: -paged forces the paged dense tables (the layout key spaces
// beyond 2^24 get automatically — million-node graphs route in one
// invocation), -membudget caps the fixed table footprint in bytes
// (over-budget layouts degrade to the hashed fallback instead of
// erroring, so -membudget 1 forces it), and -memstats prints the
// resolved state and table/arena/B-per-node footprint after the
// report line (-json always carries the same fields). With -sweep it
// instead executes a declarative scenario spec — the cross-product
// of topology × workload × discipline × emulation-mode × engine ×
// fault × ablation × engine-workers axes — in parallel over a worker
// pool, emitting
// one JSON line per cell in deterministic scenario-key order (the
// same Result schema as -json, minus the wall-clock fields, so sweep
// artifacts diff cleanly); -report appends the derived speedup and
// per-class aggregate rows, which `tables -sweep` renders from a
// saved artifact. `-reportdiff a.jsonl b.jsonl` compares two saved
// sweep artifacts byte-exactly and exits nonzero on drift — the CI
// regression gate over checked-in smoke artifacts; both sides must
// end in the trailer line every sweep writes, so truncated artifacts
// fail loudly. Sweeps are fault-tolerant: a panicking cell becomes a
// structured error line and the rest of the grid still runs
// (-failfast cancels instead), -timeout deadlines each cell
// individually, -out <file> runs crash-safely through the cell
// journal with an atomic final rename (an interrupted run resumed
// over the same path is byte-identical), and -server <url> submits
// the spec to a cmd/sweepd daemon and streams the artifact back
// instead of running locally.
//
// `-advsearch spec.json` runs the adversarial search instead: per
// named family, the seeds / structured / greedy strategies from
// internal/advsearch hunt inputs maximizing observed rounds and maxQ,
// and each (family, strategy) worst prints as one line with its
// theorem-bound comparison (-json emits the full finding report).
// With -out the seed-sweep stage journals to <out>.cells and resumes
// like a sweep; -freeze <dir> writes each family's best searched
// permutation as a frozen workload file that -frozen <dir> loads back
// into the registry as `adv:<family>:<name>` — runnable by -workload
// and -sweep like any generator, and regression-gated by
// TestAdvSearchFrozenRegression.
//
// Point-to-point families route directly on the graph (Algorithm
// 2.2) by default; pass -leveled for the Algorithm 2.1 unrolling
// where one exists. Leveled-only families (butterfly) always route on
// their unrolling. The mesh keeps its specialized §3.4 router for
// permutation-class and local traffic; h-relations and many-one
// traffic route generically on its graph view, with CRCW combining
// enabled for the many-one generators.
//
// Examples:
//
//	routebench -net star -n 6 -workload perm
//	routebench -net pancake -n 6 -workload relation
//	routebench -net torus -n 16 -k 2 -workload tornado
//	routebench -net debruijn -n 10 -workload bitcomp -leveled
//	routebench -net mesh -n 128 -workload transpose -alg greedy
//	routebench -net hypercube -n 8 -workload khot -workers 8
//	routebench -net butterfly -n 12 -workload bitrev -skipphase1
//	routebench -net star -n 7 -workload relation -json
//	routebench -net star -n 6 -workload perm -mode erew
//	routebench -net shuffle -n 4 -workload khot -mode crcw
//	routebench -net star -n 6 -workload perm -engine event -latency jitter -jitter 3
//	routebench -net torus -n 8 -k 2 -workload perm -engine event -drop 0.1 -straggler 0.2
//	routebench -net debruijn -n 24 -k 2 -workload perm -trials 1 -memstats
//	routebench -net debruijn -n 20 -k 2 -workload perm -trials 1 -paged -memstats
//	routebench -net debruijn -n 20 -k 2 -workload perm -trials 1 -membudget 1048576 -memstats
//	routebench -sweep sweeps/smoke.json
//	routebench -sweep sweeps/scale.json
//	routebench -sweep sweeps/emul.json -report
//	routebench -sweep sweeps/event.json
//	routebench -sweep - < my-sweep.json
//	routebench -reportdiff sweeps/expected/event.jsonl BENCH_sweep_event.jsonl
//	routebench -advsearch sweeps/advsearch.json -out BENCH_advsearch.json
//	routebench -advsearch sweeps/advsearch.json -freeze sweeps/adversarial
//	routebench -frozen sweeps/adversarial -sweep sweeps/adv.json
//	routebench -list
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"pramemu/internal/advsearch"
	"pramemu/internal/buildcache"
	"pramemu/internal/scenario"
	"pramemu/internal/topology"
	_ "pramemu/internal/topology/families"
	"pramemu/internal/workload"
)

// config carries one fully parsed invocation.
type config struct {
	net        string
	n          int
	k          int
	workload   string
	alg        string
	disc       string
	mode       string
	locality   int
	trials     int
	seed       uint64
	skipPhase1 bool
	useLeveled bool
	jsonOut    bool
	workers    int
	list       bool
	paged      bool
	memBudget  int64
	memStats   bool
	sweep      string
	report     bool
	out        string
	advsearch  string
	frozen     string
	freeze     string
	buildCache int64
	timeout    time.Duration
	failFast   bool
	server     string
	cpuprofile string
	memprofile string

	// Event-engine knobs (-engine event): the link latency model and
	// the fault level of the asynchronous run.
	engine     string
	latency    string
	base       int
	jitter     int
	lscale     int
	gap        int
	linkFail   float64
	repair     int
	straggler  float64
	stragglerX int
	drop       float64
	rto        int

	// reportdiff compares two sweep artifacts byte-exactly.
	reportdiff bool
	diffArgs   []string
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.net, "net", "star", "network family from the topology registry (see -list)")
	flag.IntVar(&cfg.n, "n", 5, "primary size parameter (star/pancake/ttree n, shuffle/debruijn digits, butterfly/hypercube dimension, mesh side, torus radix)")
	flag.IntVar(&cfg.k, "k", 0, "secondary size parameter where one exists (shuffle/debruijn alphabet, torus dimensions, ttree shape); 0 = family default")
	flag.StringVar(&cfg.workload, "workload", "perm", "workload generator from the workload registry (see -list)")
	flag.StringVar(&cfg.alg, "alg", "threestage", "mesh algorithm: threestage, vb, greedy")
	flag.StringVar(&cfg.disc, "disc", "furthest", "mesh discipline: furthest, fifo")
	flag.StringVar(&cfg.mode, "mode", "route", "cell mode: route (raw routing), erew or crcw (one emulated PRAM step per trial, Thm 2.5/2.6)")
	flag.IntVar(&cfg.locality, "d", 8, "locality distance for -workload local")
	flag.IntVar(&cfg.trials, "trials", 5, "number of seeded trials")
	flag.Uint64Var(&cfg.seed, "seed", 1991, "base seed")
	flag.BoolVar(&cfg.skipPhase1, "skipphase1", false, "disable the randomizing phase (ablation)")
	flag.BoolVar(&cfg.useLeveled, "leveled", false, "route on the leveled unrolling (Algorithm 2.1) when the family has one")
	flag.BoolVar(&cfg.jsonOut, "json", false, "emit one JSON object instead of the report line (for BENCH_*.json artifacts)")
	flag.IntVar(&cfg.workers, "workers", 0, "round-engine workers (0 = GOMAXPROCS, 1 = sequential; identical results either way)")
	flag.BoolVar(&cfg.list, "list", false, "list the registered network families and workload generators, then exit")
	flag.BoolVar(&cfg.paged, "paged", false, "force the engine's paged dense tables even on small key spaces (identical results; for A/B profiling)")
	flag.Int64Var(&cfg.memBudget, "membudget", 0, "cap the engine's fixed link-table footprint in bytes; over-budget dense/paged runs degrade to the hashed fallback (0 = no budget; 1 forces the fallback, identical results, for A/B profiling)")
	flag.BoolVar(&cfg.memStats, "memstats", false, "append the memory line (resolved state, table/arena bytes, B/node) to the report")
	flag.StringVar(&cfg.sweep, "sweep", "", "run the scenario sweep spec from this JSON file ('-' = stdin) and emit JSONL")
	flag.BoolVar(&cfg.report, "report", false, "with -sweep: append the derived report rows (workers-axis speedups, per-class aggregates) after the result lines")
	flag.StringVar(&cfg.out, "out", "", "with -sweep: write the artifact crash-safely to this path (journaled; atomic rename after the trailer; an interrupted run resumes)")
	flag.StringVar(&cfg.advsearch, "advsearch", "", "run the adversarial-search spec from this JSON file ('-' = stdin): hunt worst-case inputs per family; with -out the seed sweep journals to <out>.cells and the report lands at -out via atomic rename (an interrupted search resumes)")
	flag.StringVar(&cfg.frozen, "frozen", "", "load frozen adversarial workloads (*"+workload.FrozenExt+") from this directory into the registry before running (composes with -list, -workload adv:..., -sweep)")
	flag.StringVar(&cfg.freeze, "freeze", "", "with -advsearch: write each family's best searched permutation into this directory as a frozen regression workload")
	flag.Int64Var(&cfg.buildCache, "buildcache", 0, "topology build-cache budget in bytes: cells and successive sweeps sharing a topology reuse one build (0 = default 256 MiB; negative disables caching)")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "with -sweep: per-cell deadline; an expired cell becomes an error line instead of killing the sweep (0 = none)")
	flag.BoolVar(&cfg.failFast, "failfast", false, "with -sweep: cancel remaining cells when one fails hard instead of draining the grid")
	flag.StringVar(&cfg.server, "server", "", "with -sweep: submit the spec to this sweepd base URL (e.g. http://localhost:8080) and stream the artifact back instead of running locally")
	flag.StringVar(&cfg.cpuprofile, "cpuprofile", "", "write a CPU profile of the routing trials to this file")
	flag.StringVar(&cfg.memprofile, "memprofile", "", "write a heap profile (taken after the trials) to this file")
	flag.StringVar(&cfg.engine, "engine", "round", "pricing engine: round (synchronous rounds) or event (asynchronous discrete-event simulation in ticks)")
	flag.StringVar(&cfg.latency, "latency", "fixed", "event link-latency model: fixed, jitter or matrix")
	flag.IntVar(&cfg.base, "base", 1, "event base link latency in ticks")
	flag.IntVar(&cfg.jitter, "jitter", 0, "event uniform extra-latency span (jitter model)")
	flag.IntVar(&cfg.lscale, "lscale", 0, "event coordinate-grid side of the matrix model (0 = default 8)")
	flag.IntVar(&cfg.gap, "gap", 1, "event sender-side bandwidth cap: min ticks between transmission starts per link")
	flag.Float64Var(&cfg.linkFail, "linkfail", 0, "event probability a link starts in a transient outage")
	flag.IntVar(&cfg.repair, "repair", 0, "event outage-duration bound in ticks (0 = default 8*base)")
	flag.Float64Var(&cfg.straggler, "straggler", 0, "event per-node slowdown probability")
	flag.IntVar(&cfg.stragglerX, "stragglerx", 0, "event straggler slowdown multiple (0 = default 4)")
	flag.Float64Var(&cfg.drop, "drop", 0, "event per-transmission loss probability (< 1; sender retransmits)")
	flag.IntVar(&cfg.rto, "rto", 0, "event retransmit timeout in ticks (0 = default 4*(base+jitter))")
	flag.BoolVar(&cfg.reportdiff, "reportdiff", false, "compare the two JSONL artifacts named as arguments byte-exactly; nonzero exit on drift")
	flag.Parse()
	cfg.diffArgs = flag.Args()

	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "routebench: %v\n", err)
		os.Exit(1)
	}
}

// result is the report schema of one invocation: the scenario
// package's Result, shared between -json output and sweep JSONL lines.
type result = scenario.Result

// run executes one invocation, writing the report to w. It is the
// testable core of the command; the profile flags are honored here so
// tests can exercise them without a child process.
func run(w io.Writer, cfg config) (err error) {
	if cfg.frozen != "" {
		if _, err := workload.LoadFrozenDir(cfg.frozen); err != nil {
			return err
		}
	}
	if cfg.list {
		return list(w)
	}
	if cfg.reportdiff {
		if cfg.server != "" {
			return runServerDiff(w, cfg)
		}
		return runReportDiff(w, cfg.diffArgs)
	}
	if cfg.buildCache != 0 {
		buildcache.SetDefaultBudget(cfg.buildCache)
	}
	if cfg.cpuprofile != "" {
		f, ferr := os.Create(cfg.cpuprofile)
		if ferr != nil {
			return fmt.Errorf("cpuprofile: %w", ferr)
		}
		if perr := pprof.StartCPUProfile(f); perr != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", perr)
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("cpuprofile: %w", cerr)
			}
		}()
	}
	if cfg.memprofile != "" {
		defer func() {
			if err == nil {
				err = writeHeapProfile(cfg.memprofile)
			}
		}()
	}
	if cfg.advsearch != "" {
		return runAdvSearch(w, cfg)
	}
	if cfg.sweep != "" {
		return runSweep(w, cfg)
	}
	res, err := scenario.RunCell(cell(cfg))
	if err != nil {
		return err
	}
	return report(w, cfg, res)
}

// cell maps the single-run flags onto one scenario grid cell. The
// h-relation height keeps its historical default of max(2, n).
func cell(cfg config) scenario.Cell {
	c := scenario.Cell{
		Topo:       scenario.TopoRef{Family: cfg.net, N: cfg.n, K: cfg.k, Leveled: cfg.useLeveled},
		Work:       scenario.WorkRef{Name: cfg.workload, H: max(2, cfg.n), D: cfg.locality},
		Algorithm:  cfg.alg,
		Discipline: cfg.disc,
		Mode:       cfg.mode,
		Workers:    cfg.workers,
		Trials:     cfg.trials,
		Seed:       cfg.seed,
		SkipPhase1: cfg.skipPhase1,
		Paged:      cfg.paged,
		MemBudget:  cfg.memBudget,
		Timing:     true,
	}
	if cfg.engine != "" && cfg.engine != scenario.EngineRound {
		c.Engine = cfg.engine
		c.Latency = scenario.LatencySpec{
			Model:  cfg.latency,
			Base:   cfg.base,
			Jitter: cfg.jitter,
			Scale:  cfg.lscale,
			Gap:    cfg.gap,
		}
		c.Fault = scenario.FaultSpec{
			LinkFailure:     cfg.linkFail,
			RepairTime:      cfg.repair,
			Straggler:       cfg.straggler,
			StragglerFactor: cfg.stragglerX,
			Drop:            cfg.drop,
			RetransmitAfter: cfg.rto,
		}
	}
	return c
}

// runAdvSearch executes an adversarial-search spec: every requested
// strategy hunts worst-case inputs on every named family, the worst
// finding per (family, strategy) prints as one report line (or the
// full report as JSON with -json), -out makes the seed-sweep stage
// journaled and resumable, and -freeze writes each family's best
// searched permutation into a directory of frozen regression
// workloads.
func runAdvSearch(w io.Writer, cfg config) error {
	var (
		raw []byte
		err error
	)
	if cfg.advsearch == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(cfg.advsearch)
	}
	if err != nil {
		return fmt.Errorf("advsearch: %w", err)
	}
	spec, err := advsearch.ReadSpec(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	var rep advsearch.Report
	if cfg.out != "" {
		rep, err = advsearch.RunJournaled(context.Background(), spec, cfg.out)
	} else {
		rep, err = advsearch.Run(context.Background(), spec)
	}
	if err != nil {
		return err
	}
	if cfg.freeze != "" {
		for _, f := range rep.Worst() {
			if len(f.Perm) == 0 {
				continue // only searched permutations freeze
			}
			fr, err := advsearch.Freeze(fmt.Sprintf("g%d", f.Nodes), f)
			if err != nil {
				return err
			}
			path, err := workload.WriteFrozenFile(cfg.freeze, fr)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "froze %s (rounds=%d maxQ=%d) -> %s\n", fr.WorkloadName(), fr.Rounds, fr.MaxQ, path)
		}
	}
	if cfg.jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	for _, f := range rep.Worst() {
		fmt.Fprintf(w, "advsearch %s strategy=%s workload=%s seed=%d: rounds=%d (%.2f/diam) maxQ=%d bound=%.0f within=%v\n",
			f.Topology, f.Strategy, f.Workload, f.Seed, f.Rounds, f.RoundsPerDiam, f.MaxQ, f.Bound, f.WithinBound)
	}
	return nil
}

// runReportDiff is the CI regression gate over sweep artifacts: the
// two JSONL files must match byte for byte. Both must carry the
// end-of-sweep trailer — a truncated artifact fails loudly here
// instead of silently gating on partial data. On drift it names the
// first differing line of each and errors (nonzero exit from main).
func runReportDiff(w io.Writer, paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("reportdiff: want exactly two artifact paths, got %d", len(paths))
	}
	a, err := os.ReadFile(paths[0])
	if err != nil {
		return fmt.Errorf("reportdiff: %w", err)
	}
	b, err := os.ReadFile(paths[1])
	if err != nil {
		return fmt.Errorf("reportdiff: %w", err)
	}
	detail, same, err := scenario.DiffArtifacts(paths[0], a, paths[1], b)
	if err != nil {
		return fmt.Errorf("reportdiff: %w", err)
	}
	if same {
		fmt.Fprintf(w, "reportdiff: %s and %s are identical (%d bytes)\n", paths[0], paths[1], len(a))
		return nil
	}
	return fmt.Errorf("reportdiff: %s", detail)
}

// runServerDiff is -reportdiff against a sweepd instance: the two
// arguments are job IDs, and the daemon compares its stored,
// trailer-verified artifacts server-side via GET
// /sweeps/{a}/diff?against={b} — no artifact bytes cross the wire.
func runServerDiff(w io.Writer, cfg config) error {
	if len(cfg.diffArgs) != 2 {
		return fmt.Errorf("reportdiff: want exactly two job IDs with -server, got %d", len(cfg.diffArgs))
	}
	base := strings.TrimRight(cfg.server, "/")
	resp, err := http.Get(base + "/sweeps/" + cfg.diffArgs[0] + "/diff?against=" + cfg.diffArgs[1])
	if err != nil {
		return fmt.Errorf("reportdiff: %w", err)
	}
	defer resp.Body.Close()
	var d struct {
		A         string `json:"a"`
		B         string `json:"b"`
		Identical bool   `json:"identical"`
		Detail    string `json:"detail,omitempty"`
		Error     string `json:"error,omitempty"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return fmt.Errorf("reportdiff: %s: %w", resp.Status, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("reportdiff: %s: %s", resp.Status, d.Error)
	}
	if d.Identical {
		fmt.Fprintf(w, "reportdiff: jobs %s and %s are identical\n", d.A, d.B)
		return nil
	}
	return fmt.Errorf("reportdiff: %s", d.Detail)
}

// runSweep reads the spec from the file (or stdin with "-") and
// executes it: locally — streaming the JSONL artifact to w, or
// journaled to -out with an atomic rename after the trailer — or
// remotely via a sweepd instance with -server. A cell failure costs
// one error line, the rest of the grid still prices, and the
// aggregate failure comes back as the (nonzero-exit) error after the
// artifact is written in full.
func runSweep(w io.Writer, cfg config) error {
	var (
		raw []byte
		err error
	)
	if cfg.sweep == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(cfg.sweep)
	}
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	spec, err := scenario.ReadSpec(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	if cfg.timeout > 0 {
		spec.TimeoutMS = cfg.timeout.Milliseconds()
	}
	if cfg.failFast {
		spec.FailFast = true
	}
	if cfg.server != "" {
		return runSweepClient(w, cfg, spec)
	}
	if cfg.report {
		if cfg.out != "" {
			return fmt.Errorf("sweep: -out and -report do not compose (the journaled artifact holds result lines only); redirect stdout instead")
		}
		// Time the run so the report's speedup column is real, but
		// strip the wall-clock fields from the result lines: those
		// stay byte-reproducible, only the trailing report rows carry
		// run-dependent numbers. Cells run sequentially here — timed
		// cells sharing cores with a GOMAXPROCS-wide pool would
		// measure co-scheduling noise, not engine scaling.
		spec.Timing = true
		spec.Pool = 1
	}
	hash, err := scenario.SpecHash(spec)
	if err != nil {
		return err
	}
	cache := buildcache.Default()
	if cfg.out != "" {
		_, err := scenario.RunJournaled(context.Background(), spec, cfg.out, scenario.JournalOptions{Cache: cache})
		return err
	}
	before := cache.Stats()
	results, runErr := scenario.RunContextOptions(context.Background(), spec, scenario.RunOptions{Cache: cache})
	if runErr != nil {
		var agg *scenario.AggregateError
		if !errors.As(runErr, &agg) {
			return runErr
		}
		// Cell failures: the full artifact (error lines included)
		// still streams; the aggregate error exits nonzero after.
	}
	if !cfg.report {
		if err := scenario.WriteArtifact(w, hash, results); err != nil {
			return err
		}
		return runErr
	}
	stripped := make([]scenario.Result, len(results))
	for i, r := range results {
		r.ElapsedMS, r.RoundsPerSec = 0, 0
		stripped[i] = r
	}
	if err := scenario.WriteJSONL(w, stripped); err != nil {
		return err
	}
	if err := scenario.WriteReportJSONL(w, scenario.Report(results)); err != nil {
		return err
	}
	// The trailer closes the stream after the report rows; its cell
	// count covers the result lines above them. Only this report-mode
	// trailer carries the cache and build-vs-route accounting — the
	// result lines (and plain/journaled artifacts) stay byte-
	// reproducible from the spec alone.
	t := scenario.NewTrailer(hash, stripped)
	d := cache.Stats().Delta(before)
	t.CacheHits, t.CacheMisses, t.CacheEvictions = d.Hits, d.Misses, d.Evictions
	t.BuildMS = float64(d.BuildNS) / 1e6
	for _, r := range results {
		t.RouteMS += r.ElapsedMS
	}
	if err := scenario.WriteTrailerLine(w, t); err != nil {
		return err
	}
	return runErr
}

// runSweepClient submits the spec to a sweepd instance, polls the job
// until it settles, and streams the artifact to w (and -out, when
// set). Identical specs are served from the daemon's content-
// addressed cache without re-running.
func runSweepClient(w io.Writer, cfg config, spec scenario.Spec) error {
	base := strings.TrimRight(cfg.server, "/")
	body, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	st, code, err := postJSON(base+"/sweeps", body)
	if err != nil {
		return fmt.Errorf("sweep: submitting to %s: %w", base, err)
	}
	switch code {
	case http.StatusOK, http.StatusAccepted:
	case http.StatusTooManyRequests:
		return fmt.Errorf("sweep: %s is shedding load (queue full); retry later", base)
	default:
		return fmt.Errorf("sweep: %s rejected the spec: %s", base, st.Error)
	}
	for st.State != "done" {
		switch st.State {
		case "failed", "canceled":
			return fmt.Errorf("sweep: job %s %s: %s", st.ID, st.State, st.Error)
		}
		time.Sleep(200 * time.Millisecond)
		if st, err = getStatus(base + "/sweeps/" + st.ID); err != nil {
			return fmt.Errorf("sweep: polling job: %w", err)
		}
	}
	resp, err := http.Get(base + "/sweeps/" + st.ID + "/artifact")
	if err != nil {
		return fmt.Errorf("sweep: fetching artifact: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("sweep: fetching artifact: %s", resp.Status)
	}
	if cfg.out == "" {
		_, err := io.Copy(w, resp.Body)
		return err
	}
	tmp := cfg.out + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("sweep: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("sweep: %w", err)
	}
	if err := os.Rename(tmp, cfg.out); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("sweep: %w", err)
	}
	return nil
}

// sweepdStatus mirrors sweepd's job-status JSON (decoded loosely so
// the client has no package dependency on the daemon).
type sweepdStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

func postJSON(url string, body []byte) (sweepdStatus, int, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return sweepdStatus{}, 0, err
	}
	defer resp.Body.Close()
	var st sweepdStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return sweepdStatus{}, resp.StatusCode, err
	}
	return st, resp.StatusCode, nil
}

func getStatus(url string) (sweepdStatus, error) {
	resp, err := http.Get(url)
	if err != nil {
		return sweepdStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sweepdStatus{}, fmt.Errorf("%s", resp.Status)
	}
	var st sweepdStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return sweepdStatus{}, err
	}
	return st, nil
}

// list prints both registries: the -net families and the -workload
// generators with their traffic class and capability requirements.
func list(w io.Writer) error {
	fmt.Fprintln(w, "topologies:")
	for _, name := range topology.Names() {
		f, _ := topology.Lookup(name)
		fmt.Fprintf(w, "  %-10s %s\n", name, f.Params)
	}
	fmt.Fprintln(w, "workloads:")
	for _, name := range workload.Names() {
		g, _ := workload.Lookup(name)
		fmt.Fprintf(w, "  %-10s %-11s needs=%-9s %s\n", name, g.Class, g.Needs, g.Traffic)
	}
	return nil
}

// report renders res as the human line or the JSON object, with the
// memory-pricing line appended when -memstats asks for it.
func report(w io.Writer, cfg config, res result) error {
	if cfg.jsonOut {
		return json.NewEncoder(w).Encode(res)
	}
	if cfg.memStats {
		defer func() {
			if res.State == "" {
				fmt.Fprintln(w, "memory: not priced (event cells track time, not table memory)")
				return
			}
			degraded := ""
			if res.Degraded {
				degraded = " degraded(over budget)"
			}
			fmt.Fprintf(w, "memory: state=%s%s table=%dB arena=%dB b/node=%.1f\n",
				res.State, degraded, res.TableBytes, res.ArenaBytes, res.BPerNode)
		}()
	}
	if res.Engine != "" {
		fmt.Fprintf(w, "%s %s engine=%s fault=%s: delivered mean=%.1f max=%d ticks (ticks/diam=%.2f) retransmits=%d maxQ=%d\n",
			res.Topology, res.Workload, res.Engine, res.Fault, res.RoundsMean, res.RoundsMax,
			res.RoundsPerDiam, res.Retransmits, res.MaxQueue)
		return nil
	}
	if res.Mode != "" {
		fmt.Fprintf(w, "%s %s mode=%s: step cost mean=%.1f max=%d (cost/diam=%.2f) merges=%d rehashes=%d maxQ=%d\n",
			res.Topology, res.Workload, res.Mode, res.RoundsMean, res.RoundsMax,
			res.RoundsPerDiam, res.Merges, res.Rehashes, res.MaxQueue)
		return nil
	}
	if res.Algorithm != "" {
		fmt.Fprintf(w, "%s %s alg=%s: rounds mean=%.1f max=%d (rounds/diam=%.2f) maxQ=%d\n",
			res.Topology, res.Workload, res.Algorithm, res.RoundsMean, res.RoundsMax,
			res.RoundsPerDiam, res.MaxQueue)
		return nil
	}
	fmt.Fprintf(w, "%s %s: rounds mean=%.1f max=%d maxQ=%d (N=%d)\n",
		res.Topology, res.Workload, res.RoundsMean, res.RoundsMax, res.MaxQueue, res.Nodes)
	return nil
}

// writeHeapProfile snapshots the heap (after a GC, so live objects —
// not garbage — dominate) into path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("memprofile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}
