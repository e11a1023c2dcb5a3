// The sweep runner: RunCell prices one grid cell, Run fans the whole
// grid out over a worker pool. Result is the one JSON schema shared
// by `routebench -json` (one object per invocation) and `routebench
// -sweep` (one object per line of JSONL).

package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"pramemu/internal/buildcache"
	"pramemu/internal/emul"
	"pramemu/internal/engine"
	"pramemu/internal/leveled"
	"pramemu/internal/mathx"
	"pramemu/internal/mesh"
	"pramemu/internal/packet"
	"pramemu/internal/simnet"
	"pramemu/internal/topology"
	"pramemu/internal/twophase"
	"pramemu/internal/workload"
)

// Result aggregates the trials of one cell. It is the -json schema of
// cmd/routebench and the per-line schema of sweep JSONL artifacts.
// The wall-clock fields (elapsed_ms, rounds_per_sec) are filled only
// for Timing cells — sweep output omits them so it is bit-reproducible.
type Result struct {
	Scenario      string  `json:"scenario,omitempty"` // sweep cell key; empty on single runs
	Family        string  `json:"family"`
	Topology      string  `json:"topology"`
	Nodes         int     `json:"nodes"`
	Diameter      int     `json:"diameter"`
	Workload      string  `json:"workload"`
	Algorithm     string  `json:"algorithm,omitempty"`
	Discipline    string  `json:"discipline,omitempty"`
	View          string  `json:"view,omitempty"`   // direct(2.2) | leveled(2.1) | mesh(§3.4) | mesh(§3.3)
	Mode          string  `json:"mode,omitempty"`   // erew | crcw; empty = raw routing
	Engine        string  `json:"engine,omitempty"` // "event"; empty = synchronous rounds
	Fault         string  `json:"fault,omitempty"`  // fault-level label of event cells
	SkipPhase1    bool    `json:"skip_phase1,omitempty"`
	Workers       int     `json:"workers"`
	Trials        int     `json:"trials"`
	Seed          uint64  `json:"seed"`
	RoundsMean    float64 `json:"rounds_mean"`
	RoundsMax     int     `json:"rounds_max"`
	RoundsPerDiam float64 `json:"rounds_per_diam"`
	MaxQueue      int     `json:"max_queue"`
	// The emulation-mode extras (Theorems 2.5/2.6): on erew/crcw
	// cells RoundsMean/RoundsMax carry the emulated step cost
	// (routing rounds plus any rehash penalty), Merges the total CRCW
	// combining events and Rehashes the total rehash events across
	// trials, and MaxModuleLoad the largest per-module request load
	// observed.
	Merges        int `json:"merges,omitempty"`
	Rehashes      int `json:"rehashes,omitempty"`
	MaxModuleLoad int `json:"max_module_load,omitempty"`
	// Retransmits totals the event engine's dropped-and-retried
	// transmissions across trials (zero on round cells). On event
	// cells RoundsMean/RoundsMax/RoundsPerDiam price delivered time in
	// ticks rather than synchronous rounds.
	Retransmits int `json:"retransmits,omitempty"`
	// The memory-pricing fields (E19), filled on round-engine cells:
	// State names the link-state representation that actually priced
	// the cell ("dense", "paged" or "hashed"), Degraded that a
	// MemBudget stepped the request down the dense → paged → hashed
	// ladder, TableBytes the engine's link-table footprint, ArenaBytes
	// the packet-arena slab footprint, and BPerNode their sum per
	// network node — the scaling figure E19 sweeps. Event cells leave them
	// empty (the event loop prices time, not table memory).
	State        string  `json:"state,omitempty"`
	Degraded     bool    `json:"degraded,omitempty"`
	TableBytes   int64   `json:"table_bytes,omitempty"`
	ArenaBytes   int64   `json:"arena_bytes,omitempty"`
	BPerNode     float64 `json:"b_per_node,omitempty"`
	ElapsedMS    float64 `json:"elapsed_ms,omitempty"`
	RoundsPerSec float64 `json:"rounds_per_sec,omitempty"`
	// The distribution fields, filled only on Distribution cells: the
	// per-trial round counts and per-trial max queue lengths in trial
	// order (trial t runs seed Seed+t), the raw samples behind the
	// report layer's tail statistics and the adversarial search's
	// worst-seed identification. Off-by-default so historical artifacts
	// keep their exact bytes.
	TrialRounds []int `json:"trial_rounds,omitempty"`
	TrialMaxQ   []int `json:"trial_max_q,omitempty"`
	// The failure-isolation fields: a cell that panics, times out, is
	// canceled or cannot run lands in the sweep as an error line —
	// Error the message, ErrorKind the taxonomy value (panic |
	// timeout | canceled | invalid_spec) — with the metric fields
	// zero. Successful cells leave both empty.
	Error     string `json:"error,omitempty"`
	ErrorKind string `json:"error_kind,omitempty"`
}

// Failed reports whether the result is an error line.
func (r Result) Failed() bool { return r.ErrorKind != "" }

// RunCell builds the cell's topology, gates its workload through the
// registry's capability check, routes Trials seeded repetitions on
// the appropriate router (the specialized §3.4 mesh router for
// permutation-class and local traffic on the mesh, the generic
// simulators elsewhere, with CRCW combining enabled for many-one
// traffic) and aggregates one Result. Packets come from one slab
// arena recycled across trials, so repeated cells stay on the
// engine's zero-allocation steady-state path.
func RunCell(c Cell) (Result, error) {
	return RunCellContext(context.Background(), c)
}

// RunCellContext is RunCell under a context: the deadline or
// cancellation is checked between trials and polled inside the
// engines' round and event loops (the engine's Abort unwind is caught
// here), so an expired context stops the cell within a round or a few
// thousand events and returns ctx.Err(). A context that never expires
// leaves results bit-identical to RunCell. Cell.Timeout is NOT
// applied here — it is RunCellSafe's job, so callers composing their
// own deadlines are not second-guessed.
func RunCellContext(ctx context.Context, c Cell) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			a, ok := r.(engine.Abort)
			if !ok {
				panic(r)
			}
			res, err = Result{}, a.Err
		}
	}()
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	b := c.Built
	if b.Graph == nil && b.Spec == nil {
		// Fallback builds go through the process-wide build cache, so
		// benchmarks and servers rerunning one cell share a topology
		// even without Run's expansion filling Built.
		built, ref, err := buildcache.Default().Get(c.Topo.Family, topology.Params{N: c.Topo.N, K: c.Topo.K}, c.Topo.Leveled)
		if err != nil {
			return Result{}, err
		}
		defer ref.Release()
		b = built
	}
	if c.Trials < 1 {
		c.Trials = 1
	}
	if c.Mode == ModeRoute {
		c.Mode = ""
	}
	if c.Engine == EngineRound {
		c.Engine = ""
	}
	gen, err := lookupWork(c.Work)
	if err != nil {
		return Result{}, err
	}
	if err := gen.Check(b); err != nil {
		return Result{}, err
	}
	if err := checkTopo(b, c.Topo); err != nil {
		return Result{}, err
	}
	if err := checkMode(c.Mode, gen); err != nil {
		return Result{}, err
	}
	if err := EngineCheck(c.Engine); err != nil {
		return Result{}, err
	}
	if c.Engine != "" && c.Mode != "" {
		return Result{}, fmt.Errorf("the event engine prices raw routing only; %s cells use synchronous rounds", c.Mode)
	}
	p := c.Work.params().Defaulted()
	var ms engine.MemStats
	var lease *engine.Lease
	if c.Engine == "" {
		// Event cells keep their own link map; only round cells carry
		// engine tables worth recycling.
		lk := leaseKey(c)
		lease = leases.Get(lk)
		defer leases.Put(lk, lease)
	}
	arena := packet.GetArena()
	defer packet.PutArena(arena)
	skel, trial, err := router(ctx, b, gen, p, c, &ms, lease, arena)
	if err != nil {
		return Result{}, err
	}
	rounds := make([]int, 0, c.Trials)
	maxQs := make([]int, 0, c.Trials)
	start := time.Now()
	for t := 0; t < c.Trials; t++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		s := c.Seed + uint64(t)
		arena.Reset()
		pkts, err := gen.Generate(b, p, arena, s)
		if err != nil {
			return Result{}, err
		}
		r, q, err := trial(pkts, s)
		if err != nil {
			return Result{}, err
		}
		rounds = append(rounds, r)
		maxQs = append(maxQs, q)
	}
	if c.Engine == "" {
		*skel = memStats(*skel, ms, arena)
	}
	return finish(*skel, c, rounds, maxQs, time.Since(start)), nil
}

// RunCellSafe prices the cell like RunCellContext but never panics
// and never fails the caller: Cell.Timeout is applied as a derived
// deadline, recovered panics and errors come back as a structured
// error Result carrying the cell's scenario key and the error
// taxonomy (see ErrKind*), so one poisoned cell costs one line.
func RunCellSafe(ctx context.Context, c Cell) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res = errorResult(c, fmt.Errorf("panic: %v", r), ErrKindPanic)
		}
	}()
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	r, err := RunCellContext(ctx, c)
	if err != nil {
		return errorResult(c, err, classifyErr(err))
	}
	r.Scenario = c.Key()
	// A budget demotion means the cell ran on a different link state
	// than its axes requested; the key records the resolved state so
	// the A/B pair cannot be read as two runs of one configuration.
	if r.Degraded {
		r.Scenario += "/state=" + r.State
	}
	return r
}

// errorResult is the structured error line of a failed cell: the
// identifying axes survive, the metrics stay zero, and the taxonomy
// fields say what happened. Error messages are deterministic (no
// wall-clock, no addresses), so journaled error lines reproduce.
func errorResult(c Cell, err error, kind string) Result {
	return Result{
		Scenario:  c.Key(),
		Family:    c.Topo.Family,
		Workload:  c.Work.Name,
		Workers:   c.Workers,
		Trials:    c.Trials,
		Seed:      c.Seed,
		Error:     err.Error(),
		ErrorKind: kind,
	}
}

// emulMemory is the minimum PRAM address-space size M of
// emulation-mode cells, matching cmd/pramemu's default. Networks up
// to 2^24 nodes use it as-is (keeping historical artifacts
// byte-identical); emulMemorySize doubles it for larger networks so
// every memory module still owns at least one address.
const emulMemory = 1 << 24

// emulMemorySize returns the PRAM address-space size for a network:
// the emulMemory default, doubled until it covers the node count.
func emulMemorySize(nodes int) uint64 {
	m := uint64(emulMemory)
	for m < uint64(nodes) {
		m <<= 1
	}
	return m
}

// leases keeps round engines across cells: a cell checks a Lease out
// for its trials (New reruns the engine it keeps when the shape
// matches, builds a new one otherwise) and returns it when done.
// Reuse is bit-invisible — a kept engine has drained its queues and
// cleared its scratch, and New re-arms every per-run field — so pooled
// and fresh cells produce identical artifacts.
var leases = engine.NewLeasePool()

// leaseKey buckets cells whose engines resolve to identically-shaped
// state, so a pooled lease usually keeps a matching engine. The key
// is a heuristic only: New re-checks the actual shape and builds a new
// engine on mismatch, so a coarse bucket costs a miss, never
// correctness.
func leaseKey(c Cell) string {
	return fmt.Sprintf("%s/n=%d/k=%d/lv=%t/m=%s/w=%d/mb=%d",
		c.Topo.Family, c.Topo.N, c.Topo.K, c.Topo.Leveled, c.Mode, c.Workers, c.MemBudget)
}

// memStats fills the Result's memory-pricing fields from the engine's
// resolved state and the cell arena's slab footprint. Event cells
// never reach it: the event loop prices time in ticks, not table
// memory, so their Results leave the fields empty.
func memStats(res Result, ms engine.MemStats, arena *packet.Arena) Result {
	res.State = ms.State.String()
	res.Degraded = ms.Degraded
	res.TableBytes = ms.TableBytes
	res.ArenaBytes = arena.Bytes()
	if res.Nodes > 0 {
		res.BPerNode = float64(res.TableBytes+res.ArenaBytes) / float64(res.Nodes)
	}
	return res
}

// trialFunc routes one trial's packets, generated at seed s, and
// returns the trial's rounds and max queue.
type trialFunc func(pkts []*packet.Packet, s uint64) (rounds, maxQ int, err error)

// router resolves the cell's path once and returns the Result
// skeleton with the per-trial routing step. Route-mode cells run the
// specialized §3.4 mesh router on permutation-class and local traffic
// on the mesh; everything else routes generically — Algorithm 2.1 on
// the leveled unrolling when the cell (or a leveled-only family)
// selects it, Algorithm 2.2 on the graph otherwise — with combining
// enabled for many-one traffic. Emulation-mode cells mirror that
// choice through the emulator's adapters: the §3.3 two-phase scheme
// serves erew cells on the mesh, the generic topology adapter the
// rest. Event cells route generically even on the mesh: the §3.4
// three-stage router is a synchronous construction. p arrives
// pre-defaulted and validated by RunCellContext; arena is the cell's
// packet arena, which emulation-mode trials reuse for the step's
// request packets.
func router(ctx context.Context, b topology.Built, gen workload.Generator, p workload.Params, c Cell, ms *engine.MemStats, lease *engine.Lease, arena *packet.Arena) (*Result, trialFunc, error) {
	res := &Result{Family: c.Topo.Family}
	if c.Engine == "" && meshRouted(b, c.Topo, gen.Class, c.Mode) {
		alg, err := meshAlgorithm(c.Algorithm)
		if err != nil {
			return nil, nil, err
		}
		disc, err := meshDiscipline(c.Discipline)
		if err != nil {
			return nil, nil, err
		}
		g := b.Graph.(*mesh.Grid)
		opts := mesh.Options{
			Context: ctx, Algorithm: alg, Discipline: disc, Workers: c.Workers,
			MemBudget: c.MemBudget, MemStats: ms, Lease: lease,
		}
		res.Algorithm, res.Discipline = algName(c.Algorithm), discName(c.Discipline)
		if c.Mode != "" {
			res.View = "mesh(§3.3)"
			return res, emulTrial(res, &emul.MeshNetwork{G: g, Opts: opts}, gen, c, arena), nil
		}
		if gen.Class == workload.ClassLocal {
			opts.LocalityBound = p.D
			opts.SliceRows = max(1, p.D/4)
		}
		res.Topology, res.Nodes, res.Diameter, res.View = g.Name(), g.Nodes(), g.Diameter(), "mesh(§3.4)"
		return res, func(pkts []*packet.Packet, s uint64) (int, int, error) {
			opts.Seed = s * 31
			st := mesh.Route(g, pkts, opts)
			return st.Rounds, st.MaxQueue, nil
		}, nil
	}
	// Validation guarantees a leveled cell has an unrolling.
	useSpec := b.Graph == nil || c.Topo.Leveled
	res.View = "direct(2.2)"
	if useSpec {
		res.View = "leveled(2.1)"
	}
	// Only the generic routers honor the ablation; the mesh machinery
	// has no phase-1 switch, so the flag is not recorded there.
	res.SkipPhase1 = c.SkipPhase1
	if c.Mode != "" {
		newNet := emul.NewDirectTopologyNetwork
		if useSpec {
			newNet = emul.NewTopologyNetwork
		}
		net, err := newNet(b)
		if err != nil {
			return nil, nil, err
		}
		net.Context, net.SkipPhase1, net.MemBudget = ctx, c.SkipPhase1, c.MemBudget
		net.MemStats, net.Lease = ms, lease
		return res, emulTrial(res, net, gen, c, arena), nil
	}
	res.Topology, res.Nodes, res.Diameter = b.Name(), b.Nodes(), b.Diameter()
	if useSpec {
		res.Topology = b.Spec.Name()
	}
	var evOpts *engine.EventOptions
	if c.Engine == EngineEvent {
		var err error
		if evOpts, err = eventOptions(c.Latency, c.Fault); err != nil {
			return nil, nil, err
		}
		res.Engine, res.Fault = EngineEvent, c.Fault.Label()
	}
	opts := twophase.Options{
		Context: ctx, SkipPhase1: c.SkipPhase1, Workers: c.Workers,
		MemBudget: c.MemBudget, MemStats: ms, Lease: lease, Event: evOpts,
		Combine: gen.Needs&workload.NeedsCombining != 0,
	}
	// Round-engine runs never retransmit, so the event arms' Retransmits
	// accumulation leaves round cells at zero.
	return res, func(pkts []*packet.Packet, s uint64) (int, int, error) {
		opts.Seed = s * 31
		var st twophase.Stats
		var err error
		if useSpec {
			st = leveled.Route(b.Spec, pkts, opts)
		} else {
			st, err = simnet.Route(b.Graph, pkts, opts)
		}
		res.Retransmits += st.Retransmits
		return st.Rounds, st.MaxQueue, err
	}, nil
}

// emulTrial prices one emulated PRAM step per trial instead of raw
// routing (Theorems 2.5/2.6): the workload's packets become the step's
// memory-access pattern via workload.StepRequests, the emulator hashes
// each address to its module and routes requests with read replies —
// combining enabled on crcw cells — and the trial's rounds are the
// step's total cost including any rehash penalty. Each trial draws a
// fresh hash function from the trial seed, so results derive from the
// spec alone. The step's request packets are carved from the cell's
// arena: the workload packets in it are dead once StepRequests has
// read them, and a step has at most one request per workload packet,
// so the arena's high-water mark (ArenaBytes) does not move. It fills
// res from the adapter, and the returned step accumulates Merges,
// Rehashes and MaxModuleLoad into it.
func emulTrial(res *Result, net emul.Network, gen workload.Generator, c Cell, arena *packet.Arena) trialFunc {
	res.Topology, res.Nodes, res.Diameter, res.Mode = net.Name(), net.Nodes(), net.Diameter(), c.Mode
	return func(pkts []*packet.Packet, s uint64) (int, int, error) {
		reqs := workload.StepRequests(gen.Class, net.Nodes(), pkts)
		e, err := emul.New(net, emul.Config{
			Memory:  emulMemorySize(net.Nodes()),
			Seed:    s * 31,
			Combine: c.Mode == ModeCRCW,
			Workers: c.Workers,
			Arena:   arena,
		})
		if err != nil {
			return 0, 0, err
		}
		stats, cost := e.RouteRequests(reqs)
		res.Merges += stats.Merges
		res.Rehashes += e.Rehashes()
		res.MaxModuleLoad = max(res.MaxModuleLoad, stats.MaxModuleLoad)
		return cost, stats.MaxQueue, nil
	}
}

// finish fills the cell metadata and derived metrics shared by every
// router. maxQs holds the per-trial max queue lengths in trial order,
// collapsed into MaxQueue here and kept raw (with the per-trial round
// counts) on Distribution cells.
func finish(res Result, c Cell, rounds, maxQs []int, elapsed time.Duration) Result {
	res.Workload = c.Work.Name
	res.Workers = c.Workers
	res.Trials = c.Trials
	res.Seed = c.Seed
	res.RoundsMean = mathx.MeanInts(rounds)
	res.RoundsMax = mathx.MaxInts(rounds)
	res.MaxQueue = mathx.MaxInts(maxQs)
	if c.Distribution {
		res.TrialRounds = rounds
		res.TrialMaxQ = maxQs
	}
	if res.Diameter > 0 {
		res.RoundsPerDiam = res.RoundsMean / float64(res.Diameter)
	}
	if c.Timing {
		res.ElapsedMS = float64(elapsed.Microseconds()) / 1e3
		if elapsed > 0 {
			total := 0
			for _, r := range rounds {
				total += r
			}
			res.RoundsPerSec = float64(total) / elapsed.Seconds()
		}
	}
	return res
}

// algName canonicalizes the algorithm axis value for reports.
func algName(name string) string {
	if name == "" {
		return "threestage"
	}
	return name
}

// discName canonicalizes the discipline axis value for reports.
func discName(name string) string {
	if name == "" {
		return "furthest"
	}
	return name
}

// Run expands the spec into its grid and executes every cell over a
// pool of Spec.Pool workers. Results come back sorted by scenario key
// with the wall-clock fields zeroed (unless Spec.Timing asks for
// them), so the output is identical for any pool width — each cell's
// seeds derive from the spec alone, never from execution order. Axis
// values, workload parameters, emulation modes and capability
// pairings are validated during expansion, before any cell routes. A
// cell that still fails at run time (panic, timeout, invalid
// configuration) costs one structured error line, the grid keeps
// draining (unless Spec.FailFast), and the failures come back in
// aggregate as an *AggregateError alongside the full result set.
func Run(spec Spec) ([]Result, error) {
	return RunContextOptions(context.Background(), spec, RunOptions{})
}

// RunOptions tunes Run beyond the spec itself.
type RunOptions struct {
	// Cache, when non-nil, resolves the spec's topology axis through
	// the shared build cache: every cell of one topology reference
	// pins a single cached Built for the duration of the sweep, and
	// successive sweeps reuse it. Results are identical with or
	// without a cache — builds are deterministic and Built is
	// immutable — only the build work is saved.
	Cache *buildcache.Cache
}

// RunContextOptions is Run under a context, with explicit options (see
// RunOptions for the knobs): cancellation stops queued cells, aborts
// running ones within a round, and returns the completed results with
// ctx.Err(). Cells a sweep-level cancellation cut short produce no
// lines (they carry no verdict — a resumed sweep runs them again),
// unlike per-cell timeouts, which do.
func RunContextOptions(ctx context.Context, spec Spec, opts RunOptions) ([]Result, error) {
	spec = spec.withDefaults()
	cells, release, err := spec.cells(opts.Cache)
	if err != nil {
		return nil, err
	}
	defer release()
	if len(cells) == 0 {
		return nil, fmt.Errorf("scenario: spec %q expands to no runnable cells", spec.Name)
	}
	return runCells(ctx, spec, cells, nil, nil)
}

// runCells executes the expanded grid over the spec's pool — the core
// Run, RunContextOptions and RunJournaled share. Cells whose base key
// appears in skip return the cached Result without running (journal
// resume and retry passes); onDone, when non-nil, observes each
// freshly computed, non-dropped result serially (the journal's
// append hook). See RunContextOptions for the cancellation contract.
func runCells(ctx context.Context, spec Spec, cells []Cell, skip map[string]Result, onDone func(Result)) ([]Result, error) {
	pool := spec.Pool
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	if pool > len(cells) {
		pool = len(cells)
	}
	// FailFast cancels the grid's own context on the first failure;
	// the parent stays distinguishable so a user cancellation is not
	// misread as a failed sweep.
	runCtx := ctx
	cancel := context.CancelFunc(func() {})
	if spec.FailFast {
		runCtx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	results := make([]Result, len(cells))
	include := make([]bool, len(cells))
	var mu sync.Mutex // serializes onDone and guards nothing else
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if cached, ok := skip[cells[i].Key()]; ok {
					results[i], include[i] = cached, true
					continue
				}
				if runCtx.Err() != nil {
					// Canceled before starting: drop the cell entirely
					// so a resumed sweep runs it fresh.
					continue
				}
				r := RunCellSafe(runCtx, cells[i])
				if r.ErrorKind == ErrKindCanceled && runCtx.Err() != nil {
					// Aborted mid-run by sweep-level cancellation, not
					// a per-cell verdict: drop it too.
					continue
				}
				results[i], include[i] = r, true
				if r.Failed() && spec.FailFast {
					cancel()
				}
				if onDone != nil {
					mu.Lock()
					onDone(r)
					mu.Unlock()
				}
			}
		}()
	}
	for i := range cells {
		work <- i
	}
	close(work)
	wg.Wait()
	out := make([]Result, 0, len(cells))
	for i, ok := range include {
		if ok {
			out = append(out, results[i])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Scenario < out[j].Scenario })
	if err := ctx.Err(); err != nil {
		return out, err
	}
	failed := 0
	var first Result
	for _, r := range out {
		if r.Failed() {
			if failed == 0 {
				first = r
			}
			failed++
		}
	}
	if failed > 0 {
		return out, &AggregateError{Failed: failed, Total: len(cells), First: first}
	}
	return out, nil
}

// ReadSpec parses a sweep spec from JSON, rejecting unknown fields so
// typos in axis names fail loudly instead of silently defaulting.
func ReadSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	return s, nil
}

// WriteJSONL writes one JSON object per result line — the sweep
// artifact format.
func WriteJSONL(w io.Writer, results []Result) error {
	enc := json.NewEncoder(w)
	for _, r := range results {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}
