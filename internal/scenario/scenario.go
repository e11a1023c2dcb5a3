// Package scenario turns (topology × workload × discipline ×
// emulation mode × ablations × engine workers × trials) grids into
// results: the declarative sweep layer behind every byte-gated
// artifact in sweeps/expected, and so the contract that keeps the
// results fixed while the code under it gets smaller. A Spec names
// axes by registry key — the topology registry supplies the networks,
// the workload registry the traffic — so a family or generator
// registered tomorrow is sweepable with zero edits here. The mode
// axis decides what a cell prices: raw routing ("route"), or one
// emulated PRAM step per trial ("erew"/"crcw", Theorems 2.5/2.6)
// dispatched through internal/emul with the workload's packets as the
// step's memory accesses; the skip_phase1 and paged axes are
// ablations, so A/B pairs land in one artifact. Run executes the
// cross-product in parallel over a worker pool and returns
// seed-deterministic, order-independent results: the JSONL a parallel
// sweep emits is line-for-line identical (after the built-in sort by
// scenario key) to a sequential run with the same seed. Report
// derives sweep-level summaries (workers-axis speedups, per-class
// aggregates across families) from the results.
package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"pramemu/internal/buildcache"
	"pramemu/internal/mesh"
	"pramemu/internal/topology"
	"pramemu/internal/workload"
)

// TopoRef selects one topology configuration by registry name.
type TopoRef struct {
	// Family is the topology-registry key.
	Family string `json:"family"`
	// N and K are the registry's size parameters (0 = family default).
	N int `json:"n,omitempty"`
	K int `json:"k,omitempty"`
	// Leveled routes on the Algorithm 2.1 unrolling where one exists
	// (leveled-only families use theirs regardless).
	Leveled bool `json:"leveled,omitempty"`
}

// WorkRef selects one workload configuration by registry name.
type WorkRef struct {
	// Name is the workload-registry key.
	Name string `json:"name"`
	// H, D, Fraction and Hot map onto workload.Params (0 = default).
	H        int     `json:"h,omitempty"`
	D        int     `json:"d,omitempty"`
	Fraction float64 `json:"fraction,omitempty"`
	Hot      int     `json:"hot,omitempty"`
}

// params converts the reference into generator parameters.
func (w WorkRef) params() workload.Params {
	return workload.Params{H: w.H, D: w.D, Fraction: w.Fraction, Hot: w.Hot}
}

// Spec is one declarative sweep: the cross-product of its axes.
type Spec struct {
	// Name labels the sweep in logs; it does not affect results.
	Name string `json:"name,omitempty"`
	// Topologies and Workloads are the two registry-keyed axes.
	Topologies []TopoRef `json:"topologies"`
	Workloads  []WorkRef `json:"workloads"`
	// Disciplines is the mesh queueing-discipline axis ("furthest",
	// "fifo"); it expands only on cells the specialized §3.4 mesh
	// router serves and collapses to a single cell elsewhere.
	// Default: ["furthest"].
	Disciplines []string `json:"disciplines,omitempty"`
	// Modes is the emulation-mode axis. "route" prices raw routing
	// (the default); "erew" and "crcw" price one emulated PRAM step
	// per trial instead (Theorems 2.5 and 2.6): the workload's
	// packets become the step's memory-access pattern, requests are
	// hashed to modules and routed with read replies, and the cell's
	// rounds are the step's cost including any rehash penalty. CRCW
	// cells route with combining enabled; EREW cells carry only
	// exclusive (permutation-class) patterns — the registry's
	// NeedsCombining workloads are gated to crcw cells.
	// Default: ["route"].
	Modes []string `json:"modes,omitempty"`
	// Mode is the single-value shorthand for Modes (a spec with
	// `"mode": "crcw"` is the one-mode sweep).
	Mode string `json:"mode,omitempty"`
	// SkipPhase1 is the randomizing-phase ablation axis: true cells
	// route deterministically with no phase-1 detour. It expands on
	// every cell the generic routers or the emulator serve and
	// collapses on the specialized mesh router (whose three-stage
	// structure has no such switch). Default: [false].
	SkipPhase1 []bool `json:"skip_phase1,omitempty"`
	// MemBudget caps the engine's fixed link-table footprint in bytes
	// on every cell of the sweep; a resolution over budget steps down
	// the dense → paged → hashed ladder and the cell records Degraded
	// plus a "/state=paged" or "/state=hashed" key suffix. It is the
	// one way to price a flat-sized network on paged or hashed tables.
	// Zero means no budget.
	MemBudget int64 `json:"mem_budget,omitempty"`
	// Engines is the engine axis: "round" prices idealized synchronous
	// rounds (the default), "event" the asynchronous discrete-event
	// engine with the sweep's Latency model and Faults levels. Event
	// cells route on the generic simulators (the specialized mesh
	// router is a synchronous construction), so the discipline/
	// algorithm axis collapses on them, as do the emulation modes
	// (erew/crcw price the synchronous PRAM step model) and the paged
	// ablation (the event loop keeps its own link index).
	// Default: ["round"].
	Engines []string `json:"engines,omitempty"`
	// Engine is the single-value shorthand for Engines.
	Engine string `json:"engine,omitempty"`
	// Latency configures the event cells' link model (nil = fixed
	// unit latency, the synchronous round geometry with asynchronous
	// scheduling). Round cells ignore it.
	Latency *LatencySpec `json:"latency,omitempty"`
	// Faults is the fault-level axis: each entry expands every event
	// cell into one cell per level (round cells collapse the axis).
	// Default: one fault-free level.
	Faults []FaultSpec `json:"faults,omitempty"`
	// Workers is the round-engine worker axis (1 = sequential; any
	// value yields identical results, which a sweep over {1, n}
	// verifies end to end). The event engine is sequential by
	// construction, so on event cells the axis is verified vacuously.
	// Default: [1].
	Workers []int `json:"workers,omitempty"`
	// Trials is the seeded repetition count per cell (default 3).
	Trials int `json:"trials,omitempty"`
	// Distribution records the per-trial rounds and max-queue samples
	// on every result line (trial_rounds / trial_max_q), feeding the
	// report layer's distribution rows (max/p99/p999/stddev/histogram
	// over trials) and the adversarial seed sweeps. Off by default so
	// historical artifacts keep their exact bytes.
	Distribution bool `json:"distribution,omitempty"`
	// Seed is the base seed shared by every cell (default 1991), so a
	// sweep cell reproduces the routebench invocation with the same
	// parameters exactly.
	Seed uint64 `json:"seed,omitempty"`
	// Algorithm selects the mesh routing algorithm for mesh-routed
	// cells ("threestage", "vb", "greedy"; default "threestage").
	Algorithm string `json:"algorithm,omitempty"`
	// Pool is the sweep's own worker-pool width: how many cells run
	// concurrently (0 = GOMAXPROCS, 1 = sequential). Results are
	// identical for any value.
	Pool int `json:"pool,omitempty"`
	// SkipIncompatible drops (family, workload) and (mode, workload)
	// pairs whose capability check fails instead of failing the sweep
	// — the knob the full-matrix E16/E17 pricings use.
	SkipIncompatible bool `json:"skip_incompatible,omitempty"`
	// Timing fills each cell's wall-clock fields (elapsed_ms,
	// rounds_per_sec). Timed JSONL is NOT byte-reproducible — leave
	// it off for artifacts; `routebench -sweep -report` turns it on
	// internally to compute speedups, then strips the wall-clock
	// fields from the result lines it emits.
	Timing bool `json:"timing,omitempty"`
	// TimeoutMS deadlines each cell individually: a cell exceeding it
	// is cut off (the engines poll cancellation cheaply) and lands in
	// the output as a structured error line with error_kind "timeout"
	// instead of killing the sweep. Zero means no per-cell deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// FailFast cancels the remaining cells when one cell fails hard
	// (panic, timeout, or an invalid cell) instead of draining the
	// grid: the failing cell's error line is emitted, queued cells are
	// dropped. Default off — a poisoned cell then costs exactly one
	// error line and every other cell still prices.
	FailFast bool `json:"fail_fast,omitempty"`
}

// withDefaults substitutes the documented axis defaults.
func (s Spec) withDefaults() Spec {
	if len(s.Disciplines) == 0 {
		s.Disciplines = []string{"furthest"}
	}
	if s.Engine != "" {
		s.Engines = append(s.Engines, s.Engine)
		s.Engine = ""
	}
	if len(s.Engines) == 0 {
		s.Engines = []string{EngineRound}
	}
	if len(s.Faults) == 0 {
		s.Faults = []FaultSpec{{}}
	}
	if s.Mode != "" {
		s.Modes = append(s.Modes, s.Mode)
		s.Mode = ""
	}
	if len(s.Modes) == 0 {
		s.Modes = []string{ModeRoute}
	}
	if len(s.SkipPhase1) == 0 {
		s.SkipPhase1 = []bool{false}
	}
	if len(s.Workers) == 0 {
		s.Workers = []int{1}
	}
	if s.Trials == 0 {
		s.Trials = 3
	}
	if s.Seed == 0 {
		s.Seed = 1991
	}
	if s.Algorithm == "" {
		s.Algorithm = "threestage"
	}
	return s
}

// Cell is one point of a sweep grid — everything RunCell needs to
// produce one Result. Commands construct single cells directly; Run
// expands a Spec into them.
type Cell struct {
	Topo TopoRef
	Work WorkRef
	// Built optionally carries the pre-built topology (Run's expansion
	// fills it; benchmarks repeating one cell should too). Zero means
	// RunCell builds from Topo. Graphs are stateless and concurrent-
	// safe, so one Built may back many cells.
	Built      topology.Built
	Discipline string // mesh queue discipline; "" = furthest
	Algorithm  string // mesh routing algorithm; "" = threestage
	Mode       string // route | erew | crcw; "" = route
	// Engine selects the pricing engine: "" or "round" the synchronous
	// round loop, "event" the asynchronous discrete-event loop with
	// the cell's Latency model and Fault level.
	Engine  string
	Latency LatencySpec // event cells: link latency/bandwidth model
	Fault   FaultSpec   // event cells: fault level
	Workers int         // round-engine workers (0 = GOMAXPROCS)
	Trials  int
	Seed    uint64
	// Distribution keeps the per-trial rounds and max-queue samples on
	// the Result (TrialRounds/TrialMaxQ) instead of collapsing them
	// into mean/max only — the raw material of the report layer's
	// distribution rows and the adversarial search's seed sweeps.
	Distribution bool
	SkipPhase1   bool // ablation: no randomizing phase
	// MemBudget caps the engine's fixed link-table footprint in bytes
	// (0 = no budget); over budget a resolution steps down to paged,
	// then hashed tables, and the Result records Degraded.
	MemBudget int64
	Timing    bool // fill ElapsedMS/RoundsPerSec (wall-clock, so
	// sweeps leave it off to keep JSONL deterministic)
	// Timeout deadlines the cell: RunCellSafe derives a per-cell
	// context from it and converts expiry into a "timeout" error
	// Result. Zero means no deadline.
	Timeout time.Duration
}

// Key is the cell's canonical scenario key: the JSONL sort key and
// the Scenario field of its Result. Workload parameters appear with
// their defaults substituted — the values the cell actually runs with
// — so cells that differ only in explicit-default vs zero parameters
// share one key (and identical results).
func (c Cell) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[n=%d,k=%d", c.Topo.Family, c.Topo.N, c.Topo.K)
	if c.Topo.Leveled {
		b.WriteString(",leveled")
	}
	p := c.Work.params().Defaulted()
	fmt.Fprintf(&b, "]/%s[h=%d,d=%d,f=%g,hot=%d]", c.Work.Name, p.H, p.D, p.Fraction, p.Hot)
	if c.Algorithm != "" {
		fmt.Fprintf(&b, "/alg=%s", c.Algorithm)
	}
	if c.Discipline != "" {
		fmt.Fprintf(&b, "/disc=%s", c.Discipline)
	}
	if c.Mode != "" && c.Mode != ModeRoute {
		fmt.Fprintf(&b, "/mode=%s", c.Mode)
	}
	if c.Engine != "" && c.Engine != EngineRound {
		fmt.Fprintf(&b, "/eng=%s/lat=%s", c.Engine, c.Latency.segment())
		if !c.Fault.zero() || c.Fault.Name != "" {
			fmt.Fprintf(&b, "/fault=%s", c.Fault.Label())
		}
	}
	if c.SkipPhase1 {
		b.WriteString("/nophase1")
	}
	if c.MemBudget > 0 {
		fmt.Fprintf(&b, "/mem=%d", c.MemBudget)
	}
	if c.Distribution {
		// Distribution cells carry extra fields on their lines, so a
		// journaled non-distribution line must not satisfy one on resume.
		b.WriteString("/dist")
	}
	fmt.Fprintf(&b, "/w=%d", c.Workers)
	return b.String()
}

// The emulation-mode axis values.
const (
	// ModeRoute prices raw routing of the workload's packets.
	ModeRoute = "route"
	// ModeEREW prices one emulated EREW PRAM step per trial
	// (Theorem 2.5): exclusive accesses, no combining.
	ModeEREW = "erew"
	// ModeCRCW prices one emulated CRCW PRAM step per trial with
	// en-route combining (Theorem 2.6).
	ModeCRCW = "crcw"
)

// ModeCheck reports whether the named emulation mode can carry the
// given traffic class, naming the mismatch otherwise — the mode twin
// of workload.Generator.Check. Relations have no single-step PRAM
// form (a PRAM processor issues at most one request per step), and
// many-one or collision-prone traffic is concurrent access, which
// only the crcw mode's combining may carry.
func ModeCheck(mode string, class workload.Class) error {
	switch mode {
	case "", ModeRoute:
		return nil
	case ModeEREW:
		switch class {
		case workload.ClassPermutation:
			return nil
		case workload.ClassRelation:
			return fmt.Errorf("%s traffic has no single-step PRAM form (one request per processor per step)", class)
		default:
			return fmt.Errorf("%s traffic may touch one address concurrently; erew cells carry only permutation-class patterns (use crcw)", class)
		}
	case ModeCRCW:
		if class == workload.ClassRelation {
			return fmt.Errorf("%s traffic has no single-step PRAM form (one request per processor per step)", class)
		}
		return nil
	default:
		return fmt.Errorf("unknown mode %q (known: %s, %s, %s)", mode, ModeRoute, ModeEREW, ModeCRCW)
	}
}

// lookupWork resolves a workload reference, rejecting unknown names
// and fractions outside [0,1] — the workload checks RunCellContext and
// Spec.cells share.
func lookupWork(w WorkRef) (workload.Generator, error) {
	gen, ok := workload.Lookup(w.Name)
	if !ok {
		return gen, fmt.Errorf("unknown workload %q (known: %v)", w.Name, workload.Names())
	}
	if w.Fraction < 0 || w.Fraction > 1 {
		return gen, fmt.Errorf("workload %s: fraction %v out of [0,1]", w.Name, w.Fraction)
	}
	return gen, nil
}

// checkTopo rejects a leveled reference to a network without an
// unrolling and a network past the simulator's node-id limit.
func checkTopo(b topology.Built, tr TopoRef) error {
	if tr.Leveled && b.Spec == nil {
		return fmt.Errorf("%s has no leveled unrolling", b.Name())
	}
	if b.Nodes() > topology.MaxNodes {
		return fmt.Errorf("%s has %d nodes, exceeding the simulator's node-id limit (%d)", b.Name(), b.Nodes(), topology.MaxNodes)
	}
	return nil
}

// checkMode is ModeCheck with the workload named in the error.
func checkMode(mode string, gen workload.Generator) error {
	if err := ModeCheck(mode, gen.Class); err != nil {
		return fmt.Errorf("workload %s: %w", gen.Name, err)
	}
	return nil
}

// buildTopo resolves one topology reference: through the build cache
// when one is supplied (the returned Ref pins the entry until
// released; nil when the cache is disabled), by a direct registry
// build otherwise.
func buildTopo(cache *buildcache.Cache, tr TopoRef) (topology.Built, *buildcache.Ref, error) {
	if cache == nil {
		b, err := topology.Build(tr.Family, topology.Params{N: tr.N, K: tr.K})
		return b, nil, err
	}
	return cache.Get(tr.Family, topology.Params{N: tr.N, K: tr.K}, tr.Leveled)
}

// cells expands the spec into its grid, validating every axis value
// up front: unknown families, workloads or disciplines and
// incompatible (family, workload) pairs fail here — with the error
// naming the missing capability — before any routing runs. A non-nil
// cache resolves the topology axis through it: every cell of one
// topology reference shares a single cached Built. The returned
// release function drops the cache references pinning those builds —
// call it once routing is done (it is non-nil exactly when err is
// nil, and safe to call with no cache).
func (s Spec) cells(cache *buildcache.Cache) (cells []Cell, release func(), err error) {
	var refs []*buildcache.Ref
	releaseRefs := func() {
		for _, r := range refs {
			r.Release()
		}
	}
	release = releaseRefs
	// Error returns null the named release, so drop the refs here —
	// callers only see a usable release on success.
	defer func() {
		if err != nil {
			releaseRefs()
		}
	}()
	if len(s.Topologies) == 0 {
		return nil, nil, &SpecError{Field: "topologies", Err: fmt.Errorf("spec needs at least one topology")}
	}
	if len(s.Workloads) == 0 {
		return nil, nil, &SpecError{Field: "workloads", Err: fmt.Errorf("spec needs at least one workload")}
	}
	if s.Trials < 0 {
		return nil, nil, &SpecError{Field: "trials", Err: fmt.Errorf("negative trial count %d", s.Trials)}
	}
	if s.TimeoutMS < 0 {
		return nil, nil, &SpecError{Field: "timeout_ms", Err: fmt.Errorf("negative per-cell timeout %d", s.TimeoutMS)}
	}
	if _, err := meshAlgorithm(s.Algorithm); err != nil {
		return nil, nil, &SpecError{Field: "algorithm", Err: err}
	}
	for _, d := range s.Disciplines {
		if _, err := meshDiscipline(d); err != nil {
			return nil, nil, &SpecError{Field: "disciplines", Err: err}
		}
	}
	for _, m := range s.Modes {
		// Unknown mode names are spec errors regardless of
		// SkipIncompatible; ModeCheck against the always-legal
		// permutation class isolates the name validation.
		if err := ModeCheck(m, workload.ClassPermutation); err != nil {
			return nil, nil, &SpecError{Field: "modes", Err: err}
		}
	}
	for _, e := range s.Engines {
		if err := EngineCheck(e); err != nil {
			return nil, nil, &SpecError{Field: "engines", Err: err}
		}
	}
	var specLatency LatencySpec
	if s.Latency != nil {
		specLatency = *s.Latency
	}
	// The latency model validates alone first (against a fault-free
	// level), so a bad model name reports under its own field rather
	// than whichever fault level trips over it.
	if _, err := eventOptions(specLatency, FaultSpec{}); err != nil {
		return nil, nil, &SpecError{Field: "latency", Err: err}
	}
	seenFaults := make(map[string]bool)
	for _, f := range s.Faults {
		// Knob validation is engine-independent; the label check keeps
		// scenario keys unique across the fault axis.
		if _, err := eventOptions(specLatency, f); err != nil {
			return nil, nil, &SpecError{Field: "faults", Err: err}
		}
		if label := f.Label(); seenFaults[label] {
			return nil, nil, &SpecError{Field: "faults", Err: fmt.Errorf("duplicate fault level %q", label)}
		} else {
			seenFaults[label] = true
		}
	}
	for _, tr := range s.Topologies {
		b, ref, err := buildTopo(cache, tr)
		if err != nil {
			return nil, nil, &SpecError{Field: "topologies", Err: err}
		}
		if ref != nil {
			refs = append(refs, ref)
		}
		if err := checkTopo(b, tr); err != nil {
			return nil, nil, &SpecError{Field: "topologies", Err: err}
		}
		for _, wr := range s.Workloads {
			gen, err := lookupWork(wr)
			if err != nil {
				return nil, nil, &SpecError{Field: "workloads", Err: err}
			}
			if err := gen.Check(b); err != nil {
				if s.SkipIncompatible {
					continue
				}
				return nil, nil, &SpecError{Field: "workloads", Err: err}
			}
			for _, mode := range s.Modes {
				if mode == ModeRoute {
					mode = ""
				}
				if err := checkMode(mode, gen); err != nil {
					if s.SkipIncompatible {
						continue
					}
					return nil, nil, &SpecError{Field: "modes", Err: err}
				}
				// The engine axis collapses on emulation-mode cells:
				// erew/crcw price the synchronous PRAM step model.
				engines := s.Engines
				if mode != "" {
					engines = []string{EngineRound}
				}
				for _, eng := range engines {
					if eng == EngineRound {
						eng = ""
					}
					// Axes that only some routers honor collapse on the
					// rest so the grid has no duplicate rows: the
					// discipline/algorithm axis distinguishes cells the
					// specialized mesh router serves, the skip-phase-1
					// ablation every cell except those (the three-stage
					// mesh router has no such switch). Event cells route
					// generically — the §3.4 router is a synchronous
					// construction — so both collapse there; the fault
					// axis expands only on event cells.
					meshSpecial := eng == "" && meshRouted(b, tr, gen.Class, mode)
					disciplines := s.Disciplines
					algorithm := s.Algorithm
					skips := s.SkipPhase1
					if !meshSpecial {
						disciplines = []string{""}
						algorithm = ""
					} else {
						skips = []bool{false}
					}
					faults := []FaultSpec{{}}
					var latency LatencySpec
					if eng != "" {
						faults = s.Faults
						latency = specLatency
					}
					for _, disc := range disciplines {
						for _, skip := range skips {
							for _, fault := range faults {
								for _, w := range s.Workers {
									cells = append(cells, Cell{
										Topo:         tr,
										Work:         wr,
										Built:        b,
										Discipline:   disc,
										Algorithm:    algorithm,
										Mode:         mode,
										Engine:       eng,
										Latency:      latency,
										Fault:        fault,
										Workers:      w,
										Trials:       s.Trials,
										Seed:         s.Seed,
										Distribution: s.Distribution,
										SkipPhase1:   skip,
										MemBudget:    s.MemBudget,
										Timing:       s.Timing,
										Timeout:      time.Duration(s.TimeoutMS) * time.Millisecond,
									})
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Key() < cells[j].Key() })
	// Repeated axis values (a topology listed twice, "mode" beside the
	// same "modes" entry) expand to cells with one key; the sort puts
	// them side by side.
	prev := ""
	for _, c := range cells {
		key := c.Key()
		if key == prev {
			return nil, nil, &SpecError{Field: "cells", Err: fmt.Errorf("axis values repeat cell %s", key)}
		}
		prev = key
	}
	return cells, release, nil
}

// meshRouted reports whether the cell runs on the paper's specialized
// mesh machinery: a mesh grid, not forced onto a leveled view,
// carrying traffic it is defined for. In route mode that is the §3.4
// three-stage router on permutation-class and local traffic; in erew
// mode the §3.3 two-phase step scheme (request leg, reply leg, both
// on the three-stage router). Everything else — h-relations and
// many-one route-mode traffic on the mesh, and crcw-mode cells, whose
// combining is a leveled/direct-view mechanism (Thm 2.6) the EREW
// mesh scheme of Thm 3.2 does not have — routes generically on the
// graph view.
func meshRouted(b topology.Built, tr TopoRef, class workload.Class, mode string) bool {
	if tr.Leveled {
		return false
	}
	if _, ok := b.Graph.(*mesh.Grid); !ok {
		return false
	}
	switch mode {
	case "", ModeRoute:
		return class == workload.ClassPermutation || class == workload.ClassLocal
	case ModeEREW:
		return true
	default: // crcw
		return false
	}
}

// meshAlgorithm resolves the algorithm axis value.
func meshAlgorithm(name string) (mesh.Algorithm, error) {
	switch name {
	case "", "threestage":
		return mesh.ThreeStage, nil
	case "vb":
		return mesh.ValiantBrebner, nil
	case "greedy":
		return mesh.Greedy, nil
	default:
		return 0, fmt.Errorf("unknown mesh algorithm %q", name)
	}
}

// meshDiscipline resolves the discipline axis value.
func meshDiscipline(name string) (mesh.Discipline, error) {
	switch name {
	case "", "furthest":
		return mesh.FurthestFirst, nil
	case "fifo":
		return mesh.FIFODiscipline, nil
	default:
		return 0, fmt.Errorf("unknown mesh discipline %q", name)
	}
}
