// Package advsearch hunts worst-case inputs per topology family: the
// search subsystem behind `routebench -advsearch` and experiment E21.
// The paper's routing bounds are with-high-probability statements;
// every sweep so far reports a handful of seeds, so nobody has
// measured the tail and no input in the repo is *trying* to be bad.
// Three strategies behind one Searcher interface close that gap:
// large-scale seed sweeps with full round/maxQ distributions (the
// scenario layer's Distribution axis), a scan over structured
// adversaries from the workload registry (bit-reversal and friends
// plus this package's own adv:* patterns), and a greedy permutation
// search that mutates swap pairs and keeps whatever grows the
// observed maximum. Everything derives from the spec's seed alone —
// results are byte-reproducible for any pool width — and a found
// permutation can be frozen into sweeps/adversarial/ as a permanent
// regression workload (workload.Frozen).
package advsearch

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"

	"pramemu/internal/scenario"
	"pramemu/internal/workload"
)

// Spec is one adversarial search: the families to attack, the
// strategies to use and their budgets. Like scenario.Spec it is pure
// data — two runs of one spec produce identical findings.
type Spec struct {
	// Name labels the search in logs and artifacts.
	Name string `json:"name,omitempty"`
	// Families are the topology instances to hunt on.
	Families []scenario.TopoRef `json:"families"`
	// Strategies selects the searchers by name ("seeds",
	// "structured", "greedy"). Default: all three.
	Strategies []string `json:"strategies,omitempty"`
	// Seeds is the seed-sweep width: how many trial seeds the "seeds"
	// strategy prices per family (default 32).
	Seeds int `json:"seeds,omitempty"`
	// Iters is the greedy budget: how many swap-pair mutations the
	// "greedy" strategy evaluates per family (default 64).
	Iters int `json:"iters,omitempty"`
	// Trials is the per-evaluation trial count of the structured and
	// greedy strategies (default 2).
	Trials int `json:"trials,omitempty"`
	// Seed is the base seed every strategy derives its randomness
	// from (default 1991).
	Seed uint64 `json:"seed,omitempty"`
	// Pool is how many families search concurrently (0 = GOMAXPROCS).
	// Findings are identical for any value.
	Pool int `json:"pool,omitempty"`
	// BoundC is the theorem constant: a family's observed-worst rounds
	// are compared against BoundC × diameter (default 16 — the paper's
	// O(diameter) claims hold whp with a small constant; 16 gives the
	// regression gate honest headroom over the ~3.4 observed today).
	BoundC float64 `json:"bound_c,omitempty"`
}

// withDefaults substitutes the documented defaults.
func (s Spec) withDefaults() Spec {
	if len(s.Strategies) == 0 {
		s.Strategies = []string{"seeds", "structured", "greedy"}
	}
	if s.Seeds == 0 {
		s.Seeds = 32
	}
	if s.Iters == 0 {
		s.Iters = 64
	}
	if s.Trials == 0 {
		s.Trials = 2
	}
	if s.Seed == 0 {
		s.Seed = 1991
	}
	if s.BoundC == 0 {
		s.BoundC = 16
	}
	return s
}

// ReadSpec parses a search spec from JSON, rejecting unknown fields
// so typos fail loudly instead of silently defaulting.
func ReadSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("advsearch: parsing spec: %w", err)
	}
	return s, nil
}

// Finding is one worst case a strategy observed: the instance it was
// found on, the input that realizes it (workload name + seed, plus
// the raw permutation for greedy winners so it can be frozen), the
// observed metrics and how they compare to the theorem bound.
type Finding struct {
	Family   string `json:"family"`
	Topology string `json:"topology"`
	N        int    `json:"n,omitempty"`
	K        int    `json:"k,omitempty"`
	Nodes    int    `json:"nodes"`
	Diameter int    `json:"diameter"`
	// Strategy names the searcher ("seeds" | "structured" | "greedy"),
	// Workload the registry workload that realizes the case ("perm"
	// for seed sweeps, the scanned name for structured, "greedy" for
	// searched permutations) and Seed the base seed reproducing the
	// observed metrics at Trials repetitions.
	Strategy string `json:"strategy"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trials   int    `json:"trials"`
	// Rounds and MaxQ are the worst observed values; RoundsPerDiam
	// normalizes rounds by the instance diameter — the figure the
	// theorem bounds in O(diameter) terms.
	Rounds        int     `json:"rounds"`
	MaxQ          int     `json:"max_q"`
	RoundsPerDiam float64 `json:"rounds_per_diam"`
	// Bound is BoundC × diameter; WithinBound whether the observed
	// worst stays under it. A false here is the search's jackpot: an
	// input beating the theorem constant.
	Bound       float64 `json:"bound"`
	WithinBound bool    `json:"within_bound"`
	// The seed strategy's distribution statistics over its sweep
	// (absent on structured/greedy findings).
	RoundsDist *scenario.DistStats `json:"rounds_dist,omitempty"`
	MaxQDist   *scenario.DistStats `json:"max_q_dist,omitempty"`
	// Perm is the greedy winner's destination table, carried for
	// freezing but kept out of the JSON artifact (frozen files encode
	// it compactly).
	Perm []int `json:"-"`
}

// Report is the artifact of one search run.
type Report struct {
	Name     string    `json:"name,omitempty"`
	Seed     uint64    `json:"seed"`
	BoundC   float64   `json:"bound_c"`
	Findings []Finding `json:"findings"`
}

// Worst returns one finding per (family, strategy): the maximum by
// (rounds, maxQ), in family-then-strategy order — the rows of E21.
func (r Report) Worst() []Finding {
	type key struct{ family, strategy string }
	best := make(map[key]Finding)
	var keys []key
	for _, f := range r.Findings {
		k := key{f.Family, f.Strategy}
		b, seen := best[k]
		if !seen {
			keys = append(keys, k)
		}
		if !seen || f.Rounds > b.Rounds || (f.Rounds == b.Rounds && f.MaxQ > b.MaxQ) {
			best[k] = f
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].family != keys[j].family {
			return keys[i].family < keys[j].family
		}
		return keys[i].strategy < keys[j].strategy
	})
	out := make([]Finding, len(keys))
	for i, k := range keys {
		out[i] = best[k]
	}
	return out
}

// Env is the per-search context handed to every Searcher: the spec's
// budgets plus the seed-sweep cache RunJournaled primes from its
// journaled cell artifact.
type Env struct {
	Seeds  int
	Iters  int
	Trials int
	Seed   uint64
	// SeedCache maps a topology's cell key to the already-priced
	// Distribution result of the seeds strategy's cell — the bridge
	// from the journaled scenario sweep to the searcher, so a resumed
	// search never re-prices completed seed sweeps. Nil means price
	// live.
	SeedCache map[string]scenario.Result
}

// Searcher is one strategy: given the environment and a topology
// instance, return the worst inputs it can find. Implementations must
// derive all randomness from Env.Seed and the instance alone.
type Searcher interface {
	Name() string
	Search(ctx context.Context, env Env, topo scenario.TopoRef) ([]Finding, error)
}

// searcherByName resolves a strategy name.
func searcherByName(name string) (Searcher, error) {
	switch name {
	case "seeds":
		return seedSweeper{}, nil
	case "structured":
		return structuredScan{}, nil
	case "greedy":
		return greedySearcher{}, nil
	default:
		return nil, fmt.Errorf("advsearch: unknown strategy %q (known: seeds, structured, greedy)", name)
	}
}

// familySeed derives the per-instance seed every strategy splits its
// randomness from: a function of the spec seed and the instance's
// identity alone, independent of pool scheduling — the root of the
// pool-width reproducibility property.
func familySeed(seed uint64, topo scenario.TopoRef) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d/%t", topo.Family, topo.N, topo.K, topo.Leveled)
	return seed ^ h.Sum64()
}

// evalCell prices one (instance, workload) pair through the scenario
// layer — the shared evaluation primitive of every strategy. The cell
// runs on the shared build cache, so repeated candidate evaluations
// on one instance rebuild nothing.
func evalCell(ctx context.Context, topo scenario.TopoRef, work string, trials int, seed uint64, dist bool) (scenario.Result, error) {
	return scenario.RunCellContext(ctx, scenario.Cell{
		Topo:         topo,
		Work:         scenario.WorkRef{Name: work},
		Workers:      1,
		Trials:       trials,
		Seed:         seed,
		Distribution: dist,
	})
}

// finalize fills a finding's derived fields from an evaluation result.
func finalize(f Finding, res scenario.Result, topo scenario.TopoRef) Finding {
	f.Family = topo.Family
	f.N, f.K = topo.N, topo.K
	f.Topology = res.Topology
	f.Nodes = res.Nodes
	f.Diameter = res.Diameter
	if res.Diameter > 0 {
		f.RoundsPerDiam = float64(f.Rounds) / float64(res.Diameter)
	}
	return f
}

// Run executes the search: every requested strategy on every family,
// Pool families concurrently, findings sorted canonically. The
// findings are identical for any pool width (TestAdvSearchPoolWidth-
// Independence) because every strategy seeds from the spec and the
// instance alone.
func Run(ctx context.Context, spec Spec) (Report, error) {
	return run(ctx, spec, nil)
}

// run is Run with an optional pre-priced seed-sweep cache (the
// journaled path's resume bridge).
func run(ctx context.Context, spec Spec, seedCache map[string]scenario.Result) (Report, error) {
	spec = spec.withDefaults()
	if len(spec.Families) == 0 {
		return Report{}, fmt.Errorf("advsearch: spec %q names no families", spec.Name)
	}
	searchers := make([]Searcher, len(spec.Strategies))
	for i, name := range spec.Strategies {
		s, err := searcherByName(name)
		if err != nil {
			return Report{}, err
		}
		searchers[i] = s
	}
	env := Env{
		Seeds:     spec.Seeds,
		Iters:     spec.Iters,
		Trials:    spec.Trials,
		Seed:      spec.Seed,
		SeedCache: seedCache,
	}
	pool := spec.Pool
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	if pool > len(spec.Families) {
		pool = len(spec.Families)
	}
	perFamily := make([][]Finding, len(spec.Families))
	errs := make([]error, len(spec.Families))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				topo := spec.Families[i]
				for _, s := range searchers {
					found, err := s.Search(ctx, env, topo)
					if err != nil {
						errs[i] = fmt.Errorf("advsearch: %s on %s: %w", s.Name(), topo.Family, err)
						break
					}
					perFamily[i] = append(perFamily[i], found...)
				}
			}
		}()
	}
	for i := range spec.Families {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Report{}, err
		}
	}
	var findings []Finding
	for i := range perFamily {
		for j := range perFamily[i] {
			findings = append(findings, bound(perFamily[i][j], spec.BoundC))
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Family != b.Family {
			return a.Family < b.Family
		}
		if a.N != b.N {
			return a.N < b.N
		}
		if a.K != b.K {
			return a.K < b.K
		}
		if a.Strategy != b.Strategy {
			return a.Strategy < b.Strategy
		}
		return a.Workload < b.Workload
	})
	return Report{Name: spec.Name, Seed: spec.Seed, BoundC: spec.BoundC, Findings: findings}, ctx.Err()
}

// bound fills the theorem-comparison fields.
func bound(f Finding, c float64) Finding {
	f.Bound = c * float64(f.Diameter)
	f.WithinBound = float64(f.Rounds) <= f.Bound
	return f
}

// seedSpec is the scenario sweep realizing the seeds strategy across
// every family at once — the journaled, resumable stage of
// RunJournaled. Its cells are exactly the cells seedSweeper.Search
// prices one at a time, so both paths produce identical findings.
func seedSpec(spec Spec) scenario.Spec {
	return scenario.Spec{
		Name:         spec.Name + "-seeds",
		Topologies:   spec.Families,
		Workloads:    []scenario.WorkRef{{Name: "perm"}},
		Trials:       spec.Seeds,
		Seed:         spec.Seed,
		Distribution: true,
		Pool:         spec.Pool,
	}
}

// RunJournaled is Run with crash-safe, resumable artifacts: the
// seed-sweep stage runs through scenario.RunJournaled into
// out+".cells" (with its sidecar journal — an interrupted search
// resumes without re-pricing completed families), the structured and
// greedy stages run live, and the final report is published to out
// with scenario.WriteFileAtomic, so out either holds a complete report
// or the previous one.
func RunJournaled(ctx context.Context, spec Spec, out string) (Report, error) {
	spec = spec.withDefaults()
	var seedCache map[string]scenario.Result
	if hasStrategy(spec, "seeds") {
		results, err := scenario.RunJournaled(ctx, seedSpec(spec), out+".cells", scenario.JournalOptions{})
		if err != nil {
			return Report{}, fmt.Errorf("advsearch: seed sweep: %w", err)
		}
		// Key each family's result by its topology segment — the same
		// key seedSweeper.Search looks up — by prefix-matching the cell
		// key (spec expansion appends workload/engine segments the
		// searcher cannot reconstruct).
		seedCache = make(map[string]scenario.Result, len(results))
		for _, topo := range spec.Families {
			seg := topoSegment(topo)
			for _, r := range results {
				if strings.HasPrefix(r.Scenario, seg+"/") {
					seedCache[seg] = r
					break
				}
			}
		}
	}
	rep, err := run(ctx, spec, seedCache)
	if err != nil {
		return rep, err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return rep, err
	}
	return rep, scenario.WriteFileAtomic(out, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
}

// hasStrategy reports whether the (defaulted) spec runs the named
// strategy.
func hasStrategy(spec Spec, name string) bool {
	for _, s := range spec.Strategies {
		if s == name {
			return true
		}
	}
	return false
}

// Freeze converts a greedy finding into a frozen workload named
// "adv:<family>:<name>" — the bridge from a search win to a
// permanent regression workload.
func Freeze(name string, f Finding) (workload.Frozen, error) {
	if len(f.Perm) == 0 {
		return workload.Frozen{}, fmt.Errorf("advsearch: finding %s/%s carries no permutation to freeze", f.Family, f.Strategy)
	}
	return workload.Frozen{
		Name:   name,
		Family: f.Family,
		N:      f.N,
		K:      f.K,
		Nodes:  f.Nodes,
		Seed:   f.Seed,
		Trials: f.Trials,
		Rounds: f.Rounds,
		MaxQ:   f.MaxQ,
		Note:   fmt.Sprintf("found by %s search (workload %s)", f.Strategy, f.Workload),
		Perm:   append([]int(nil), f.Perm...),
	}, nil
}

// Strategies returns the known strategy names, sorted — routebench's
// -list output.
func Strategies() []string { return []string{"greedy", "seeds", "structured"} }
