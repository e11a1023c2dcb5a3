// Command bench is the repository benchmark. One invocation runs one
// workload in one process as a closed loop: a single client starts the
// next op only after the previous one completes, op i running op kind
// i mod K at seed seed+i. It prints every metric as `name value unit`,
// checks the simulated outputs (a digest of the leading ops against
// expected/ at the default seed, and every op's invariants at any
// seed), and ends with one JSON line:
//
//	{"correct": true, "attempted": 160, "failed": 0, "metrics": {"op_ms_p50": {"value": 123.4, "unit": "ms"}, ...}}
//
// Untraced runs report the end-to-end metrics. A traced run (-trace)
// runs the same ops with a span around every public call into a layer,
// writes the spans as JSONL and reports the per-layer metrics instead.
// See README.md for the metrics, the workloads and the comparison
// protocol.
package main

import (
	"embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"pramemu/internal/buildcache"
	"pramemu/internal/mathx"
	"pramemu/internal/scenario"
	_ "pramemu/internal/topology/families"
)

//go:embed expected
var expected embed.FS

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	w     benchWorkload
	seed  uint64
	dur   time.Duration
	quick bool
	spans string // span file of a traced run; "" when untraced
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: route-perm, pram-step, event-faults or sweep-cold")
	seed := fs.Uint64("seed", defaultSeed, "base seed: op i runs at seed+i")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in seconds (it always completes the digest prefix)")
	trace := fs.String("trace", "0", `"0" runs untraced; "1" or a file path runs traced and writes spans there (default .bench_build/spans-<workload>.jsonl)`)
	quick := fs.Bool("quick", false, "tiny sizes and a one-cycle digest prefix, for tests")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return config{}, fmt.Errorf("unknown workload %q (known: %s)", *name, strings.Join(names, ", "))
	}
	if *seconds < 0 {
		return config{}, fmt.Errorf("negative -seconds %v", *seconds)
	}
	cfg := config{w: w, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), quick: *quick}
	switch *trace {
	case "0", "":
	case "1":
		cfg.spans = filepath.Join(".bench_build", "spans-"+w.name+".jsonl")
	default:
		cfg.spans = *trace
	}
	return cfg, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "bench:", err)
		}
		return 2
	}
	res, err := measure(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if res.firstErr != nil {
		fmt.Fprintf(stderr, "bench: %d of %d ops failed; first: %v\n", res.failed, res.attempted, res.firstErr)
	}
	if res.tracer != nil {
		if err := res.tracer.write(cfg.spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !report(res, stdout, stderr) {
		return 1
	}
	return 0
}

// pricer prices one op of a workload.
type pricer interface {
	run(t *tracer, op int, seed uint64) (outcome, error)
}

// result is everything one invocation measured.
type result struct {
	cfg    config
	kinds  []scenario.Cell // op kinds of a direct workload
	tracer *tracer

	setups            []float64 // seconds per set-up repetition
	lat               []float64 // ms per timed op, in op order
	cycleRates        []float64 // cells per second of each cycle of K ops
	attempted, failed int
	firstErr          error

	prefix      int
	digest      uint64
	rpd         float64 // prefix geometric mean of rounds per diameter
	maxQ        float64 // prefix geometric mean of the largest link queue
	builds      buildcache.Stats
	timedBuilds buildcache.Stats // build-cache counters of the timed phase only
	mem         [2]runtime.MemStats
	maxRSS      int64 // KiB
}

// setupReps is how often a run sets up; setup_s is the median.
const setupReps = 9

// warmSeed is the seed of kind k's untimed warm-up op, away from the
// seeds of the timed ops.
func warmSeed(seed uint64, k int) uint64 { return seed + 1<<40 + uint64(k) }

// setup builds the workload's op kinds on a fresh build cache and runs
// one untimed warm-up op per kind, so leases, arenas and tables are
// filled before timing starts. builds reports the build-cache counters.
// A failing warm-up op fails the run: no timed op of that kind could
// succeed.
func setup(cfg config, kinds []scenario.Cell, t *tracer) (ps []pricer, builds func() buildcache.Stats, err error) {
	if cfg.w.kinds == nil {
		s := &sweeper{quick: cfg.quick}
		ps = []pricer{s}
		builds = func() buildcache.Stats { return s.builds }
	} else {
		cache := buildcache.New(buildcache.DefaultBudget)
		for _, c := range kinds {
			r, err := newRunner(cache, c)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", c.Key(), err)
			}
			ps = append(ps, r)
		}
		builds = cache.Stats
	}
	for k, p := range ps {
		if _, err := price(p, t, -1-k, warmSeed(cfg.seed, k)); err != nil {
			return nil, nil, fmt.Errorf("warm-up op of kind %d: %w", k, err)
		}
	}
	return ps, builds, nil
}

// price runs one op, turning a panic into a failed op.
func price(p pricer, t *tracer, op int, seed uint64) (o outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return p.run(t, op, seed)
}

// measure sets the workload up, then runs the timed closed loop.
func measure(cfg config) (*result, error) {
	res := &result{cfg: cfg}
	if cfg.spans != "" {
		res.tracer = newTracer()
	}
	if cfg.w.kinds != nil {
		res.kinds = cfg.w.kinds(cfg.quick)
	}
	reps := setupReps
	if cfg.quick {
		reps = 1
	}
	var (
		ps     []pricer
		builds func() buildcache.Stats
	)
	for i := 0; i < reps; i++ {
		start := time.Now()
		var err error
		if ps, builds, err = setup(cfg, res.kinds, res.tracer); err != nil {
			return nil, err
		}
		res.setups = append(res.setups, time.Since(start).Seconds())
	}
	k := len(ps)
	res.prefix = cfg.w.prefix
	if cfg.quick {
		res.prefix = k
	}
	runtime.GC()
	before := builds()
	runtime.ReadMemStats(&res.mem[0])
	digest := fnv.New64a()
	var rpd, maxQ []float64
	start := time.Now()
	cycleStart, cycleCells := start, 0
	for i := 0; ; i++ {
		if i > 0 && i%k == 0 {
			res.cycleRates = append(res.cycleRates, float64(cycleCells)/time.Since(cycleStart).Seconds())
			cycleStart, cycleCells = time.Now(), 0
			if i >= res.prefix && time.Since(start) >= cfg.dur {
				break
			}
		}
		t0 := time.Now()
		o, err := price(ps[i%k], res.tracer, i, cfg.seed+uint64(i))
		res.lat = append(res.lat, float64(time.Since(t0).Nanoseconds())/1e6)
		res.attempted++
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = err
			}
		} else {
			cycleCells += o.cells
		}
		if i < res.prefix {
			// A failed op folds a zero sum, so the digest cannot match.
			writeUint64(digest, o.sum)
			if err == nil {
				rpd = append(rpd, o.rpd)
				maxQ = append(maxQ, o.maxQ)
			}
		}
	}
	runtime.ReadMemStats(&res.mem[1])
	res.builds = builds()
	res.timedBuilds = res.builds.Delta(before)
	res.digest = digest.Sum64()
	res.rpd, res.maxQ = geomean(rpd), geomean(maxQ)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	res.maxRSS = ru.Maxrss
	return res, nil
}

// expectedDigest returns the recorded digest of the workload's default-
// seed run, or "" when none is recorded.
func expectedDigest(cfg config) string {
	name := cfg.w.name
	if cfg.quick {
		name += ".quick"
	}
	b, err := expected.ReadFile("expected/" + name + ".digest")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// report prints every metric and the closing JSON line, and returns
// whether the outputs were correct.
func report(res *result, stdout, stderr io.Writer) bool {
	var ms []metric
	if res.tracer == nil {
		ms = endToEnd(res)
	} else {
		ms = perLayer(res)
	}
	digest := fmt.Sprintf("%016x", res.digest)
	correct := res.failed == 0
	check := "unchecked at this seed"
	if res.cfg.seed == defaultSeed {
		want := expectedDigest(res.cfg)
		check = "expected " + want
		if digest != want {
			correct = false
			fmt.Fprintf(stderr, "bench: sim_digest %s over the first %d ops, expected %q\n", digest, res.prefix, want)
		}
	}
	fmt.Fprintf(stdout, "workload %s seed %d trace %t\n", res.cfg.w.name, res.cfg.seed, res.tracer != nil)
	fmt.Fprintf(stdout, "op_samples %d count\n", len(res.lat))
	fmt.Fprintf(stdout, "error_rate %v ratio\n", ratio(float64(res.failed), float64(res.attempted)))
	fmt.Fprintf(stdout, "sim_digest %s (first %d ops, %s)\n", digest, res.prefix, check)
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, res.attempted, res.failed, map[string]jsonMetric{}}
	for _, m := range ms {
		fmt.Fprintf(stdout, "%s %v %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return false
	}
	fmt.Fprintln(stdout, string(line))
	return correct
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// geomean is the geometric mean of the positive values of xs, the
// average of ratios taken over configurations of different scale: each
// configuration weighs the same in relative terms, so the networks with
// the largest counts do not dominate. 0 when no value is positive.
func geomean(xs []float64) float64 {
	logs, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			logs += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logs / float64(n))
}

// quantile is mathx.Percentile over an unsorted sample; 0 when empty.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return mathx.Percentile(s, p)
}

// ratio is a / b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
