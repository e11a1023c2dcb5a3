// Command pramemu runs a PRAM algorithm from the library on a chosen
// emulated network and reports the PRAM step count, the emulated
// network time, and the slowdown per step — the quantity the paper's
// emulation theorems bound by the network diameter. Networks are
// selected by topology-registry name, so every registered family
// (including pancake, ttree, torus and debruijn) emulates without
// command changes.
//
// With -step it prices one synthetic emulated PRAM step instead of a
// whole program: the named workload-registry pattern becomes the
// step's memory accesses and the cell runs on scenario.RunCell — the
// exact path a `routebench -sweep` spec with a mode axis takes — so
// its numbers reproduce the equivalent sweep cell line for line.
//
// Examples:
//
//	pramemu -alg prefixsum -net star -n 5
//	pramemu -alg sort -net shuffle -n 3
//	pramemu -alg maxcrcw -net pancake -n 5 -combine
//	pramemu -alg matmul -net mesh -n 8
//	pramemu -alg listrank -net torus -n 8 -k 3
//	pramemu -alg prefixsum -net debruijn -n 9 -workers 8
//	pramemu -step perm -net star -n 5 -mode erew
//	pramemu -step khot -net shuffle -n 3 -mode crcw -trials 3
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pramemu/internal/algorithms"
	"pramemu/internal/emul"
	"pramemu/internal/mesh"
	"pramemu/internal/pram"
	"pramemu/internal/prng"
	"pramemu/internal/scenario"
	"pramemu/internal/topology"
	_ "pramemu/internal/topology/families"
)

// config carries one fully parsed invocation: the algorithm-mode
// switches, plus the network, step and trial flags bound straight
// onto the scenario cell a -step run prices.
type config struct {
	alg     string
	combine bool
	cell    scenario.Cell // Work.Name non-empty selects single-step mode
}

func main() {
	cfg, err := parse(flag.CommandLine, os.Args[1:])
	if err == nil {
		err = run(os.Stdout, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pramemu: %v\n", err)
		os.Exit(1)
	}
}

// parse registers every flag on fs and parses args into one config.
func parse(fs *flag.FlagSet, args []string) (config, error) {
	var cfg config
	c := &cfg.cell
	fs.StringVar(&cfg.alg, "alg", "prefixsum", "algorithm: prefixsum, sort, listrank, maxcrcw, matmul, broadcast")
	fs.StringVar(&c.Topo.Family, "net", "star", "network family from the topology registry, or \"ideal\" (algorithm mode only)")
	fs.StringVar(&c.Work.Name, "step", "", "price one emulated PRAM step of this workload-registry pattern instead of running -alg")
	fs.StringVar(&c.Mode, "mode", "erew", "emulation mode for -step: erew (Thm 2.5) or crcw (Thm 2.6, combining)")
	fs.IntVar(&c.Topo.N, "n", 5, "primary network size parameter")
	fs.IntVar(&c.Topo.K, "k", 0, "secondary network size parameter (0 = family default)")
	fs.IntVar(&c.Trials, "trials", 5, "seeded trials for -step")
	fs.Uint64Var(&c.Seed, "seed", 1991, "random seed")
	fs.BoolVar(&cfg.combine, "combine", false, "enable CRCW combining in the network (algorithm mode)")
	fs.IntVar(&c.Workers, "workers", 0, "round-engine workers (0 = GOMAXPROCS, 1 = sequential; identical results either way)")
	err := fs.Parse(args)
	return cfg, err
}

// run executes one invocation, writing the report to w. It is the
// testable core of the command.
func run(w io.Writer, cfg config) error {
	if cfg.cell.Work.Name != "" {
		return runStep(w, cfg.cell)
	}
	return runAlgorithm(w, cfg)
}

// stepCell picks the view of a -step cell: the equivalent `routebench
// -sweep` spec's cell, preferring the leveled view where one exists
// (the emulator's preference, matching the algorithm path's
// buildNetwork).
func stepCell(c scenario.Cell) (scenario.Cell, error) {
	if c.Topo.Family == "ideal" {
		return c, fmt.Errorf("-step prices a network step; the ideal machine has no network (every step costs 1)")
	}
	b, err := topology.Build(c.Topo.Family, topology.Params{N: c.Topo.N, K: c.Topo.K})
	if err != nil {
		return c, err
	}
	c.Built = b
	c.Topo.Leveled = b.Spec != nil && b.Graph != nil
	return c, nil
}

// runStep prices one synthetic emulated step through scenario.RunCell
// — pramemu and routebench sweeps share this path, so the two reports
// agree on every number.
func runStep(w io.Writer, c scenario.Cell) error {
	cell, err := stepCell(c)
	if err != nil {
		return err
	}
	res, err := scenario.RunCell(cell)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "step         : %s (mode=%s, %d trials)\n", res.Workload, res.Mode, res.Trials)
	fmt.Fprintf(w, "network      : %s (%d processors, diameter %d, view %s)\n",
		res.Topology, res.Nodes, res.Diameter, res.View)
	fmt.Fprintf(w, "step cost    : mean=%.1f max=%d (%.2f x diameter)\n",
		res.RoundsMean, res.RoundsMax, res.RoundsPerDiam)
	fmt.Fprintf(w, "merges       : %d (total)\n", res.Merges)
	fmt.Fprintf(w, "rehashes     : %d (total)\n", res.Rehashes)
	fmt.Fprintf(w, "max queue    : %d\n", res.MaxQueue)
	return nil
}

// runAlgorithm executes one algorithm-mode invocation.
func runAlgorithm(w io.Writer, cfg config) error {
	algName, c := cfg.alg, cfg.cell
	net, err := buildNetwork(c.Topo.Family, c.Topo.N, c.Topo.K)
	if err != nil {
		return err
	}
	// The ideal machine has no network to size the processor count, so
	// -n names it directly there.
	procs := c.Topo.N
	if net != nil {
		procs = net.Nodes()
	}

	variant, runAlg, err := buildAlgorithm(algName, &procs, c.Seed)
	if err != nil {
		return err
	}
	if net != nil && procs > net.Nodes() {
		return fmt.Errorf("%s needs %d processors, %s has %d nodes",
			algName, procs, net.Name(), net.Nodes())
	}

	var exec pram.StepExecutor = pram.Unit{}
	netLabel := "ideal PRAM"
	diam := 1
	var e *emul.Emulator
	if net != nil {
		e, err = emul.New(net, emul.Config{Memory: 1 << 24, Seed: c.Seed, Combine: cfg.combine, Workers: c.Workers})
		if err != nil {
			return err
		}
		exec = e
		netLabel = net.Name()
		diam = net.Diameter()
	}
	m := pram.New(pram.Config{
		Procs:    procs,
		Memory:   1 << 24,
		Variant:  variant,
		Executor: exec,
	})
	runAlg(m)

	fmt.Fprintf(w, "algorithm    : %s (%s)\n", algName, variant)
	fmt.Fprintf(w, "network      : %s (%d processors, diameter %d)\n", netLabel, procs, diam)
	fmt.Fprintf(w, "PRAM steps   : %d\n", m.Steps())
	fmt.Fprintf(w, "emulated time: %d\n", m.Time())
	if m.Steps() > 0 {
		perStep := float64(m.Time()) / float64(m.Steps())
		fmt.Fprintf(w, "per step     : %.1f network rounds (%.2f x diameter)\n",
			perStep, perStep/float64(diam))
	}
	if e != nil {
		fmt.Fprintf(w, "rehashes     : %d (hash description: %d bits)\n", e.Rehashes(), e.HashBits())
	}
	return nil
}

// buildNetwork resolves the name through the topology registry and
// adapts the result for the emulator; nil means the ideal machine.
// The mesh keeps its specialized §3.3 two-phase scheme; every other
// family goes through the generic topology adapter.
func buildNetwork(name string, n, k int) (emul.Network, error) {
	if name == "ideal" {
		return nil, nil
	}
	b, err := topology.Build(name, topology.Params{N: n, K: k})
	if err != nil {
		return nil, err
	}
	if g, ok := b.Graph.(*mesh.Grid); ok {
		return &emul.MeshNetwork{G: g}, nil
	}
	return emul.NewTopologyNetwork(b)
}

// buildAlgorithm returns the machine variant and a closure running the
// algorithm with verified results. procs is adjusted to the
// algorithm's requirement (power of two for sorting, squares for
// matmul) while staying within the provided node budget.
func buildAlgorithm(name string, procs *int, seed uint64) (pram.Variant, func(*pram.Machine), error) {
	switch name {
	case "prefixsum":
		n := *procs
		return pram.EREW, func(m *pram.Machine) {
			for i := 0; i < n; i++ {
				m.Store(uint64(i), 1)
			}
			algorithms.PrefixSums(m, 0, n)
			for i := 0; i < n; i++ {
				if m.Load(uint64(i)) != int64(i+1) {
					panic("prefix sum incorrect")
				}
			}
		}, nil
	case "broadcast":
		n := *procs
		return pram.EREW, func(m *pram.Machine) {
			m.Store(0, 42)
			algorithms.Broadcast(m, 0, 1, n)
		}, nil
	case "sort":
		n := 1
		for n*2 <= *procs {
			n *= 2
		}
		*procs = n
		return pram.EREW, func(m *pram.Machine) {
			src := prng.New(seed)
			for i := 0; i < n; i++ {
				m.Store(uint64(i), int64(src.Intn(1<<20)))
			}
			algorithms.OddEvenMergeSort(m, 0, n)
			prev := int64(-1)
			for i := 0; i < n; i++ {
				v := m.Load(uint64(i))
				if v < prev {
					panic("sort incorrect")
				}
				prev = v
			}
		}, nil
	case "listrank":
		n := *procs
		return pram.CREW, func(m *pram.Machine) {
			order := prng.New(seed).Perm(n)
			for pos, node := range order {
				next := int64(-1)
				if pos+1 < n {
					next = int64(order[pos+1])
				}
				m.Store(uint64(node), next)
			}
			algorithms.ListRank(m, 0, uint64(n), n)
		}, nil
	case "maxcrcw":
		n := *procs
		return pram.CRCWMax, func(m *pram.Machine) {
			src := prng.New(seed)
			for i := 0; i < n; i++ {
				m.Store(uint64(i), int64(src.Intn(1<<20)))
			}
			algorithms.MaxConcurrent(m, 0, n, uint64(n))
		}, nil
	case "matmul":
		side := 1
		for (side+1)*(side+1) <= *procs {
			side++
		}
		*procs = side * side
		return pram.CREW, func(m *pram.Machine) {
			src := prng.New(seed)
			nn := uint64(side * side)
			for i := uint64(0); i < 2*nn; i++ {
				m.Store(i, int64(src.Intn(7)-3))
			}
			algorithms.MatMul(m, 0, nn, 2*nn, side)
		}, nil
	default:
		return pram.EREW, nil, fmt.Errorf("unknown algorithm %q", name)
	}
}
