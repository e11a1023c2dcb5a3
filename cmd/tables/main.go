// Command tables regenerates every experiment table of the paper
// reproduction (the E1-E21 index in DESIGN.md) and prints them to
// stdout in the format recorded in EXPERIMENTS.md. With -sweep it
// instead consumes a `routebench -sweep` JSONL artifact (report rows,
// if present, are skipped and recomputed) and renders the derived
// report: the engine-workers speedup table and the per-class
// aggregate table.
//
// Usage:
//
//	tables [-quick] [-trials N] [-seed S] [-only E7]
//	tables -sweep BENCH_sweep_smoke.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pramemu/internal/experiments"
	"pramemu/internal/scenario"
	_ "pramemu/internal/topology/families"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced configurations")
	trials := flag.Int("trials", 5, "seeded repetitions per configuration")
	seed := flag.Uint64("seed", 1991, "base random seed")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. E7,E8)")
	sweep := flag.String("sweep", "", "render the derived report of this routebench -sweep JSONL artifact instead of running experiments")
	flag.Parse()

	if *sweep != "" {
		if err := runSweepReport(os.Stdout, *sweep); err != nil {
			fmt.Fprintf(os.Stderr, "tables: %v\n", err)
			os.Exit(1)
		}
		return
	}
	o := experiments.Options{Quick: *quick, Trials: *trials, Seed: *seed}
	if err := run(os.Stdout, o, *only); err != nil {
		fmt.Fprintf(os.Stderr, "tables: %v\n", err)
		os.Exit(1)
	}
}

// runSweepReport reads a sweep JSONL artifact and renders the derived
// report tables. It is the consumption side of `routebench -sweep
// -report`: the same scenario.Report pass runs over the parsed result
// rows, so an untimed artifact still yields the per-class aggregates
// and the workers-equivalence rows (with the speedup column dashed).
func runSweepReport(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	defer f.Close()
	results, err := scenario.ReadResults(f)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("sweep: %s holds no result rows", path)
	}
	for _, t := range scenario.ReportTables(scenario.Report(results)) {
		t.Fprint(w)
		fmt.Fprintln(w)
	}
	return nil
}

// run renders the selected experiment tables to w. It is the testable
// core of the command.
func run(w io.Writer, o experiments.Options, only string) error {
	want := map[string]bool{}
	if only != "" {
		for _, id := range strings.Split(only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	ran := 0
	for _, e := range experiments.Index {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		e.Run(o).Fprint(w)
		fmt.Fprintln(w)
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matched %q", only)
	}
	return nil
}
