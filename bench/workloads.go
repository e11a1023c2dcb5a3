package main

import (
	"pramemu/internal/scenario"
)

// defaultSeed is the seed the expected digests in expected/ belong to.
const defaultSeed = 1991

// benchWorkload is one workload of the benchmark: a closed loop of ops
// cycling round-robin over its op kinds, op i running kind i mod K at
// seed seed+i.
//
// Kind sizes are chosen so that, on a 2-core host, every kind of a
// workload takes about the same time (10-90 ms) and a 20-second run
// holds 50 or more ops of each kind. Op latencies then form one broad
// mode instead of K separate ones, so op_ms_p50 does not sit on the gap
// between two kinds, and each kind's noise is averaged over many ops.
type benchWorkload struct {
	name string
	// kinds returns the op kinds of a direct workload, each a one-trial
	// scenario cell the benchmark prices by calling the layers itself;
	// nil for sweep-cold, whose op is a whole sweep pass.
	kinds func(quick bool) []scenario.Cell
	// prefix is the number of leading ops folded into sim_digest and
	// the simulated metrics, a multiple of the kind count and well below
	// what a run completes. It is fixed, so those values do not depend on
	// how many ops fit in a run.
	prefix int
}

var workloads = []benchWorkload{
	{name: "route-perm", kinds: routePermKinds, prefix: 256},
	{name: "pram-step", kinds: pramStepKinds, prefix: 120},
	{name: "event-faults", kinds: eventFaultKinds, prefix: 168},
	{name: "sweep-cold", prefix: 40},
}

func lookupWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// size picks the full or the -quick size of a configuration.
func size(quick bool, full, small int) int {
	if quick {
		return small
	}
	return full
}

// routePermKinds is raw permutation routing on the paper's three
// routers: Algorithm 2.2 on the star graph and on the hypercube
// baseline, Algorithm 2.1 on the butterfly and the §3.4 three-stage
// mesh router. Each runs at one and two engine workers, so a change to
// the parallel round engine shows here.
func routePermKinds(quick bool) []scenario.Cell {
	var cells []scenario.Cell
	for _, t := range []scenario.TopoRef{
		{Family: "star", N: size(quick, 7, 5)},
		{Family: "hypercube", N: size(quick, 13, 6)},
		{Family: "butterfly", N: size(quick, 12, 5), Leveled: true},
		{Family: "mesh", N: size(quick, 64, 8)},
	} {
		for _, w := range []int{1, 2} {
			cells = append(cells, scenario.Cell{Topo: t, Work: scenario.WorkRef{Name: "perm"}, Workers: w})
		}
	}
	return cells
}

// pramStepKinds is one emulated PRAM step per op: CRCW k-hot-spot reads
// with combining on three direct networks and the leveled butterfly,
// and EREW permutation steps on the star and on the mesh's §3.3 scheme.
// Replies make simnet and leveled key links by node pairs, so their
// link state is hashed rather than dense.
func pramStepKinds(quick bool) []scenario.Cell {
	khot := scenario.WorkRef{Name: "khot", Hot: 4}
	perm := scenario.WorkRef{Name: "perm"}
	return []scenario.Cell{
		{Topo: scenario.TopoRef{Family: "star", N: size(quick, 7, 4)}, Work: khot, Mode: scenario.ModeCRCW, Workers: 1},
		{Topo: scenario.TopoRef{Family: "shuffle", N: size(quick, 5, 3)}, Work: khot, Mode: scenario.ModeCRCW, Workers: 1},
		{Topo: scenario.TopoRef{Family: "hypercube", N: size(quick, 12, 5)}, Work: khot, Mode: scenario.ModeCRCW, Workers: 1},
		{Topo: scenario.TopoRef{Family: "butterfly", N: size(quick, 11, 4), Leveled: true}, Work: khot, Mode: scenario.ModeCRCW, Workers: 1},
		{Topo: scenario.TopoRef{Family: "star", N: size(quick, 7, 4)}, Work: perm, Mode: scenario.ModeEREW, Workers: 1},
		{Topo: scenario.TopoRef{Family: "mesh", N: size(quick, 48, 8)}, Work: perm, Mode: scenario.ModeEREW, Workers: 1},
	}
}

// eventFaultKinds prices routing on the sequential discrete-event engine
// under jittered link latency and all three fault axes, so the event
// heap does the work and the round engine is bypassed.
func eventFaultKinds(quick bool) []scenario.Cell {
	lat := scenario.LatencySpec{Model: "jitter", Jitter: 2}
	fault := scenario.FaultSpec{LinkFailure: 0.1, Straggler: 0.2, Drop: 0.05}
	torus := scenario.TopoRef{Family: "torus", N: size(quick, 12, 4), K: size(quick, 3, 2)}
	cube := scenario.TopoRef{Family: "hypercube", N: size(quick, 11, 5)}
	star := scenario.TopoRef{Family: "star", N: size(quick, 7, 4)}
	cell := func(t scenario.TopoRef, w scenario.WorkRef) scenario.Cell {
		return scenario.Cell{Topo: t, Work: w, Engine: scenario.EngineEvent, Latency: lat, Fault: fault, Workers: 1}
	}
	perm := scenario.WorkRef{Name: "perm"}
	khot := scenario.WorkRef{Name: "khot", Hot: 4}
	return []scenario.Cell{
		cell(torus, perm),
		cell(cube, perm),
		cell(star, perm),
		cell(scenario.TopoRef{Family: "butterfly", N: size(quick, 11, 4), Leveled: true}, perm),
		cell(torus, khot),
		cell(cube, khot),
		cell(star, khot),
	}
}

// sweepSpec is the spec one sweep-cold pass runs: many short cells over
// all nine families, route and crcw modes, the shape of a user's
// `routebench -sweep` run.
func sweepSpec(quick bool, seed uint64) scenario.Spec {
	return scenario.Spec{
		Name: "bench-sweep-cold",
		Topologies: []scenario.TopoRef{
			{Family: "star", N: size(quick, 6, 4)},
			{Family: "pancake", N: size(quick, 5, 4)},
			{Family: "ttree", N: size(quick, 6, 4)},
			{Family: "shuffle", N: size(quick, 4, 3)},
			{Family: "debruijn", N: size(quick, 9, 5), K: 2},
			{Family: "hypercube", N: size(quick, 9, 5)},
			{Family: "torus", N: size(quick, 6, 3), K: 3},
			{Family: "mesh", N: size(quick, 24, 6)},
			{Family: "butterfly", N: size(quick, 7, 4), Leveled: true},
		},
		Workloads: []scenario.WorkRef{
			{Name: "perm"},
			{Name: "khot", Hot: 4},
			{Name: "relation", H: 2},
			{Name: "tornado"},
		},
		Modes:            []string{scenario.ModeRoute, scenario.ModeCRCW},
		SkipIncompatible: true,
		Pool:             sweepPool,
		Trials:           2,
		Seed:             seed,
	}
}

// sweepPool is the sweep's cell-pool width, two cells at a time as on a
// 2-core host.
const sweepPool = 2
