// Meshlocality: demonstrate Theorem 3.3 on a 128 x 128 mesh — when
// every memory request originates within L1 distance d of the module
// that holds the address, the emulation finishes in O(d) steps
// (bounded by 6d + o(d)) instead of O(n), so locality in the program
// translates directly into locality in time.
package main

import (
	"fmt"
	"io"
	"os"

	"pramemu/internal/mesh"
	"pramemu/internal/packet"
	"pramemu/internal/workload"
)

func main() {
	run(os.Stdout, 128, []int{4, 8, 16, 32, 64})
}

// run reports the locality experiment on an n x n mesh for each
// distance bound in ds; main uses the paper's 128, tests a tiny grid.
func run(w io.Writer, n int, ds []int) {
	g := mesh.New(n)
	fmt.Fprintf(w, "%s: diameter %d\n", g.Name(), g.Diameter())
	fmt.Fprintln(w, "d     request  reply  step   step/d  bound 6d")

	for _, d := range ds {
		opts := mesh.Options{
			Seed:          uint64(d) * 7,
			LocalityBound: d,
			SliceRows:     max(1, d/4),
		}
		// Request phase: every node reads from a module within
		// distance d.
		pkts := workload.MeshLocal(g, d, uint64(d))
		req := mesh.Route(g, pkts, opts)
		// Reply phase: modules answer.
		replies := make([]*packet.Packet, len(pkts))
		for i, p := range pkts {
			replies[i] = packet.New(i, p.Dst, p.Src, packet.Transit)
		}
		opts.Seed *= 3
		rep := mesh.Route(g, replies, opts)
		step := req.Rounds + rep.Rounds
		fmt.Fprintf(w, "%-4d  %-7d  %-5d  %-5d  %-6.2f  %d\n",
			d, req.Rounds, rep.Rounds, step, float64(step)/float64(d), 6*d)
	}

	// Contrast: a non-local random permutation costs ~2n per phase.
	pkts := workload.Permutation(g.Nodes(), packet.Transit, 3)
	global := mesh.Route(g, pkts, mesh.Options{Seed: 11})
	fmt.Fprintf(w, "\nnon-local permutation for comparison: %d rounds (%.2f x n)\n",
		global.Rounds, float64(global.Rounds)/float64(n))
}
