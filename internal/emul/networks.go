package emul

import (
	"context"
	"fmt"

	"pramemu/internal/engine"
	"pramemu/internal/leveled"
	"pramemu/internal/mesh"
	"pramemu/internal/packet"
	"pramemu/internal/prng"
	"pramemu/internal/ranade"
	"pramemu/internal/simnet"
	"pramemu/internal/topology"
	"pramemu/internal/twophase"
)

// TopologyNetwork is the one generic adapter between the unified
// topology layer and the emulator: any registry-built network routes
// PRAM steps through it. When the family has a leveled unrolling the
// adapter runs Algorithm 2.1 on it (the paper's preferred analysis
// for star, shuffle, butterfly and de Bruijn); otherwise — or when
// forced direct — it runs Algorithm 2.2-style two-phase routing with
// a random intermediate node on the point-to-point graph. Requests
// traverse the two-phase pipeline, replies retrace reversed paths
// with Theorem 2.6 direction bits, combining optional.
type TopologyNetwork struct {
	graph  topology.Graph // nil for leveled-only families
	spec   leveled.Spec   // nil when no unrolling exists
	diam   int
	direct bool

	// Context, when non-nil, cancels or deadlines every routed step:
	// the round engine polls it cheaply and unwinds with an
	// engine.Abort panic on expiry (recovered by the scenario layer).
	Context context.Context
	// SkipPhase1 disables the randomizing first traversal of each
	// routed step (the scenario layer's ablation axis): requests go
	// straight along their deterministic paths.
	SkipPhase1 bool
	// MemBudget caps the engine's fixed link-table footprint in bytes
	// on every routed step; over budget a resolution steps down to
	// paged, then hashed tables. Zero means no budget.
	MemBudget int64
	// MemStats, when non-nil, receives the resolved state and memory
	// footprint of each routed step (the last step's values persist).
	MemStats *engine.MemStats
	// Lease, when non-nil, keeps the engine between the adapter's
	// routed steps (see engine.Options.Lease). Emulated steps route
	// with replies and therefore resolve to the hashed state, whose
	// engines are never kept, so the lease is a no-op today — the
	// field keeps the adapter uniform with the routers it wraps.
	Lease *engine.Lease
}

// NewTopologyNetwork adapts a registry-built network, preferring the
// leveled view when one exists. It returns an error when the network
// exceeds the simulator's node-id limit (topology.MaxNodes), so
// oversized graphs fail at construction rather than mid-run.
func NewTopologyNetwork(t topology.Built) (*TopologyNetwork, error) {
	return newTopologyNetwork(t, false)
}

// NewDirectTopologyNetwork adapts a registry-built network forcing
// the point-to-point view (Algorithm 2.2) even when a leveled
// unrolling exists — the form experiment E6's comparison uses.
func NewDirectTopologyNetwork(t topology.Built) (*TopologyNetwork, error) {
	return newTopologyNetwork(t, true)
}

func newTopologyNetwork(t topology.Built, direct bool) (*TopologyNetwork, error) {
	n := &TopologyNetwork{graph: t.Graph, spec: t.Spec, diam: t.Diameter(), direct: direct}
	if direct && t.Graph == nil {
		return nil, fmt.Errorf("emul: %s has no point-to-point view to route directly", t.Name())
	}
	if n.Nodes() > topology.MaxNodes {
		return nil, fmt.Errorf("emul: %s has %d nodes, exceeding the simulator's node-id limit (%d)",
			t.Name(), n.Nodes(), topology.MaxNodes)
	}
	return n, nil
}

// Name implements Network.
func (n *TopologyNetwork) Name() string {
	if n.useLeveled() {
		return n.spec.Name()
	}
	return n.graph.Name()
}

// Nodes implements Network: one processor/module pair per node (per
// column node on a leveled-only family).
func (n *TopologyNetwork) Nodes() int {
	if n.useLeveled() {
		return n.spec.Width()
	}
	return n.graph.Nodes()
}

// Diameter implements Network: the physical network diameter (the
// leveled unrolling may be longer than the diameter).
func (n *TopologyNetwork) Diameter() int { return n.diam }

func (n *TopologyNetwork) useLeveled() bool { return n.spec != nil && !n.direct }

// Route implements Network.
func (n *TopologyNetwork) Route(pkts []*packet.Packet, combine bool, seed uint64, workers int) RouteStats {
	opts := twophase.Options{
		Context:    n.Context,
		Seed:       seed,
		Replies:    true,
		Combine:    combine,
		Workers:    workers,
		SkipPhase1: n.SkipPhase1,
		MemBudget:  n.MemBudget,
		MemStats:   n.MemStats,
		Lease:      n.Lease,
	}
	var s twophase.Stats
	if n.useLeveled() {
		s = leveled.Route(n.spec, pkts, opts)
	} else {
		var err error
		if s, err = simnet.Route(n.graph, pkts, opts); err != nil {
			// The constructor verified the key space; any residual error
			// is a programming bug, not an operating condition.
			panic(fmt.Sprintf("emul: %v", err))
		}
	}
	return RouteStats{
		Rounds:        s.Rounds,
		MaxQueue:      s.MaxQueue,
		Merges:        s.Merges,
		MaxModuleLoad: s.MaxModuleLoad,
		Requests:      s.DeliveredRequests,
		Replies:       s.DeliveredReplies,
	}
}

// RanadeNetwork adapts Ranade's butterfly emulation [13] — the prior
// work whose O(log N) time (and constant) the paper's leveled-network
// results improve upon. Combining is always available (it is integral
// to Ranade's sorted-stream protocol); the combine flag gates it for
// ablations.
type RanadeNetwork struct {
	Net *ranade.Network
}

// Name implements Network.
func (n *RanadeNetwork) Name() string { return n.Net.Name() }

// Nodes implements Network.
func (n *RanadeNetwork) Nodes() int { return n.Net.Nodes() }

// Diameter implements Network.
func (n *RanadeNetwork) Diameter() int { return n.Net.Diameter() }

// Route implements Network. The seed is unused: Ranade's pass is
// deterministic given the hash placement.
func (n *RanadeNetwork) Route(pkts []*packet.Packet, combine bool, _ uint64, workers int) RouteStats {
	s := n.Net.Route(pkts, ranade.Options{Combine: combine, Workers: workers})
	return RouteStats{
		Rounds:        s.Rounds,
		MaxQueue:      s.MaxQueue,
		Merges:        s.Merges,
		MaxModuleLoad: 0, // per-module loads are not tracked by this pass
		Requests:      s.DeliveredRequests,
		Replies:       s.DeliveredReplies,
	}
}

// MeshNetwork adapts the n x n mesh. Scheme selects between the
// paper's two-phase emulation (§3.3: request routing then reply
// routing, 4n + o(n)) and the Karlin–Upfal four-phase scheme the
// paper improves upon (requests detour via a random node in each
// direction, ~8n).
type MeshNetwork struct {
	G      *mesh.Grid
	Scheme MeshScheme
	// Opts carries the routing algorithm/discipline for each phase.
	Opts mesh.Options
}

// MeshScheme selects the emulation structure on the mesh.
type MeshScheme int

const (
	// TwoPhase is the paper's algorithm: request, then reply.
	TwoPhase MeshScheme = iota
	// KarlinUpfal4Phase detours both the request and the reply
	// through a uniformly random node (phases 1-4 of §3.3's summary
	// of [4]).
	KarlinUpfal4Phase
)

// Name implements Network.
func (n *MeshNetwork) Name() string {
	if n.Scheme == KarlinUpfal4Phase {
		return n.G.Name() + "-ku4"
	}
	return n.G.Name()
}

// Nodes implements Network.
func (n *MeshNetwork) Nodes() int { return n.G.Nodes() }

// Diameter implements Network.
func (n *MeshNetwork) Diameter() int { return n.G.Diameter() }

// Route implements Network. The mesh router has no reply-retrace
// machinery (and the paper's mesh algorithm does not retrace): the
// reply phase is an independent routing task from module back to
// processor. CRCW combining is a leveled-network mechanism (Thm 2.6);
// the mesh emulation is the EREW algorithm of Theorem 3.2, so combine
// is ignored here.
func (n *MeshNetwork) Route(pkts []*packet.Packet, combine bool, seed uint64, workers int) RouteStats {
	_ = combine
	src := prng.New(seed)
	legs := n.buildLegs(pkts, src)
	out := RouteStats{}
	for i, leg := range legs {
		if len(leg) == 0 {
			continue
		}
		opts := n.Opts
		opts.Seed = seed ^ uint64(i+1)*0x9e3779b97f4a7c15
		opts.Workers = workers
		s := mesh.Route(n.G, leg, opts)
		if s.DeliveredRequests != len(leg) {
			panic(fmt.Sprintf("emul: mesh leg %d delivered %d/%d", i, s.DeliveredRequests, len(leg)))
		}
		out.Rounds += s.Rounds
		if s.MaxQueue > out.MaxQueue {
			out.MaxQueue = s.MaxQueue
		}
	}
	out.Requests = len(pkts)
	for _, p := range pkts {
		if p.Kind == packet.ReadRequest {
			out.Replies++
		}
	}
	// Module load: delivered requests per destination node.
	loads := make([]int, n.G.Nodes())
	for _, p := range pkts {
		loads[p.Dst]++
		out.MaxModuleLoad = max(out.MaxModuleLoad, loads[p.Dst])
	}
	return out
}

// buildLegs expands the request packets into the routing legs of the
// chosen scheme. Each leg gets fresh packet clones (the mesh router
// mutates routing state).
func (n *MeshNetwork) buildLegs(pkts []*packet.Packet, src *prng.Source) [][]*packet.Packet {
	clone := func(id, from, to int, kind packet.Kind) *packet.Packet {
		return packet.New(id, from, to, kind)
	}
	switch n.Scheme {
	case KarlinUpfal4Phase:
		// Request: processor -> random node k -> module.
		// Reply (reads): module -> random node k' -> processor.
		var leg1, leg2, leg3, leg4 []*packet.Packet
		for i, p := range pkts {
			k := src.Intn(n.G.Nodes())
			leg1 = append(leg1, clone(i, p.Src, k, packet.Transit))
			leg2 = append(leg2, clone(i, k, p.Dst, packet.Transit))
			if p.Kind == packet.ReadRequest {
				k2 := src.Intn(n.G.Nodes())
				leg3 = append(leg3, clone(i, p.Dst, k2, packet.Transit))
				leg4 = append(leg4, clone(i, k2, p.Src, packet.Transit))
			}
		}
		return [][]*packet.Packet{leg1, leg2, leg3, leg4}
	default: // TwoPhase
		var req, rep []*packet.Packet
		for i, p := range pkts {
			req = append(req, clone(i, p.Src, p.Dst, packet.Transit))
			if p.Kind == packet.ReadRequest {
				rep = append(rep, clone(i, p.Dst, p.Src, packet.Transit))
			}
		}
		return [][]*packet.Packet{req, rep}
	}
}
