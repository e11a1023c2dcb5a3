package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"sort"
	"sync"

	"pramemu/internal/buildcache"
	"pramemu/internal/emul"
	"pramemu/internal/engine"
	"pramemu/internal/leveled"
	"pramemu/internal/mesh"
	"pramemu/internal/packet"
	"pramemu/internal/pram"
	"pramemu/internal/scenario"
	"pramemu/internal/simnet"
	"pramemu/internal/topology"
	"pramemu/internal/workload"
)

// simStats is one direct op's simulated outcome: the fields sim_digest
// folds, in this order.
type simStats struct {
	Rounds, MaxQueue, Hops, Requests, Replies, Merges, Retransmits int
}

// sum is the op's contribution to sim_digest.
func (s simStats) sum() uint64 {
	h := fnv.New64a()
	for _, v := range [...]int{s.Rounds, s.MaxQueue, s.Hops, s.Requests, s.Replies, s.Merges, s.Retransmits} {
		writeUint64(h, uint64(v))
	}
	return h.Sum64()
}

func writeUint64(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// outcome is what one op contributes to the output check and to the
// simulated metrics.
type outcome struct {
	sum   uint64  // contribution to sim_digest
	cells int     // scenario cells priced: 1 per direct op, the grid per sweep pass
	rpd   float64 // rounds (ticks on the event engine) per diameter, geometric mean over the op's cells
	maxQ  float64 // largest link queue, geometric mean over the op's cells
}

// The layers a direct op routes on, which prefix their span names.
const (
	layerSimnet  = "simnet"
	layerLeveled = "leveled"
	layerMesh    = "mesh"
	layerEvent   = "event"
)

// runner prices one direct op kind by calling the layers the way the
// scenario layer does for the same cell, so rounds and queues match
// scenario.RunCell at the same seed.
type runner struct {
	cell    scenario.Cell
	built   topology.Built
	gen     workload.Generator
	params  workload.Params
	combine bool
	arena   *packet.Arena
	lease   *engine.Lease
	layer   string               // simulator the op routes on
	event   *engine.EventOptions // event-engine kinds
	net     *tracedNet           // emulation-mode kinds
	ms      engine.MemStats
}

func newRunner(cache *buildcache.Cache, c scenario.Cell) (*runner, error) {
	b, _, err := cache.Get(c.Topo.Family, topology.Params{N: c.Topo.N, K: c.Topo.K}, c.Topo.Leveled)
	if err != nil {
		return nil, err
	}
	gen, ok := workload.Lookup(c.Work.Name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", c.Work.Name)
	}
	if err := gen.Check(b); err != nil {
		return nil, err
	}
	r := &runner{
		cell:  c,
		built: b,
		gen:   gen,
		params: workload.Params{
			H: c.Work.H, D: c.Work.D, Fraction: c.Work.Fraction, Hot: c.Work.Hot,
		}.Defaulted(),
		combine: gen.Needs&workload.NeedsCombining != 0,
		arena:   packet.NewArena(),
		lease:   &engine.Lease{},
		layer:   layerSimnet,
	}
	switch {
	case meshRouted(b, c.Topo, gen.Class, c.Mode, c.Engine):
		r.layer = layerMesh
	case b.Graph == nil || c.Topo.Leveled:
		r.layer = layerLeveled
	}
	switch {
	case c.Engine == scenario.EngineEvent:
		r.event = eventOptions(c.Latency, c.Fault)
		r.lease = nil // the event loop keeps its own link map
	case c.Mode != "":
		net, err := r.emulNetwork()
		if err != nil {
			return nil, err
		}
		r.net = &tracedNet{Network: net, r: r}
	}
	return r, nil
}

// meshRouted reports whether a cell runs on the mesh's specialized
// routers, as the scenario layer dispatches: route-mode permutation and
// local traffic on the round engine, and erew steps (the §3.3 scheme).
func meshRouted(b topology.Built, tr scenario.TopoRef, class workload.Class, mode, eng string) bool {
	if _, ok := b.Graph.(*mesh.Grid); !ok || tr.Leveled || eng == scenario.EngineEvent {
		return false
	}
	switch mode {
	case "":
		return class == workload.ClassPermutation || class == workload.ClassLocal
	case scenario.ModeEREW:
		return true
	default:
		return false
	}
}

// eventOptions maps a cell's latency model and fault level onto the
// event engine's options, as the scenario layer does.
func eventOptions(l scenario.LatencySpec, f scenario.FaultSpec) *engine.EventOptions {
	return &engine.EventOptions{
		Model: l.Model, Base: l.Base, Jitter: l.Jitter, Scale: l.Scale, Gap: l.Gap,
		LinkFailure: f.LinkFailure, RepairTime: f.RepairTime,
		Straggler: f.Straggler, StragglerFactor: f.StragglerFactor,
		Drop: f.Drop, RetransmitAfter: f.RetransmitAfter,
	}
}

// emulNetwork builds the network an emulation-mode kind routes its steps
// on: the §3.3 two-phase scheme on the mesh, the generic adapter on the
// leveled unrolling or the direct graph elsewhere.
func (r *runner) emulNetwork() (emul.Network, error) {
	switch r.layer {
	case layerMesh:
		return &emul.MeshNetwork{
			G:    r.built.Graph.(*mesh.Grid),
			Opts: mesh.Options{MemStats: &r.ms, Lease: r.lease},
		}, nil
	case layerLeveled:
		net, err := emul.NewTopologyNetwork(r.built)
		if err != nil {
			return nil, err
		}
		net.MemStats, net.Lease = &r.ms, r.lease
		return net, nil
	default:
		net, err := emul.NewDirectTopologyNetwork(r.built)
		if err != nil {
			return nil, err
		}
		net.MemStats, net.Lease = &r.ms, r.lease
		return net, nil
	}
}

// run prices op number op at the given seed.
func (r *runner) run(t *tracer, op int, seed uint64) (outcome, error) {
	st, err := r.price(t, op, seed)
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		sum:   st.sum(),
		cells: 1,
		rpd:   float64(st.Rounds) / float64(r.built.Diameter()),
		maxQ:  float64(st.MaxQueue),
	}, nil
}

// price generates the op's traffic and routes it, or emulates the PRAM
// step it describes.
func (r *runner) price(t *tracer, op int, seed uint64) (simStats, error) {
	root := t.begin("op", op, noParent)
	r.arena.Reset()
	sp := t.begin("workload.generate", op, root)
	pkts, err := r.gen.Generate(r.built, r.params, r.arena, seed)
	t.end(sp, counts{Pkts: len(pkts)})
	if err != nil {
		return simStats{}, err
	}
	var st simStats
	if r.net != nil {
		st, err = r.step(t, op, root, seed, pkts)
	} else {
		st, err = r.route(t, op, root, seed, pkts)
	}
	if err != nil {
		return simStats{}, err
	}
	t.end(root, counts{Pkts: len(pkts), Hops: st.Hops, Rounds: st.Rounds})
	return st, nil
}

// route routes the packets on the kind's simulator and checks that every
// packet arrived.
func (r *runner) route(t *tracer, op, parent int, seed uint64, pkts []*packet.Packet) (simStats, error) {
	name := r.layer
	if r.event != nil {
		name = layerEvent
	}
	sp := t.begin(name+".route", op, parent)
	var st simStats
	switch r.layer {
	case layerMesh:
		s := mesh.Route(r.built.Graph.(*mesh.Grid), pkts, mesh.Options{
			Seed: seed * 31, Workers: r.cell.Workers, MemStats: &r.ms, Lease: r.lease,
		})
		st = simStats{Rounds: s.Rounds, MaxQueue: s.MaxQueue, Requests: s.DeliveredRequests}
	case layerLeveled:
		s := leveled.Route(r.built.Spec, pkts, leveled.Options{
			Seed: seed * 31, Workers: r.cell.Workers, MemStats: &r.ms, Lease: r.lease,
			Combine: r.combine, Event: r.event,
		})
		st = simStats{Rounds: s.Rounds, MaxQueue: s.MaxQueue, Requests: s.DeliveredRequests,
			Replies: s.DeliveredReplies, Merges: s.Merges, Retransmits: s.Retransmits}
	default:
		s, err := simnet.Route(r.built.Graph, pkts, simnet.Options{
			Seed: seed * 31, Workers: r.cell.Workers, MemStats: &r.ms, Lease: r.lease,
			Combine: r.combine, Event: r.event,
		})
		if err != nil {
			return simStats{}, err
		}
		st = simStats{Rounds: s.Rounds, MaxQueue: s.MaxQueue, Requests: s.DeliveredRequests,
			Replies: s.DeliveredReplies, Merges: s.Merges, Retransmits: s.Retransmits}
	}
	st.Hops = sumHops(pkts)
	t.end(sp, r.layerCounts(st, len(pkts)))
	if st.Requests != len(pkts) {
		return simStats{}, fmt.Errorf("%s: delivered %d of %d packets", r.built.Name(), st.Requests, len(pkts))
	}
	return st, nil
}

// layerCounts are the counters a simulator span records.
func (r *runner) layerCounts(st simStats, pkts int) counts {
	c := counts{
		Pkts: pkts, Hops: st.Hops, Rounds: st.Rounds,
		Delivered: st.Requests + st.Replies, Merges: st.Merges, Retransmits: st.Retransmits,
	}
	if r.event == nil {
		c.Nodes = r.built.Nodes()
		c.TableBytes = r.ms.TableBytes
		c.ArenaBytes = r.arena.Bytes()
		c.Hashed = r.ms.State == engine.StateHashed
	}
	return c
}

// step emulates one PRAM step whose memory accesses are the packets'
// pattern, as the scenario layer's erew/crcw cells do.
func (r *runner) step(t *tracer, op, parent int, seed uint64, pkts []*packet.Packet) (simStats, error) {
	sp := t.begin("workload.step_requests", op, parent)
	reqs := workload.StepRequests(r.gen.Class, r.net.Nodes(), pkts)
	t.end(sp, counts{Pkts: len(reqs)})
	sent, reads := 0, 0
	for _, q := range reqs {
		if q.Op != pram.OpNone {
			sent++
		}
		if q.Op == pram.OpRead {
			reads++
		}
	}
	sp = t.begin("emul.new", op, parent)
	e, err := emul.New(r.net, emul.Config{
		Memory:  emulMemory(r.net.Nodes()),
		Seed:    seed * 31,
		Combine: r.cell.Mode == scenario.ModeCRCW,
		Workers: r.cell.Workers,
	})
	t.end(sp, counts{})
	if err != nil {
		return simStats{}, err
	}
	sp = t.begin("emul.step", op, parent)
	r.net.t, r.net.op, r.net.parent, r.net.hops = t, op, sp, 0
	stats, cost := e.RouteRequests(reqs)
	st := simStats{Rounds: cost, MaxQueue: stats.MaxQueue, Hops: r.net.hops,
		Requests: stats.Requests, Replies: stats.Replies, Merges: stats.Merges}
	t.end(sp, counts{Pkts: sent, Hops: st.Hops, Rounds: cost, Delivered: st.Requests + st.Replies,
		Merges: st.Merges, Rehashes: e.Rehashes()})
	if st.Requests != sent || st.Replies != reads {
		return simStats{}, fmt.Errorf("%s: delivered %d of %d requests and %d of %d replies",
			r.net.Name(), st.Requests, sent, st.Replies, reads)
	}
	return st, nil
}

// emulMemory is the PRAM address-space size of an emulation-mode cell,
// as the scenario layer sizes it: 2^24, doubled until it covers the
// node count.
func emulMemory(nodes int) uint64 {
	m := uint64(1) << 24
	for m < uint64(nodes) {
		m <<= 1
	}
	return m
}

// tracedNet decorates the emulator's network so the benchmark sees each
// routed step from outside: it spans the call under the simulator's
// name and counts the hops of the step's packets. The mesh scheme
// routes private copies of the packets, so its steps count no hops.
type tracedNet struct {
	emul.Network
	r *runner

	// The step being routed, set before each RouteRequests call.
	t          *tracer
	op, parent int
	hops       int
}

// Route implements emul.Network.
func (n *tracedNet) Route(pkts []*packet.Packet, combine bool, seed uint64, workers int) emul.RouteStats {
	sp := n.t.begin(n.r.layer+".route", n.op, n.parent)
	st := n.Network.Route(pkts, combine, seed, workers)
	hops := sumHops(pkts)
	n.hops += hops
	n.t.end(sp, n.r.layerCounts(simStats{Rounds: st.Rounds, Hops: hops, Requests: st.Requests,
		Replies: st.Replies, Merges: st.Merges}, len(pkts)))
	return st
}

func sumHops(pkts []*packet.Packet) int {
	h := 0
	for _, p := range pkts {
		h += p.Hops
	}
	return h
}

// sweeper runs sweep-cold passes. Untraced passes call the public sweep
// entry point; traced passes replay the same grid cell by cell through
// scenario.RunCellSafe in a pool of the spec's width, so each cell gets
// its own span.
type sweeper struct {
	quick bool
	// builds sums the build-cache counters of every pass so far.
	builds buildcache.Stats
}

// run prices one pass at the given seed with a fresh build cache.
func (s *sweeper) run(t *tracer, op int, seed uint64) (outcome, error) {
	spec := sweepSpec(s.quick, seed)
	cache := buildcache.New(buildcache.DefaultBudget)
	var (
		results []scenario.Result
		err     error
	)
	root := t.begin("op", op, noParent)
	if t == nil {
		results, err = scenario.RunContextOptions(context.Background(), spec, scenario.RunOptions{Cache: cache})
	} else {
		results, err = replay(t, op, root, spec, cache)
	}
	st := cache.Stats()
	s.builds.Misses += st.Misses
	s.builds.BuildNS += st.BuildNS
	if err != nil {
		return outcome{}, err
	}
	// The artifact is hashed rather than discarded: the hash is the
	// pass's contribution to sim_digest.
	h := fnv.New64a()
	sp := t.begin("scenario.encode", op, root)
	err = scenario.WriteJSONL(h, results)
	t.end(sp, counts{Pkts: len(results)})
	if err != nil {
		return outcome{}, err
	}
	t.end(root, counts{})
	if len(results) == 0 {
		return outcome{}, fmt.Errorf("sweep produced no cells")
	}
	rpd := make([]float64, len(results))
	maxQ := make([]float64, len(results))
	for i, res := range results {
		if res.Failed() {
			return outcome{}, fmt.Errorf("cell %s failed (%s): %s", res.Scenario, res.ErrorKind, res.Error)
		}
		rpd[i], maxQ[i] = res.RoundsPerDiam, float64(res.MaxQueue)
	}
	return outcome{sum: h.Sum64(), cells: len(results), rpd: geomean(rpd), maxQ: geomean(maxQ)}, nil
}

// replay prices the spec's grid the way scenario.RunContextOptions does —
// the same cells in the same key order, RunCellSafe over a pool of
// Spec.Pool goroutines — with a span per cell. The grid expansion
// mirrors the scenario layer's for the axes sweepSpec sets, and
// TestSweepReplayMatchesRun holds the two byte-identical.
func replay(t *tracer, op, parent int, spec scenario.Spec, cache *buildcache.Cache) ([]scenario.Result, error) {
	sp := t.begin("scenario.expand", op, parent)
	cells, err := expand(spec, cache)
	t.end(sp, counts{Pkts: len(cells)})
	if err != nil {
		return nil, err
	}
	results := make([]scenario.Result, len(cells))
	pool := t.begin("scenario.pool", op, parent)
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < spec.Pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				sp := t.begin("scenario.cell", op, pool)
				res := scenario.RunCellSafe(context.Background(), cells[i])
				rounds := int(res.RoundsMean*float64(res.Trials) + 0.5)
				t.end(sp, counts{Rounds: rounds, Nodes: res.Nodes, Merges: res.Merges, Retransmits: res.Retransmits})
				results[i] = res
			}
		}()
	}
	for i := range cells {
		work <- i
	}
	close(work)
	wg.Wait()
	t.end(pool, counts{Pkts: len(cells)})
	return results, nil
}

// expand lists the spec's cells sorted by scenario key: every
// (topology, workload, mode) the capability checks admit, with the
// default axes of a round-engine spec.
func expand(spec scenario.Spec, cache *buildcache.Cache) ([]scenario.Cell, error) {
	var cells []scenario.Cell
	for _, tr := range spec.Topologies {
		b, _, err := cache.Get(tr.Family, topology.Params{N: tr.N, K: tr.K}, tr.Leveled)
		if err != nil {
			return nil, err
		}
		for _, wr := range spec.Workloads {
			gen, ok := workload.Lookup(wr.Name)
			if !ok {
				return nil, fmt.Errorf("unknown workload %q", wr.Name)
			}
			if gen.Check(b) != nil {
				continue
			}
			for _, mode := range spec.Modes {
				if mode == scenario.ModeRoute {
					mode = ""
				}
				if scenario.ModeCheck(mode, gen.Class) != nil {
					continue
				}
				c := scenario.Cell{Topo: tr, Work: wr, Built: b, Mode: mode, Workers: 1, Trials: spec.Trials, Seed: spec.Seed}
				// Only cells on the specialized mesh routers carry the
				// algorithm and discipline axes.
				if meshRouted(b, tr, gen.Class, mode, "") {
					c.Algorithm, c.Discipline = "threestage", "furthest"
				}
				cells = append(cells, c)
			}
		}
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Key() < cells[j].Key() })
	return cells, nil
}
