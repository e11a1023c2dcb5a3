// Package emul binds the PRAM to an interconnection network: it is
// the paper's emulation recipe (§2.1, §2.4, §3.3). The shared address
// space is scattered over the network's memory modules by a hash
// function drawn from the Karlin–Upfal class H; each PRAM instruction
// becomes one batch of read/write request packets routed from every
// processor to the module holding its address "and back in case of a
// read instruction"; CRCW steps additionally combine packets with the
// same destination address en route (Theorem 2.6). If a step's
// address placement overloads some module beyond the allotted cℓ
// budget, a new hash function is chosen and the whole memory is
// remapped — the rehashing protocol whose cost is charged explicitly
// and whose frequency experiment E11 shows to be negligible.
//
// The Emulator implements pram.StepExecutor, so any PRAM program runs
// unchanged on any emulated network; memory semantics are enforced by
// the pram.Machine while the network run prices the step.
package emul

import (
	"fmt"
	"slices"

	"pramemu/internal/hashing"
	"pramemu/internal/packet"
	"pramemu/internal/pram"
	"pramemu/internal/topology"
)

// RouteStats is the network-independent summary of routing one
// emulated PRAM step.
type RouteStats struct {
	// Rounds is the step's cost in network time (request delivery
	// plus reply return).
	Rounds int
	// MaxQueue is the largest link-queue occupancy observed.
	MaxQueue int
	// Merges counts CRCW combining events (Theorem 2.6).
	Merges int
	// MaxModuleLoad is the largest number of requests delivered to
	// one memory module.
	MaxModuleLoad int
	// Requests and Replies count delivered forward packets and
	// returned read replies.
	Requests, Replies int
}

// Network is an interconnection network that can route one emulated
// PRAM step: deliver every request packet from its Src processor to
// its Dst module and return a reply for every read.
type Network interface {
	// Name identifies the network in reports.
	Name() string
	// Nodes returns the number of processor/memory-module nodes.
	Nodes() int
	// Diameter returns the network diameter, the L in the paper's
	// bounds (emulation is optimal when a step costs O(L)).
	Diameter() int
	// Route routes the request packets (with replies for reads),
	// combining same-address requests when combine is set. workers is
	// the simulator's round-engine width (0 = GOMAXPROCS, 1 =
	// sequential); every width yields identical RouteStats.
	Route(pkts []*packet.Packet, combine bool, seed uint64, workers int) RouteStats
}

// Config parameterizes an Emulator.
type Config struct {
	// Memory is the PRAM address-space size M.
	Memory uint64
	// HashDegree is the polynomial degree S = cL of the hash class;
	// 0 means 2 * Diameter (c = 2).
	HashDegree int
	// OverloadFactor c sets the rehash trigger: a step whose max
	// module load exceeds c * Diameter forces a rehash. 0 means 4.
	OverloadFactor int
	// Combine enables CRCW en-route message combining.
	Combine bool
	// Seed drives hashing and routing randomness.
	Seed uint64
	// Workers is the network simulator's round-engine width, passed
	// through to every routed step: 0 selects GOMAXPROCS, 1 the
	// sequential loop. Any value yields identical emulation results.
	Workers int
	// Arena, when non-nil, is caller-owned memory for the step's
	// request packets: every routing attempt resets it and carves its
	// packets from it, so a warm arena routes a step without a heap
	// packet per request. The caller must hold no packet of the arena
	// across a step. Nil builds each packet with packet.New. Results
	// are identical either way.
	Arena *packet.Arena
}

// Emulator prices PRAM steps by routing them over a Network.
type Emulator struct {
	net       Network
	cfg       Config
	hash      *hashing.Manager
	rehashes  int
	seedCtr   uint64
	threshold int
	// pkts, modStart and modAddrs are per-attempt scratch, grown on
	// demand and kept for the emulator's next attempt or step.
	pkts     []*packet.Packet
	modStart []int32
	modAddrs []uint64
}

// New builds an emulator for the given network. Degenerate
// configurations (empty address space, more processors than
// addresses, a network beyond the simulator's key space) come back
// as errors so callers fail cleanly instead of crashing the process.
func New(net Network, cfg Config) (*Emulator, error) {
	if cfg.Memory == 0 {
		return nil, fmt.Errorf("emul: address space must be non-empty")
	}
	if uint64(net.Nodes()) > cfg.Memory {
		return nil, fmt.Errorf("emul: %s has %d modules but only %d addresses; EREW steps would be impossible",
			net.Name(), net.Nodes(), cfg.Memory)
	}
	if net.Nodes() > topology.MaxNodes {
		return nil, fmt.Errorf("emul: %s has %d nodes, exceeding the simulator's node-id limit (%d)",
			net.Name(), net.Nodes(), topology.MaxNodes)
	}
	degree := cfg.HashDegree
	if degree == 0 {
		degree = 2 * net.Diameter()
	}
	factor := cfg.OverloadFactor
	if factor == 0 {
		factor = 4
	}
	class := hashing.NewClass(cfg.Memory, net.Nodes(), degree)
	return &Emulator{
		net:       net,
		cfg:       cfg,
		hash:      hashing.NewManager(class, cfg.Seed),
		threshold: factor * net.Diameter(),
	}, nil
}

// Network returns the emulated network.
func (e *Emulator) Network() Network { return e.net }

// Rehashes returns how many rehash events have occurred.
func (e *Emulator) Rehashes() int { return e.rehashes }

// HashBits returns the description size of the current hash function
// in bits (the O(L log M) of §2.1).
func (e *Emulator) HashBits() int { return e.hash.Current().Bits() }

// ExecuteStep implements pram.StepExecutor: one PRAM instruction is
// emulated by hashing each touched address to its module, routing the
// request packets and read replies, and charging the routing time.
func (e *Emulator) ExecuteStep(step int, reqs []pram.Request) int {
	_, cost := e.routeRequests(reqs)
	return cost
}

// RouteRequests emulates a single synthetic step outside any PRAM
// program (used by the benchmark harness) and returns its stats and
// total cost including any rehash penalty.
func (e *Emulator) RouteRequests(reqs []pram.Request) (RouteStats, int) {
	return e.routeRequests(reqs)
}

func (e *Emulator) routeRequests(reqs []pram.Request) (RouteStats, int) {
	cost := 0
	for attempt := 0; ; attempt++ {
		pkts, reads := e.buildPackets(reqs)
		if len(pkts) == 0 {
			// A compute-only step still costs one unit of time.
			return RouteStats{}, cost + 1
		}
		if load := e.maxAddrLoad(pkts); load > e.threshold {
			// Lemma 2.2's bad event: some module drew more than cL of
			// the step's addresses. Draw a new hash function and remap
			// the whole memory (charged below), then retry.
			e.rehash()
			cost += e.rehashCost()
			if attempt > 64 {
				panic("emul: persistent overload after 64 rehashes (degenerate workload)")
			}
			continue
		}
		stats := e.net.Route(pkts, e.cfg.Combine, e.nextSeed(), e.cfg.Workers)
		if stats.Requests != len(pkts) {
			panic(fmt.Sprintf("emul: %s delivered %d/%d requests",
				e.net.Name(), stats.Requests, len(pkts)))
		}
		if stats.Replies != reads {
			panic(fmt.Sprintf("emul: %s returned %d/%d read replies",
				e.net.Name(), stats.Replies, reads))
		}
		return stats, cost + stats.Rounds
	}
}

// buildPackets turns a request vector into routable packets. Requests
// from processor p originate at node p; the destination is the hashed
// module of the address.
func (e *Emulator) buildPackets(reqs []pram.Request) (pkts []*packet.Packet, reads int) {
	h := e.hash.Current()
	if e.cfg.Arena != nil {
		e.cfg.Arena.Reset()
	}
	pkts = slices.Grow(e.pkts[:0], len(reqs))
	id := 0
	for _, req := range reqs {
		if req.Op == pram.OpNone {
			continue
		}
		if req.Proc < 0 || req.Proc >= e.net.Nodes() {
			panic(fmt.Sprintf("emul: processor %d has no node on %s", req.Proc, e.net.Name()))
		}
		kind := packet.ReadRequest
		if req.Op == pram.OpWrite {
			kind = packet.WriteRequest
		} else {
			reads++
		}
		p := packet.NewIn(e.cfg.Arena, id, req.Proc, h.Hash(req.Addr), kind)
		p.Addr = req.Addr
		p.Value = req.Value
		p.Proc = req.Proc
		pkts = append(pkts, p)
		id++
	}
	e.pkts = pkts
	return pkts, reads
}

// maxAddrLoad returns the largest number of distinct step addresses
// hashed to one module — the quantity Lemma 2.2 bounds. It reads each
// address's module from its packet's Dst, so every address is hashed
// once per attempt, by buildPackets. Copies of one address share a
// module, so a counting sort groups the addresses by module and each
// module's distinct count is taken within its own group; a group no
// larger than the best count so far cannot beat it and is skipped.
func (e *Emulator) maxAddrLoad(pkts []*packet.Packet) int {
	nodes := e.net.Nodes()
	start := append(e.modStart[:0], make([]int32, nodes+1)...)
	addrs := slices.Grow(e.modAddrs[:0], len(pkts))[:len(pkts)]
	e.modStart, e.modAddrs = start, addrs
	for _, p := range pkts {
		start[p.Dst+1]++
	}
	for m := 1; m <= nodes; m++ {
		start[m] += start[m-1]
	}
	// start[m] is group m's first slot; it advances as the group
	// fills, ending at the group's end.
	for _, p := range pkts {
		addrs[start[p.Dst]] = p.Addr
		start[p.Dst]++
	}
	max, lo := 0, int32(0)
	for m := 0; m < nodes; m++ {
		group := addrs[lo:start[m]]
		lo = start[m]
		if len(group) <= max {
			continue
		}
		slices.Sort(group)
		distinct := 1
		for i := 1; i < len(group); i++ {
			if group[i] != group[i-1] {
				distinct++
			}
		}
		if distinct > max {
			max = distinct
		}
	}
	return max
}

func (e *Emulator) rehash() {
	e.hash.Rehash()
	e.rehashes++
}

// rehashCost charges the memory redistribution: every module relocates
// its ~M/N locations, pipelined through the network in batches that
// each take a two-phase routing (~2 * diameter). This is the
// "rehashing is very expensive" of §2.1, made concrete.
func (e *Emulator) rehashCost() int {
	perModule := int(e.cfg.Memory / uint64(e.net.Nodes()))
	if perModule < 1 {
		perModule = 1
	}
	return perModule * 2 * e.net.Diameter()
}

func (e *Emulator) nextSeed() uint64 {
	e.seedCtr++
	return e.cfg.Seed ^ (e.seedCtr * 0x9e3779b97f4a7c15)
}
