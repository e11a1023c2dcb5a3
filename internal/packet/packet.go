// Package packet defines the unit of communication in every simulated
// interconnection network: a (source, destination) pair (§2.2.1 of the
// paper) carrying an optional PRAM memory request, together with the
// bookkeeping the simulators need (hop and delay counters for the
// queue-line lemma, the recorded path for reverse-path replies, and
// the combining tree of Theorem 2.6).
package packet

import (
	"fmt"

	"pramemu/internal/prng"
)

// Kind classifies what a packet is doing in the emulation. Pure
// routing experiments use Transit.
type Kind uint8

const (
	// Transit is a plain routing payload with no memory semantics.
	Transit Kind = iota
	// ReadRequest asks the destination memory module for Addr.
	ReadRequest
	// WriteRequest delivers Value to Addr at the destination module.
	WriteRequest
	// ReadReply carries the value of Addr back to the requester.
	ReadReply
	// WriteAck confirms a write back to the requester.
	WriteAck
)

// String implements fmt.Stringer for diagnostics.
func (k Kind) String() string {
	switch k {
	case Transit:
		return "transit"
	case ReadRequest:
		return "read-req"
	case WriteRequest:
		return "write-req"
	case ReadReply:
		return "read-reply"
	case WriteAck:
		return "write-ack"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// IsRequest reports whether the packet flows processor -> memory module.
func (k Kind) IsRequest() bool { return k == ReadRequest || k == WriteRequest }

// IsReply reports whether the packet flows memory module -> processor.
func (k Kind) IsReply() bool { return k == ReadReply || k == WriteAck }

// Packet is one routable message. Simulators own all fields; the zero
// value is not useful — construct with New.
type Packet struct {
	// ID is unique within one routing run and breaks ties
	// deterministically in priority queue disciplines.
	ID int
	// Src and Dst are node identifiers in the simulated network.
	Src, Dst int
	// Kind, with Addr and Value below, carries the PRAM memory
	// operation, if any.
	Kind Kind
	// EnqueuedAt is the round at which the packet entered its current
	// queue; simulators use it to account delay lazily on dequeue. As
	// an int32 it fills Kind's padding, so the packet stays 216 bytes.
	EnqueuedAt int32
	// Next chains the packet to the one behind it in its link queue
	// (see engine.Link); it is nil whenever the packet is in no queue.
	Next  *Packet
	Addr  uint64
	Value int64
	// Proc is the PRAM processor on whose behalf the packet travels
	// (equal to Src for requests; preserved through combining so every
	// requester receives its reply, cf. the direction bits of Thm 2.6).
	Proc int

	// Phase is the routing phase the packet is in (1 = toward the
	// random intermediate node, 2 = toward the true destination).
	Phase int
	// Inter is the random intermediate destination of two-phase
	// routing (Valiant), chosen at injection time.
	Inter int
	// Stage is network-specific sub-state (e.g. the mesh's three
	// stages within one routing phase).
	Stage int
	// Row2 is the mesh's stage-1 random row choice.
	Row2 int
	// At is the node the packet currently occupies (maintained by
	// simulators that need position-dependent priorities).
	At int

	// Hops counts links traversed; Delay counts rounds spent waiting
	// in queues. Their sum plus injection round is the arrival time
	// (the "number of steps taken by a packet", §2.2.1).
	Hops  int
	Delay int
	// Injected is the simulation round at which the packet entered
	// the network; Arrived is set on delivery (-1 until then).
	Injected int
	Arrived  int

	// Path records the node identifiers visited, when the simulator
	// has reply-retracing or combining enabled. Path[0] == Src.
	Path []int32

	// Rand is the packet's private random stream ("flipping a d-sided
	// coin", Algorithm 2.1). Deriving it from the packet ID keeps
	// sequential and parallel simulation byte-identical.
	Rand *prng.Source

	// Children holds packets merged into this one by CRCW combining
	// (Theorem 2.6); CombinedAt is the index into the HOST's Path
	// (this packet's) at which the
	// merge happened, so replies can fan back out at that node.
	Children   []*Packet
	CombinedAt []int
}

// New returns a packet travelling from src to dst, injected at round 0.
func New(id, src, dst int, kind Kind) *Packet {
	return &Packet{ID: id, Src: src, Dst: dst, Kind: kind, Arrived: -1}
}

// RecordPath appends node to the packet's recorded path.
func (p *Packet) RecordPath(node int) { p.Path = append(p.Path, int32(node)) }

// Combine absorbs q into p (both must be requests for the same Addr
// headed to the same Dst). at is the index into p's path of the node
// performing the merge. The paper's Theorem 2.6 stores log d direction
// bits per merge; we store the child packet itself, whose own Path
// plays the role of the accumulated direction bits.
func (p *Packet) Combine(q *Packet, at int) {
	p.Children = append(p.Children, q)
	p.CombinedAt = append(p.CombinedAt, at)
}

// TotalCombined returns the number of original requests represented by
// p, including itself and all transitively combined children.
func (p *Packet) TotalCombined() int {
	total := 1
	for _, c := range p.Children {
		total += c.TotalCombined()
	}
	return total
}

// Steps returns hops + queueing delay, the per-packet cost measure of
// §2.2.1 ("the number of steps taken by a packet x is simply the sum
// of the delay of x and the length of the path of x").
func (p *Packet) Steps() int { return p.Hops + p.Delay }

// String implements fmt.Stringer for diagnostics.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt{id=%d %s %d->%d phase=%d addr=%d}",
		p.ID, p.Kind, p.Src, p.Dst, p.Phase, p.Addr)
}
