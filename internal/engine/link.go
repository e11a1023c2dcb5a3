package engine

import (
	"fmt"

	"pramemu/internal/packet"
)

// Link is one directed link's queue, kept intrusively: the queued
// packets chain through their Next fields into a circular singly
// linked list, and the link table stores only the tail and the length
// (tail.Next is the head). No queue object exists, so a link costs its
// 16-byte table slot and nothing else, and the zero Link is an empty
// queue.
//
// A nil comparator makes the link a FIFO, the discipline of §2.2.1. A
// non-nil one keeps the chain sorted, so the head is always the
// packet that should cross first (the mesh's furthest-destination-
// first rule, §3.4). Queues stay Õ(1) long, so the sorted insert walks
// a short chain.
type Link struct {
	tail *packet.Packet
	n    int
}

// Len returns the number of queued packets.
func (l *Link) Len() int { return l.n }

// Each calls f on every queued packet, head first, until f returns
// false. Combiners use it to find a mergeable queued packet.
func (l *Link) Each(f func(p *packet.Packet) bool) {
	if l.tail == nil {
		return
	}
	for p := l.tail.Next; f(p) && p != l.tail; p = p.Next {
	}
}

// pop removes and returns the head packet, clearing its Next so the
// packet may join another queue. The link must be non-empty.
func (l *Link) pop() *packet.Packet {
	head := l.tail.Next
	if head == l.tail {
		l.tail = nil
	} else {
		l.tail.Next = head.Next
	}
	head.Next = nil
	l.n--
	return head
}

// push enqueues p: at the tail when less is nil or p does not precede
// the tail, otherwise before the first queued packet less says p
// precedes. A packet with a non-nil Next is already in some queue (a
// handler emitted it twice), which would corrupt both chains, so push
// panics on it.
func (l *Link) push(p *packet.Packet, less func(a, b *packet.Packet) bool) {
	if p.Next != nil {
		panic(fmt.Sprintf("engine: packet %d pushed while already queued (emitted twice?)", p.ID))
	}
	l.n++
	switch {
	case l.tail == nil:
		p.Next = p
		l.tail = p
	case less == nil || !less(p, l.tail):
		p.Next = l.tail.Next
		l.tail.Next = p
		l.tail = p
	default:
		prev := l.tail
		for !less(p, prev.Next) {
			prev = prev.Next
		}
		p.Next = prev.Next
		prev.Next = p
	}
}
