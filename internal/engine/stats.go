package engine

// Stats is the union of the aggregate measures the simulators report
// (§2.2.1's routing time, queue size and delay, plus the emulation
// counters). Every field merges commutatively — counters by sum,
// maxima by max — which is what lets shards accumulate independently
// and fold without any ordering constraint.
type Stats struct {
	// Rounds is the last round at which any packet finished.
	Rounds int
	// RequestRounds is the last round at which a forward packet was
	// delivered to its destination module.
	RequestRounds int
	// MaxQueue is the largest queue occupancy observed on any link.
	MaxQueue int
	// TotalDelay sums every finished packet's queueing delay.
	TotalDelay int64
	// MaxPacketSteps is the largest hops+delay over finished packets.
	MaxPacketSteps int
	// DeliveredRequests and DeliveredReplies count completions
	// (combined packets count once per constituent).
	DeliveredRequests int
	DeliveredReplies  int
	// Merges counts combining events (Theorem 2.6).
	Merges int
	// Retransmits counts dropped transmissions the event engine's
	// senders retried (always zero on synchronous round runs).
	Retransmits int
	// MaxModuleLoad is the largest per-node load accumulated through
	// Ctx.AddLoad: each node's load is summed over the shards at the
	// end of the run, and this is the largest sum.
	MaxModuleLoad int
	// Aux is simulator-defined max-merged state (the mesh router keeps
	// its per-stage drain rounds here).
	Aux [4]int
}

// fold merges o into s: sums for counters, max for maxima.
func (s *Stats) fold(o *Stats) {
	maxInto(&s.Rounds, o.Rounds)
	maxInto(&s.RequestRounds, o.RequestRounds)
	maxInto(&s.MaxQueue, o.MaxQueue)
	s.TotalDelay += o.TotalDelay
	maxInto(&s.MaxPacketSteps, o.MaxPacketSteps)
	s.DeliveredRequests += o.DeliveredRequests
	s.DeliveredReplies += o.DeliveredReplies
	s.Merges += o.Merges
	s.Retransmits += o.Retransmits
	maxInto(&s.MaxModuleLoad, o.MaxModuleLoad)
	for i := range s.Aux {
		maxInto(&s.Aux[i], o.Aux[i])
	}
}

func maxInto(dst *int, v int) {
	if v > *dst {
		*dst = v
	}
}
