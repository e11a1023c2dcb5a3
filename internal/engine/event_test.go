// The asynchronous event loop's contract: with unit latency, unit gap
// and no faults it reproduces the synchronous round engine tick for
// tick; with latency or faults dialed in it stays seed-deterministic
// for any Workers value, every packet still arrives, and each fault
// axis moves the measures it should.
package engine

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"pramemu/internal/packet"
)

// The event golden runs route 400 packets from 30 start nodes over a
// 40-link line, so links queue and see every fault axis many times.
const goldenNpkts, goldenStarts, goldenLength = 400, 30, 40

// lineNodeOf and linePeerOf decode a line link key into its endpoints:
// link k runs from node k to node k+1.
func lineNodeOf(key uint64) int { return int(key) }
func linePeerOf(key uint64) int { return int(key) + 1 }

// goldenEventCases are the knob sets TestEventOrderGolden pins. The
// last four put the scheduling horizon (the largest offset at which an
// event can be scheduled) at its extremes: a wide matrix latency, a
// long retransmit timeout, a long repair time, and a large straggler
// gap.
func goldenEventCases() []struct {
	name string
	opts Options
} {
	return []struct {
		name string
		opts Options
	}{
		{"defaults", Options{Workers: 1, Seed: 42, Event: &EventOptions{}}},
		{"faulty", faultyOpts(1)},
		{"matrix16", Options{Workers: 1, Seed: 42, Event: &EventOptions{
			Model: LatencyMatrix, Scale: 16, NodeOf: lineNodeOf, PeerOf: linePeerOf,
		}}},
		{"drop-rto40", Options{Workers: 1, Seed: 42, Event: &EventOptions{Drop: 0.5, RetransmitAfter: 40}}},
		{"fail-repair64", Options{Workers: 1, Seed: 42, Event: &EventOptions{LinkFailure: 0.9, RepairTime: 64}}},
		{"straggler9-gap3", Options{Workers: 1, Seed: 42, Event: &EventOptions{
			Straggler: 0.3, StragglerFactor: 9, Gap: 3, NodeOf: lineNodeOf, PeerOf: linePeerOf,
		}}},
	}
}

// traceDigest is an FNV-1a hash over every packet's (hops, delay).
func traceDigest(tr [][2]int) string {
	h := fnv.New64a()
	for _, x := range tr {
		fmt.Fprintf(h, "%d,%d;", x[0], x[1])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestEventOrderGolden pins the event loop's exact schedule: the
// statistics and a digest of the per-packet traces for each golden
// knob set. Any change to the (time, kind, key, packet ID) processing
// order, or to a sampled link property, moves at least one of them.
func TestEventOrderGolden(t *testing.T) {
	want := map[string]struct {
		stats  string
		traces string
	}{
		"defaults": {
			"{Rounds:410 RequestRounds:0 MaxQueue:14 TotalDelay:73900 MaxPacketSteps:410 DeliveredRequests:400 DeliveredReplies:0 Merges:0 Retransmits:0 MaxModuleLoad:400 Aux:[0 0 0 0]}",
			"26d29b890356cab8"},
		"faulty": {
			"{Rounds:2903 RequestRounds:0 MaxQueue:81 TotalDelay:533875 MaxPacketSteps:2674 DeliveredRequests:400 DeliveredReplies:0 Merges:0 Retransmits:1753 MaxModuleLoad:400 Aux:[0 0 0 0]}",
			"11cf25c05329f0d7"},
		"matrix16": {
			"{Rounds:559 RequestRounds:0 MaxQueue:14 TotalDelay:12135 MaxPacketSteps:105 DeliveredRequests:400 DeliveredReplies:0 Merges:0 Retransmits:0 MaxModuleLoad:400 Aux:[0 0 0 0]}",
			"f4463d35b9da0b1b"},
		"drop-rto40": {
			"{Rounds:23770 RequestRounds:0 MaxQueue:49 TotalDelay:4709980 MaxPacketSteps:22490 DeliveredRequests:400 DeliveredReplies:0 Merges:0 Retransmits:10228 MaxModuleLoad:400 Aux:[0 0 0 0]}",
			"fca135929b6751ff"},
		"fail-repair64": {
			"{Rounds:463 RequestRounds:0 MaxQueue:53 TotalDelay:95100 MaxPacketSteps:463 DeliveredRequests:400 DeliveredReplies:0 Merges:0 Retransmits:0 MaxModuleLoad:400 Aux:[0 0 0 0]}",
			"ad9619e8320ae3e9"},
		"straggler9-gap3": {
			"{Rounds:10808 RequestRounds:0 MaxQueue:137 TotalDelay:2134924 MaxPacketSteps:10720 DeliveredRequests:400 DeliveredReplies:0 Merges:0 Retransmits:0 MaxModuleLoad:400 Aux:[0 0 0 0]}",
			"e44a4f13d9ec673f"},
	}
	for _, c := range goldenEventCases() {
		st, tr := lineRunOpts(t, c.opts, goldenNpkts, goldenStarts, goldenLength)
		got := fmt.Sprintf("%+v", st)
		w := want[c.name]
		if got != w.stats || traceDigest(tr) != w.traces {
			t.Errorf("%s:\n  stats  %s\n  want   %s\n  traces %s, want %s", c.name, got, w.stats, traceDigest(tr), w.traces)
		}
	}
}

// TestEventUnitLatencyMatchesRoundEngine is the bridge between the
// two loops: the event engine at its defaults (Base 1, Gap 1, no
// faults) must reproduce the round engine's statistics and per-packet
// traces exactly — the heap's (time, kind, key, ID) order replays the
// drain/push/start phase structure of a synchronous round within each
// tick.
func TestEventUnitLatencyMatchesRoundEngine(t *testing.T) {
	const npkts, starts, length = 600, 40, 60
	roundSt, roundTr := lineRunOpts(t, Options{Workers: 1, Seed: 42}, npkts, starts, length)
	eventSt, eventTr := lineRunOpts(t, Options{Workers: 1, Seed: 42, Event: &EventOptions{}}, npkts, starts, length)
	if eventSt != roundSt {
		t.Fatalf("unit-latency event stats diverged from round engine:\nevent: %+v\nround: %+v", eventSt, roundSt)
	}
	for i := range eventTr {
		if eventTr[i] != roundTr[i] {
			t.Fatalf("packet %d trace %v != round engine %v", i, eventTr[i], roundTr[i])
		}
	}
}

// faultyOpts is a kitchen-sink event configuration exercising every
// axis at once.
func faultyOpts(workers int) Options {
	return Options{Workers: workers, Seed: 42, Event: &EventOptions{
		Model:           LatencyJitter,
		Base:            2,
		Jitter:          3,
		Gap:             2,
		LinkFailure:     0.2,
		RepairTime:      10,
		Straggler:       0.2,
		StragglerFactor: 3,
		Drop:            0.15,
		RetransmitAfter: 5,
	}}
}

// TestEventDeterministicAcrossWorkers: the Workers knob must be a
// no-op on event results — the loop is sequential by construction and
// every random property keys to stable entities, never shard streams.
func TestEventDeterministicAcrossWorkers(t *testing.T) {
	const npkts, starts, length = 400, 30, 40
	baseSt, baseTr := lineRunOpts(t, faultyOpts(1), npkts, starts, length)
	if baseSt.DeliveredRequests != npkts {
		t.Fatalf("delivered %d/%d", baseSt.DeliveredRequests, npkts)
	}
	if baseSt.Retransmits == 0 {
		t.Fatal("a 15% drop run recorded no retransmits")
	}
	for _, workers := range []int{2, 4, 8} {
		st, tr := lineRunOpts(t, faultyOpts(workers), npkts, starts, length)
		if st != baseSt {
			t.Fatalf("workers=%d event stats diverged:\n%+v\n%+v", workers, st, baseSt)
		}
		for i := range tr {
			if tr[i] != baseTr[i] {
				t.Fatalf("workers=%d packet %d trace %v != %v", workers, i, tr[i], baseTr[i])
			}
		}
	}
	// Two identical invocations replay byte for byte.
	again, _ := lineRunOpts(t, faultyOpts(1), npkts, starts, length)
	if again != baseSt {
		t.Fatalf("same-seed rerun diverged:\n%+v\n%+v", again, baseSt)
	}
}

// TestEventLatencyStretchesDeliveredTime: fixed latency b multiplies
// an uncongested pipeline's delivered time by about b, and a
// bandwidth gap g throttles a contended link the same way.
func TestEventLatencyStretchesDeliveredTime(t *testing.T) {
	// 20 packets on 20 distinct start nodes of a 40-link line: they
	// follow each other and never queue, so delivered time is pure
	// latency and scales exactly with Base.
	const npkts, starts, length = 20, 20, 40
	base, _ := lineRunOpts(t, Options{Workers: 1, Seed: 7, Event: &EventOptions{}}, npkts, starts, length)
	slow, _ := lineRunOpts(t, Options{Workers: 1, Seed: 7, Event: &EventOptions{Base: 4}}, npkts, starts, length)
	if slow.Rounds != 4*base.Rounds {
		t.Fatalf("4x latency delivered at tick %d, want exactly 4*%d (uncontended pipeline)", slow.Rounds, base.Rounds)
	}
	// 100 packets funneled through one source node: the sender-side
	// gap throttles the bottleneck link.
	contended, _ := lineRunOpts(t, Options{Workers: 1, Seed: 7, Event: &EventOptions{Gap: 3}}, 100, 1, length)
	serial, _ := lineRunOpts(t, Options{Workers: 1, Seed: 7, Event: &EventOptions{}}, 100, 1, length)
	if contended.Rounds <= 2*serial.Rounds {
		t.Fatalf("gap 3 on a single-source line delivered at tick %d, not ~3x the gap-1 %d", contended.Rounds, serial.Rounds)
	}
}

// TestEventDropRetransmits: every loss is counted, every packet still
// arrives, and the delivered time can only grow.
func TestEventDropRetransmits(t *testing.T) {
	const npkts, starts, length = 200, 20, 30
	base, _ := lineRunOpts(t, Options{Workers: 1, Seed: 9, Event: &EventOptions{}}, npkts, starts, length)
	opts := Options{Workers: 1, Seed: 9, Event: &EventOptions{Drop: 0.3, RetransmitAfter: 4}}
	st, _ := lineRunOpts(t, opts, npkts, starts, length)
	if st.DeliveredRequests != npkts {
		t.Fatalf("delivered %d/%d under 30%% drop", st.DeliveredRequests, npkts)
	}
	if st.Retransmits == 0 {
		t.Fatal("30% drop recorded no retransmits")
	}
	if st.Rounds <= base.Rounds {
		t.Fatalf("lossy run delivered at tick %d, no later than lossless %d", st.Rounds, base.Rounds)
	}
}

// TestEventLinkFailureDelivers: transient outages delay traffic but
// repair by their seeded tick, so everything still arrives.
func TestEventLinkFailureDelivers(t *testing.T) {
	opts := Options{Workers: 1, Seed: 11, Event: &EventOptions{LinkFailure: 0.5, RepairTime: 20}}
	st, _ := lineRunOpts(t, opts, 200, 20, 30)
	if st.DeliveredRequests != 200 {
		t.Fatalf("delivered %d/200 under 50%% link outages", st.DeliveredRequests)
	}
	base, _ := lineRunOpts(t, Options{Workers: 1, Seed: 11, Event: &EventOptions{}}, 200, 20, 30)
	if st.Rounds <= base.Rounds {
		t.Fatalf("outage run delivered at tick %d, no later than healthy %d", st.Rounds, base.Rounds)
	}
}

// TestEventStragglerKeysToNodes: with a NodeOf hook, the straggler
// verdict is a property of the sending node — every link it sends on
// slows by the same factor — and the delivered time stretches.
func TestEventStragglerKeysToNodes(t *testing.T) {
	mk := func(straggler float64) Options {
		return Options{Workers: 1, Seed: 13, Event: &EventOptions{
			Straggler:       straggler,
			StragglerFactor: 5,
			NodeOf:          func(key uint64) int { return int(key) },
			PeerOf:          func(key uint64) int { return int(key) + 1 },
		}}
	}
	base, _ := lineRunOpts(t, mk(0), 200, 20, 30)
	st, _ := lineRunOpts(t, mk(0.5), 200, 20, 30)
	if st.DeliveredRequests != 200 {
		t.Fatalf("delivered %d/200 with stragglers", st.DeliveredRequests)
	}
	if st.Rounds <= base.Rounds {
		t.Fatalf("straggler run delivered at tick %d, no later than %d", st.Rounds, base.Rounds)
	}
}

// TestEventMatrixLatency: the per-node-pair delay matrix is seeded —
// two runs agree — and produces longer delivered times than Base
// alone on a multi-hop line.
func TestEventMatrixLatency(t *testing.T) {
	mk := func() Options {
		return Options{Workers: 1, Seed: 17, Event: &EventOptions{
			Model:  LatencyMatrix,
			Scale:  6,
			NodeOf: func(key uint64) int { return int(key) },
			PeerOf: func(key uint64) int { return int(key) + 1 },
		}}
	}
	st1, tr1 := lineRunOpts(t, mk(), 100, 10, 20)
	st2, tr2 := lineRunOpts(t, mk(), 100, 10, 20)
	if st1 != st2 {
		t.Fatalf("matrix runs diverged:\n%+v\n%+v", st1, st2)
	}
	for i := range tr1 {
		if tr1[i] != tr2[i] {
			t.Fatalf("matrix packet %d trace %v != %v", i, tr1[i], tr2[i])
		}
	}
	base, _ := lineRunOpts(t, Options{Workers: 1, Seed: 17, Event: &EventOptions{}}, 100, 10, 20)
	if st1.Rounds <= base.Rounds {
		t.Fatalf("matrix run delivered at tick %d, no later than unit-latency %d", st1.Rounds, base.Rounds)
	}
}

// TestEventOptionsValidate pins the knob validation and the New panic
// on invalid options.
func TestEventOptionsValidate(t *testing.T) {
	bad := []EventOptions{
		{Model: "gaussian"},
		{Drop: 1},
		{Drop: -0.1},
		{LinkFailure: 1.5},
		{Straggler: -1},
		{Base: -2},
		{RepairTime: maxHorizon + 1},
		{Base: maxHorizon / 4}, // latency × default straggler factor 4 passes the horizon
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Fatalf("options %+v validated", o)
		}
	}
	if err := (EventOptions{Model: LatencyJitter, Jitter: 3, Drop: 0.5}).Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New accepted an invalid event model")
		}
		if !strings.Contains(r.(string), "latency model") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	New(Options{Event: &EventOptions{Model: "gaussian"}})
}

// TestEventCombinerRuns: combining still applies on the event path —
// the arrival phase consults the combiner against settled queues just
// as the synchronous push phase does.
func TestEventCombinerRuns(t *testing.T) {
	a := packet.New(0, 0, 1, packet.ReadRequest)
	b := packet.New(1, 0, 1, packet.ReadRequest)
	a.Addr, b.Addr = 7, 7
	eng := New(Options{Event: &EventOptions{}})
	st := eng.Run(func(ctx *Ctx) {
		ctx.Emit(0, a)
		ctx.Emit(0, b)
	}, func(ctx *Ctx, ar Arrival, round int) {
		ctx.Stats().DeliveredRequests += ar.P.TotalCombined()
	}, func(ctx *Ctx, q *Link, ar Arrival) bool {
		var host *packet.Packet
		q.Each(func(c *packet.Packet) bool {
			if c.Addr == ar.P.Addr {
				host = c
				return false
			}
			return true
		})
		if host == nil {
			return false
		}
		host.Combine(ar.P, 0)
		ctx.Stats().Merges++
		return true
	})
	if st.Merges != 1 {
		t.Fatalf("merges %d, want 1", st.Merges)
	}
	if st.DeliveredRequests != 2 {
		t.Fatalf("delivered %d constituents, want 2", st.DeliveredRequests)
	}
	if st.MaxQueue != 1 {
		t.Fatalf("max queue %d, want 1 (second packet combined, not queued)", st.MaxQueue)
	}
}

// TestEventDenseIndexMatchesMap: the event loop's link state is
// addressed through a dense index when the run declares MaxKey, and
// through a hash map when it does not or when MemBudget cannot afford
// the index. All three give the same run, on every golden knob set.
func TestEventDenseIndexMatchesMap(t *testing.T) {
	for _, c := range goldenEventCases() {
		base, baseTr := lineRunOpts(t, c.opts, goldenNpkts, goldenStarts, goldenLength)
		for _, v := range []struct {
			name     string
			maxKey   uint64
			budget   int64
			state    State
			degraded bool
		}{
			{"dense", goldenLength, 0, StateDense, false},
			{"map", 0, 0, StateHashed, false},
			{"over-budget", goldenLength, goldenLength*eventIndexBytes - 1, StateHashed, true},
		} {
			opts := c.opts
			opts.MaxKey, opts.MemBudget = v.maxKey, v.budget
			if eng := New(opts); eng.State() != v.state || eng.MemStats().Degraded != v.degraded {
				t.Fatalf("%s/%s: state %v degraded %v, want %v %v",
					c.name, v.name, eng.State(), eng.MemStats().Degraded, v.state, v.degraded)
			}
			st, tr := lineRunOpts(t, opts, goldenNpkts, goldenStarts, goldenLength)
			if st != base {
				t.Fatalf("%s/%s: stats diverged:\n%+v\n%+v", c.name, v.name, st, base)
			}
			if traceDigest(tr) != traceDigest(baseTr) {
				t.Fatalf("%s/%s: per-packet traces diverged", c.name, v.name)
			}
		}
	}
}

// TestEventSchedulePanicsOutsideWindow pins the wheel's ordering
// guard: scheduling into a (tick, kind) list that is already running,
// into the past, or beyond the ring would break the (time, kind, key,
// ID) order, so it panics instead.
func TestEventSchedulePanicsOutsideWindow(t *testing.T) {
	for _, c := range []struct {
		name string
		at   int64
		kind int
	}{
		{"same kind", 10, evArrive},
		{"earlier kind", 10, evDeliver},
		{"past tick", 9, evFree},
		{"beyond the ring", 10 + 64, evDeliver},
	} {
		ev := &eventLoop{heads: make([]int32, 64*numKinds), mask: 63, free: -1, now: 10, kind: evArrive}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: scheduling (tick %d, kind %d) at (tick 10, kind %d) did not panic", c.name, c.at, c.kind, evArrive)
				}
			}()
			ev.schedule(c.at, c.kind, Arrival{})
		}()
	}
	ev := &eventLoop{heads: make([]int32, 64*numKinds), mask: 63, free: -1, now: 10, kind: evArrive}
	for i := range ev.heads {
		ev.heads[i] = -1
	}
	ev.schedule(10, evRetry, Arrival{})
	ev.schedule(10+63, evDeliver, Arrival{})
	if ev.pending != 2 {
		t.Fatalf("pending %d after two in-window schedules, want 2", ev.pending)
	}
}
