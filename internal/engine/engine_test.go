package engine

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

	"pramemu/internal/packet"
)

func TestPoolCoversRangeOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 17} {
		p := NewPool(workers)
		const n = 1000
		var hits [n]int32
		p.Run(n, func(w, lo, hi int) {
			if lo < 0 || hi > n || lo > hi {
				t.Errorf("workers=%d: bad chunk [%d,%d)", workers, lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestPoolPropagatesPanic(t *testing.T) {
	p := NewPool(4)
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	p.Run(100, func(w, lo, hi int) {
		if lo == 0 {
			panic("boom")
		}
	})
}

func TestPoolRunIfSequentialFallback(t *testing.T) {
	p := NewPool(8)
	calls := 0
	p.RunIf(false, 50, func(w, lo, hi int) {
		calls++
		if w != 0 || lo != 0 || hi != 50 {
			t.Fatalf("sequential fallback got (w=%d, lo=%d, hi=%d)", w, lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("sequential fallback ran %d chunks", calls)
	}
}

// lineRun routes packets down a shared line of nodes 0..length: packet
// i starts at node i%starts and walks to node length. Edge key k is
// the link k -> k+1, so low-numbered links are heavily contended.
// Returns the final stats and per-packet (hops, delay) pairs.
func lineRun(t *testing.T, workers, npkts, starts, length int) (Stats, [][2]int) {
	return lineRunOpts(t, Options{Workers: workers, Seed: 42}, npkts, starts, length)
}

func lineRunOpts(t *testing.T, opts Options, npkts, starts, length int) (Stats, [][2]int) {
	t.Helper()
	pkts := make([]*packet.Packet, npkts)
	eng := New(opts)
	handle := func(ctx *Ctx, a Arrival, round int) {
		p := a.P
		p.Hops++
		at := int(a.Key) + 1
		if at == length {
			p.Arrived = round
			st := ctx.Stats()
			st.DeliveredRequests++
			st.TotalDelay += int64(p.Delay)
			if round > st.Rounds {
				st.Rounds = round
			}
			if s := p.Steps(); s > st.MaxPacketSteps {
				st.MaxPacketSteps = s
			}
			ctx.AddLoad(at, 1)
			return
		}
		ctx.Emit(uint64(at), p)
	}
	st := eng.Run(func(ctx *Ctx) {
		for i := range pkts {
			pkts[i] = packet.New(i, i%starts, length, packet.Transit)
			ctx.Emit(uint64(i%starts), pkts[i])
		}
	}, handle, nil)
	traces := make([][2]int, npkts)
	for i, p := range pkts {
		if p.Arrived < 0 {
			t.Fatalf("workers=%d: packet %d never arrived", opts.Workers, i)
		}
		traces[i] = [2]int{p.Hops, p.Delay}
	}
	return st, traces
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	baseSt, baseTr := lineRun(t, 1, 600, 40, 60)
	if baseSt.DeliveredRequests != 600 {
		t.Fatalf("delivered %d/600", baseSt.DeliveredRequests)
	}
	if baseSt.MaxModuleLoad != 600 {
		t.Fatalf("module load %d, want 600", baseSt.MaxModuleLoad)
	}
	for _, workers := range []int{2, 3, 4, 8} {
		st, tr := lineRun(t, workers, 600, 40, 60)
		if st != baseSt {
			t.Fatalf("workers=%d stats diverged:\n%+v\n%+v", workers, st, baseSt)
		}
		for i := range tr {
			if tr[i] != baseTr[i] {
				t.Fatalf("workers=%d packet %d trace %v != %v", workers, i, tr[i], baseTr[i])
			}
		}
	}
}

// TestDenseMatchesHashed is the storage-path equivalence property:
// declaring MaxKey (dense tables + active lists) and leaving it unset
// (hashed maps) produce bit-identical stats and per-packet traces at
// every worker count, because insertion order is canonical and
// per-round effects commute on both paths.
func TestDenseMatchesHashed(t *testing.T) {
	const npkts, starts, length = 600, 40, 60
	baseSt, baseTr := lineRunOpts(t, Options{Workers: 1, Seed: 42}, npkts, starts, length)
	for _, workers := range []int{1, 2, 4, 8} {
		st, tr := lineRunOpts(t, Options{Workers: workers, Seed: 42, MaxKey: length}, npkts, starts, length)
		if st != baseSt {
			t.Fatalf("dense workers=%d stats diverged from hashed:\n%+v\n%+v", workers, st, baseSt)
		}
		for i := range tr {
			if tr[i] != baseTr[i] {
				t.Fatalf("dense workers=%d packet %d trace %v != %v", workers, i, tr[i], baseTr[i])
			}
		}
	}
}

// pagedBudget steps the small test key spaces (60 to 512 keys) from
// flat down to paged at up to 8 shards: their flat tables cost at
// least 60 × 16 B, while their page directories cost at most 8 shards
// × 1 page × 8 B = 64 B.
const pagedBudget = 64

// TestStateResolution pins the representation choice: small dense
// declarations get flat tables, declarations beyond the flat cap get
// paged tables (not the silent hashed fallback they once did), an
// undeclared key space stays hashed, and a memory budget steps down
// the dense → paged → hashed ladder to the first layout whose fixed
// footprint fits, with the demotion recorded in MemStats.
func TestStateResolution(t *testing.T) {
	cases := []struct {
		name     string
		opts     Options
		state    State
		degraded bool
	}{
		{"hashed by default", Options{Workers: 1}, StateHashed, false},
		{"flat dense", Options{Workers: 1, MaxKey: 1024}, StateDense, false},
		{"paged beyond flat cap", Options{Workers: 1, MaxKey: flatKeyLimit + 1}, StatePaged, false},
		{"hashed beyond paged cap", Options{Workers: 1, MaxKey: pagedKeyLimit + 1}, StateHashed, false},
		{"dense within budget", Options{Workers: 1, MaxKey: 1024, MemBudget: 1 << 20}, StateDense, false},
		{"dense over budget lands paged", Options{Workers: 1, MaxKey: 1 << 20, MemBudget: 1 << 16}, StatePaged, true},
		{"dense degraded by budget", Options{Workers: 1, MaxKey: 1 << 20, MemBudget: 1 << 10}, StateHashed, true},
		{"paged within budget", Options{Workers: 1, MaxKey: flatKeyLimit + 1, MemBudget: 1 << 20}, StatePaged, false},
		{"paged degraded by budget", Options{Workers: 1, MaxKey: pagedKeyLimit, MemBudget: 1 << 10}, StateHashed, true},
	}
	for _, c := range cases {
		eng := New(c.opts)
		if eng.State() != c.state || eng.degraded != c.degraded {
			t.Errorf("%s: state=%v degraded=%v, want %v degraded=%v",
				c.name, eng.State(), eng.degraded, c.state, c.degraded)
		}
		if m := eng.MemStats(); m.State != c.state || m.Degraded != c.degraded {
			t.Errorf("%s: MemStats reports state=%v degraded=%v", c.name, m.State, m.Degraded)
		}
	}
}

// TestPagedMatchesFlatAndHashed extends the storage-path equivalence
// property to the paged tables: the same trace run paged (both budgeted
// down from flat on a small key space and resolved naturally on a
// past-the-flat-cap declaration) is bit-identical to the flat-dense and
// hashed results at every worker count.
func TestPagedMatchesFlatAndHashed(t *testing.T) {
	const npkts, starts, length = 600, 40, 60
	baseSt, baseTr := lineRunOpts(t, Options{Workers: 1, Seed: 42}, npkts, starts, length)
	check := func(label string, opts Options, wantState State) {
		eng := New(opts)
		if eng.State() != wantState {
			t.Fatalf("%s workers=%d: state %v, want %v", label, opts.Workers, eng.State(), wantState)
		}
		st, tr := lineRunOpts(t, opts, npkts, starts, length)
		if st != baseSt {
			t.Fatalf("%s workers=%d stats diverged:\n%+v\n%+v", label, opts.Workers, st, baseSt)
		}
		for i := range tr {
			if tr[i] != baseTr[i] {
				t.Fatalf("%s workers=%d packet %d trace %v != %v", label, opts.Workers, i, tr[i], baseTr[i])
			}
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		check("budget-paged", Options{Workers: workers, Seed: 42, MaxKey: length, MemBudget: pagedBudget}, StatePaged)
		check("wide-paged", Options{Workers: workers, Seed: 42, MaxKey: flatKeyLimit + 1}, StatePaged)
		check("degraded-hashed", Options{Workers: workers, Seed: 42, MaxKey: length, MemBudget: 1}, StateHashed)
	}
}

// TestPagedAllocatesOnlyTouchedPages is the pay-for-what-you-touch
// property: a run over a >2^24-key declaration that touches two
// distant neighborhoods allocates exactly the two pages they land on,
// and MemStats prices the directory plus those pages.
func TestPagedAllocatesOnlyTouchedPages(t *testing.T) {
	eng := New(Options{Workers: 1, MaxKey: flatKeyLimit + pageSize})
	if eng.State() != StatePaged {
		t.Fatalf("state %v, want paged", eng.State())
	}
	p1 := packet.New(0, 0, 0, packet.Transit)
	p2 := packet.New(1, 0, 0, packet.Transit)
	eng.Run(func(ctx *Ctx) {
		ctx.Emit(3, p1)
		ctx.Emit(uint64(flatKeyLimit)+7, p2)
	}, func(ctx *Ctx, a Arrival, round int) {}, nil)
	pages := 0
	for i := range eng.shards {
		pages += eng.shards[i].pageCount
	}
	if pages != 2 {
		t.Fatalf("touched 2 keys in distant pages, allocated %d pages", pages)
	}
	m := eng.MemStats()
	want := int64(len(eng.shards[0].pages))*8 + int64(pages)*pageSize*queueSlotBytes
	if m.TableBytes != want {
		t.Fatalf("TableBytes %d, want directory+2 pages = %d", m.TableBytes, want)
	}
}

// TestDenseRejectsOutOfRangeKey pins the encoding-bug guard: emitting
// a key at or beyond the declared MaxKey panics instead of corrupting
// the table — also when a memory budget degrades the run to the hashed
// layout, which would otherwise absorb the key silently.
func TestDenseRejectsOutOfRangeKey(t *testing.T) {
	for _, c := range []struct {
		name string
		opts Options
		want State
	}{
		{"flat", Options{Workers: 1, MaxKey: 8}, StateDense},
		{"degraded", Options{Workers: 1, MaxKey: 8, MemBudget: 1}, StateHashed},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := New(c.opts)
			if eng.State() != c.want {
				t.Fatalf("state %v, want %v", eng.State(), c.want)
			}
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range key did not panic")
				}
			}()
			eng.Run(func(ctx *Ctx) {
				ctx.Emit(8, packet.New(0, 0, 0, packet.Transit))
			}, func(ctx *Ctx, a Arrival, round int) {}, nil)
		})
	}
}

// higherIDFirst is a non-FIFO Options.Less: the sorted insert walks
// the chain instead of appending at the tail.
func higherIDFirst(a, b *packet.Packet) bool { return a.ID > b.ID }

// TestSteadyStateRoundIsAllocationFree asserts the engine's
// zero-allocation invariant: once the tables and buffers are warm, an
// entire sequential Run — injection, every drain and every radix push
// phase — performs zero heap allocations. Every layout preserves it:
// pages allocate on first touch and are retained, and the hashed
// layout's link index keeps its grown slots. A stepped run whose every
// round injects through one prebuilt closure, as Ranade's reply pass
// does, holds it too, and so does a sorted (Options.Less) run, the
// mesh's path. The handler records a module load at every hop, so the
// per-node load sums and their end-of-run fold are held to it as well.
func TestSteadyStateRoundIsAllocationFree(t *testing.T) {
	const npkts, length = 64, 512
	pkts := make([]*packet.Packet, npkts)
	for i := range pkts {
		pkts[i] = packet.New(i, 0, 0, packet.Transit)
	}
	inject := func(ctx *Ctx) {
		for i, p := range pkts {
			p.Delay = 0
			p.EnqueuedAt = 0
			ctx.Emit(uint64(i%8), p) // pile onto few links: real contention
		}
	}
	handle := func(ctx *Ctx, a Arrival, round int) {
		ctx.AddLoad(int(a.Key), 1)
		if next := a.Key + 1; next < length {
			ctx.Emit(next, a.P)
		}
	}
	var batch []*packet.Packet
	injectBatch := func(ctx *Ctx) {
		for i, p := range batch {
			p.Delay = 0
			ctx.Emit(uint64(i), p)
		}
	}
	for _, c := range []struct {
		name    string
		opts    Options
		want    State
		stepped bool
	}{
		{"flat", Options{Workers: 1, Seed: 7, MaxKey: length}, StateDense, false},
		{"paged", Options{Workers: 1, Seed: 7, MaxKey: length, MemBudget: pagedBudget}, StatePaged, false},
		{"hashed", Options{Workers: 1, Seed: 7, MaxKey: length, MemBudget: 1}, StateHashed, false},
		{"stepped", Options{Workers: 1, Seed: 7, MaxKey: length}, StateDense, true},
		{"sorted", Options{Workers: 1, Seed: 7, MaxKey: length, Less: higherIDFirst}, StateDense, false},
	} {
		eng := New(c.opts)
		run := func() { eng.Run(inject, handle, nil) }
		if c.stepped {
			// Eight packets join the same eight links every round until
			// all have entered, then the run steps until it drains.
			run = func() {
				eng.Start(handle, nil)
				for r := 0; ; r++ {
					batch = pkts[min(8*r, npkts):min(8*r+8, npkts)]
					if eng.Step(injectBatch) == 0 && len(batch) == 0 {
						break
					}
				}
				eng.Finish()
			}
		}
		// Warm-up: tables, pages, index slots and gather buffers reach
		// their high-water capacity.
		for i := 0; i < 50; i++ {
			run()
		}
		if eng.State() != c.want {
			t.Fatalf("%s: state %v, want %v", c.name, eng.State(), c.want)
		}
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Fatalf("%s: steady-state Run allocated %.1f objects, want 0", c.name, allocs)
		}
	}
}

// TestEngineRerunReturnsPerRunStats runs the same ten packets twice
// on one Engine: the second run must report that run alone — the same
// Stats as the first, with ten deliveries and a module load of ten —
// on the round loop's Run, on a stepped Start/Step/Finish run and on
// the event loop.
func TestEngineRerunReturnsPerRunStats(t *testing.T) {
	const npkts, length = 10, 4
	inject := func(ctx *Ctx) {
		for i := 0; i < npkts; i++ {
			ctx.Emit(0, packet.New(i, 0, length, packet.Transit))
		}
	}
	handle := func(ctx *Ctx, a Arrival, round int) {
		if at := int(a.Key) + 1; at < length {
			ctx.Emit(uint64(at), a.P)
			return
		}
		st := ctx.Stats()
		st.DeliveredRequests++
		st.Rounds = max(st.Rounds, round)
		ctx.AddLoad(length, 1)
	}
	run := func(eng *Engine) Stats { return eng.Run(inject, handle, nil) }
	stepped := func(eng *Engine) Stats {
		eng.Start(handle, nil)
		for live := eng.Step(inject); live > 0; live = eng.Step(nil) {
		}
		return eng.Finish()
	}
	for _, c := range []struct {
		name string
		opts Options
		run  func(*Engine) Stats
	}{
		{"round", Options{Workers: 2, MaxKey: length}, run},
		{"stepped", Options{Workers: 2, MaxKey: length}, stepped},
		{"event", Options{Workers: 1, MaxKey: length, Event: &EventOptions{}}, run},
	} {
		eng := New(c.opts)
		first := c.run(eng)
		if first.DeliveredRequests != npkts || first.MaxModuleLoad != npkts {
			t.Fatalf("%s: first run delivered %d with module load %d, want %d and %d",
				c.name, first.DeliveredRequests, first.MaxModuleLoad, npkts, npkts)
		}
		if second := c.run(eng); second != first {
			t.Fatalf("%s: second run on the same engine reported\n%+v\nwant the first run's\n%+v", c.name, second, first)
		}
	}
}

// TestStepInjectsBeforeDrain pins the stepping contract: arrivals a
// Step injects are pushed stamped with the previous round, so a packet
// injected onto an empty link crosses it in the same round with zero
// Delay, while one injected onto a busy link queues behind the packets
// already there, whatever its ID. Idle Steps still advance the round.
func TestStepInjectsBeforeDrain(t *testing.T) {
	type hop struct{ id, round, delay int }
	var hops []hop
	eng := New(Options{Workers: 1, MaxKey: 16})
	eng.Start(func(ctx *Ctx, a Arrival, round int) {
		hops = append(hops, hop{a.P.ID, round, a.P.Delay})
	}, nil)
	emit := func(key uint64, ids ...int) func(*Ctx) {
		return func(ctx *Ctx) {
			for _, id := range ids {
				ctx.Emit(key, packet.New(id, 0, 0, packet.Transit))
			}
		}
	}
	steps := []struct {
		inject func(*Ctx)
		live   int
	}{
		{emit(0, 4, 5), 1}, // round 1: 4 crosses link 0, 5 waits
		{func(ctx *Ctx) { // round 2: 5 crosses, 2 queues behind it; 3 crosses link 7
			emit(0, 2)(ctx)
			emit(7, 3)(ctx)
		}, 1},
		{nil, 0},        // round 3: 2 crosses
		{nil, 0},        // round 4: idle
		{emit(1, 9), 0}, // round 5: 9 crosses link 1
	}
	for i, s := range steps {
		if live := eng.Step(s.inject); live != s.live {
			t.Fatalf("step %d: live %d, want %d", i+1, live, s.live)
		}
	}
	want := []hop{{4, 1, 0}, {5, 2, 1}, {3, 2, 0}, {2, 3, 1}, {9, 5, 0}}
	if len(hops) != len(want) {
		t.Fatalf("hops %v, want %v", hops, want)
	}
	for i := range want {
		if hops[i] != want[i] {
			t.Fatalf("hops %v, want %v", hops, want)
		}
	}
	if st := eng.Finish(); st.MaxQueue != 2 {
		t.Fatalf("MaxQueue %d, want 2", st.MaxQueue)
	}
}

// TestPushClearsStaleReferences is the scratch-retention regression
// test: after a run, the retained push-phase buffers must hold no
// packet pointers, or delivered packets (and their recorded paths)
// stay reachable until the next run overwrites the slots.
func TestPushClearsStaleReferences(t *testing.T) {
	for _, maxKey := range []uint64{0, 64} {
		eng := New(Options{Workers: 1, MaxKey: maxKey})
		pkts := make([]*packet.Packet, 40)
		eng.Run(func(ctx *Ctx) {
			for i := range pkts {
				pkts[i] = packet.New(i, 0, 0, packet.Transit)
				ctx.Emit(uint64(i%4), pkts[i])
			}
		}, func(ctx *Ctx, a Arrival, round int) {
			if next := a.Key + 1; next < 64 {
				ctx.Emit(next, a.P)
			}
		}, nil)
		for i := range eng.shards {
			sh := &eng.shards[i]
			for _, a := range sh.inbox[:cap(sh.inbox)] {
				if a.P != nil {
					t.Fatalf("maxKey=%d: inbox retains packet %d", maxKey, a.P.ID)
				}
			}
			for _, a := range sh.scratch[:cap(sh.scratch)] {
				if a.P != nil {
					t.Fatalf("maxKey=%d: scratch retains packet %d", maxKey, a.P.ID)
				}
			}
			for _, out := range sh.ctx.out {
				for _, a := range out[:cap(out)] {
					if a.P != nil {
						t.Fatalf("maxKey=%d: out buffer retains packet %d", maxKey, a.P.ID)
					}
				}
			}
		}
	}
}

func TestCombinerAbsorbs(t *testing.T) {
	// Two same-address packets injected on one link: the combiner
	// absorbs the second, so only one arrival is ever delivered (with
	// the merge recorded), mirroring Theorem 2.6 combining.
	a := packet.New(0, 0, 1, packet.ReadRequest)
	b := packet.New(1, 0, 1, packet.ReadRequest)
	a.Addr, b.Addr = 7, 7
	eng := New(Options{Workers: 1})
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

func TestShardRandIsStablePerShard(t *testing.T) {
	// Same seed, same workers: shard streams replay identically.
	e1 := New(Options{Workers: 4, Seed: 9})
	e2 := New(Options{Workers: 4, Seed: 9})
	for i := range e1.shards {
		a, b := e1.shards[i].ctx.Rand(), e2.shards[i].ctx.Rand()
		for j := 0; j < 8; j++ {
			if a.Uint64() != b.Uint64() {
				t.Fatalf("shard %d stream not reproducible", i)
			}
		}
	}
	// Distinct shards see distinct streams.
	if len(e1.shards) > 1 {
		x := New(Options{Workers: 4, Seed: 9})
		if x.shards[0].ctx.Rand().Uint64() == x.shards[1].ctx.Rand().Uint64() {
			t.Fatal("shard 0 and 1 share a stream")
		}
	}
}

// checkEmptyLinks fails unless every slot in links is the zero Link.
func checkEmptyLinks(t *testing.T, what string, links []Link) {
	t.Helper()
	for i, l := range links {
		if l != (Link{}) {
			t.Fatalf("%s: slot %d holds %d packets after the run drained", what, i, l.n)
		}
	}
}

// TestDrainedRunLeavesEmptyLinks replaces the old queue free-list
// check: a completed run leaves every flat slot, page slot and
// link-index slot the zero Link, and every delivered packet unchained
// (Next == nil), on all three layouts. The dense and paged runs go
// through a Lease, so the second pass also checks a run on a kept
// engine, and the check reads the tables and pages of the engine the
// lease keeps.
func TestDrainedRunLeavesEmptyLinks(t *testing.T) {
	const npkts, starts, length = 200, 10, 60
	for _, c := range []struct {
		name string
		opts Options
		want State
	}{
		{"flat", Options{Workers: 2, Seed: 3, MaxKey: length}, StateDense},
		{"paged", Options{Workers: 2, Seed: 3, MaxKey: length, MemBudget: pagedBudget}, StatePaged},
		{"hashed", Options{Workers: 2, Seed: 3, MaxKey: length, MemBudget: 1}, StateHashed},
	} {
		lease := &Lease{}
		for pass := 0; pass < 2; pass++ {
			opts := c.opts
			opts.Lease = lease
			eng := New(opts)
			if eng.State() != c.want {
				t.Fatalf("%s: state %v, want %v", c.name, eng.State(), c.want)
			}
			pkts := make([]*packet.Packet, npkts)
			eng.Run(func(ctx *Ctx) {
				for i := range pkts {
					pkts[i] = packet.New(i, 0, 0, packet.Transit)
					ctx.Emit(uint64(i%starts), pkts[i])
				}
			}, func(ctx *Ctx, a Arrival, round int) {
				if next := a.Key + 1; next < length {
					ctx.Emit(next, a.P)
				}
			}, nil)
			what := fmt.Sprintf("%s pass %d", c.name, pass)
			for _, p := range pkts {
				if p.Next != nil {
					t.Fatalf("%s: delivered packet %d still chained", what, p.ID)
				}
			}
			if c.want != StateHashed && lease.eng != eng {
				t.Fatalf("%s: the lease does not keep the completed engine", what)
			}
			switch c.want {
			case StateDense:
				for i := range eng.shards {
					checkEmptyLinks(t, what+" flat table", eng.shards[i].table)
				}
			case StatePaged:
				pages := 0
				for i := range eng.shards {
					sh := &eng.shards[i]
					for _, pg := range append(slices.Clip(sh.pageFree), sh.pages...) {
						if pg != nil {
							checkEmptyLinks(t, what+" page", pg[:])
							pages++
						}
					}
				}
				if pages == 0 {
					t.Fatalf("%s: the kept engine holds no touched page", what)
				}
			default:
				for i := range eng.shards {
					ix := &eng.shards[i].links
					checkEmptyLinks(t, what+" link index", ix.links)
					if ix.n != 0 || slices.ContainsFunc(ix.keys, func(k uint64) bool { return k != 0 }) {
						t.Fatalf("%s: link index keeps %d entries or a stale key", what, ix.n)
					}
				}
			}
		}
	}
}

// TestLinkSlotSize pins a Link at queueSlotBytes, the per-slot price
// MemStats charges: a larger Link would make TableBytes understate the
// tables, and changing queueSlotBytes moves the table_bytes and
// b_per_node columns of every sweeps/expected artifact.
func TestLinkSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(Link{}); got != queueSlotBytes {
		t.Fatalf("unsafe.Sizeof(Link{}) = %d, want queueSlotBytes = %d: table_bytes and b_per_node in sweeps/expected/*.jsonl price slots at that size",
			got, queueSlotBytes)
	}
}

// mustPanic runs f and fails unless it panics with a message
// containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one mentioning %q", msg, want)
		}
	}()
	f()
}

// TestPushRejectsQueuedPacket: a packet emitted twice would sit in two
// chains at once and corrupt both, so the second push panics on both
// loops instead of silently duplicating the packet.
func TestPushRejectsQueuedPacket(t *testing.T) {
	for _, opts := range []Options{{Workers: 1, MaxKey: 4}, {Event: &EventOptions{}, MaxKey: 4}} {
		eng := New(opts)
		p := packet.New(5, 0, 0, packet.Transit)
		mustPanic(t, "packet 5 pushed while already queued", func() {
			eng.Run(func(ctx *Ctx) {
				ctx.Emit(0, p)
				ctx.Emit(1, p)
			}, func(*Ctx, Arrival, int) {}, nil)
		})
	}
}

// TestRoundOverflowPanics: a round or tick past math.MaxInt32 cannot
// be stamped into the int32 Packet.EnqueuedAt, so both loops refuse
// to reach it.
func TestRoundOverflowPanics(t *testing.T) {
	eng := New(Options{Workers: 1, MaxKey: 4})
	eng.Start(func(*Ctx, Arrival, int) {}, nil)
	eng.round = math.MaxInt32 - 1
	eng.Step(nil) // reaches round MaxInt32, which still fits
	mustPanic(t, "round 2147483648 overflows", func() { eng.Step(nil) })

	// The event loop: a packet arriving at tick MaxInt32 is stamped
	// fine, but its delivery lands one tick later.
	ev := New(Options{Event: &EventOptions{}, MaxKey: 4})
	loop := ev.newEventLoop()
	loop.now = math.MaxInt32
	ctx := &ev.shards[0].ctx
	ctx.Emit(0, packet.New(0, 0, 0, packet.Transit))
	loop.harvest(ctx, loop.now)
	mustPanic(t, "tick 2147483648 overflows", func() {
		loop.run(ctx, func(*Ctx, Arrival, int) {}, nil)
	})
}
