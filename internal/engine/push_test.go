package engine

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"pramemu/internal/packet"
	"pramemu/internal/prng"
)

// The push paths the reference test drives: a drained round's push, a
// Step injection, and the event loop's arrival batch at a later tick
// and at tick 0 (its injection).
const (
	pathDrained = iota
	pathInject
	pathEvent
	pathEventTick0
	numPaths
)

// pushStamp is the round (or tick) the pushes under test run at.
const pushStamp = 5

// pushCase is one push-phase input: the packets already queued on each
// link, head first, and a batch of fresh arrivals in emission order,
// each with the shard whose context emits it. A packet's Src is its
// unique sequence number; IDs and Addrs repeat.
type pushCase struct {
	old   [][]*packet.Packet
	fresh []Arrival
	src   []int
}

// drawPushCase draws a case over a few keys, emitted from up to shards
// source contexts. Older packets carry stamps below stamp on a drained
// push, and up to stamp itself on an injection, which can land behind
// packets of its own stamp.
func drawPushCase(seed uint64, shards int, stamp int32, sameStamp bool) pushCase {
	src := prng.New(seed)
	keys := 1 + src.Intn(4)
	idRange := 1 + src.Intn(64)
	addrRange := 1 + src.Intn(6)
	seq := 0
	next := func() *packet.Packet {
		p := packet.New(src.Intn(idRange), seq, 0, packet.ReadRequest)
		p.Addr = uint64(src.Intn(addrRange))
		seq++
		return p
	}
	var c pushCase
	c.old = make([][]*packet.Packet, keys)
	for k := range c.old {
		at := max(0, stamp-3)
		for range src.Intn(4) {
			p := next()
			top := stamp - 1
			if sameStamp {
				top = stamp
			}
			at += int32(src.Intn(int(top-at) + 1))
			p.EnqueuedAt = at
			c.old[k] = append(c.old[k], p)
		}
	}
	for range src.Intn(48) {
		c.fresh = append(c.fresh, Arrival{uint64(src.Intn(keys)), next()})
		c.src = append(c.src, src.Intn(shards))
	}
	return c
}

// pushResult is what a push leaves: each link's chain as sequence
// numbers, the largest queue a push produced, and the merges as
// (host, child) sequence pairs, sorted.
type pushResult struct {
	chains   [][]int
	maxQueue int
	merges   [][2]int
}

// mergeOnAddr is the test combiner: it absorbs an arrival into the
// first queued packet with the same Addr and records the pair.
func mergeOnAddr(merges *[][2]int) Combiner {
	return func(ctx *Ctx, l *Link, a Arrival) bool {
		var host *packet.Packet
		l.Each(func(c *packet.Packet) bool {
			if c.Addr == a.P.Addr {
				host = c
				return false
			}
			return true
		})
		if host == nil {
			return false
		}
		*merges = append(*merges, [2]int{host.Src, a.P.Src})
		ctx.Stats().Merges++
		return true
	}
}

func sortMerges(m [][2]int) {
	slices.SortFunc(m, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
}

// refPush is the specification: gather the batch by source shard,
// sort it stably by (key, ID) with sort.SliceStable, and run the
// insertion loop the engine ran before it dropped the sort — open an
// empty link, else offer the arrival to the combiner, else append.
func refPush(c pushCase, combine bool) pushResult {
	queues := make([][]*packet.Packet, len(c.old))
	for k, olds := range c.old {
		queues[k] = slices.Clone(olds)
	}
	order := make([]int, len(c.fresh))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return c.src[order[i]] < c.src[order[j]] })
	sort.SliceStable(order, func(i, j int) bool {
		a, b := c.fresh[order[i]], c.fresh[order[j]]
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.P.ID < b.P.ID
	})
	var r pushResult
	for _, i := range order {
		a := c.fresh[i]
		q := queues[a.Key]
		if len(q) > 0 && combine {
			if j := slices.IndexFunc(q, func(h *packet.Packet) bool { return h.Addr == a.P.Addr }); j >= 0 {
				r.merges = append(r.merges, [2]int{q[j].Src, a.P.Src})
				continue
			}
		}
		queues[a.Key] = append(q, a.P)
		r.maxQueue = max(r.maxQueue, len(queues[a.Key]))
	}
	for _, q := range queues {
		var seqs []int
		for _, p := range q {
			seqs = append(seqs, p.Src)
		}
		r.chains = append(r.chains, seqs)
	}
	sortMerges(r.merges)
	return r
}

// chainSeqs lists a link's chain as sequence numbers, head first.
func chainSeqs(l *Link) []int {
	var seqs []int
	l.Each(func(p *packet.Packet) bool {
		seqs = append(seqs, p.Src)
		return true
	})
	return seqs
}

// runPush queues the case's older packets, then pushes its batch down
// one path, on flat or hashed tables, and reports what the engine left.
func runPush(t *testing.T, c pushCase, shards int, hashed, combine bool, path int) pushResult {
	t.Helper()
	var merges [][2]int
	var comb Combiner
	if combine {
		comb = mergeOnAddr(&merges)
	}
	keys := uint64(len(c.old))
	var r pushResult
	switch path {
	case pathDrained, pathInject:
		opts := Options{Workers: shards, MaxKey: keys}
		if hashed {
			opts.MemBudget = 1
		}
		e := New(opts)
		shardOfKey := func(k int) *shard {
			if hashed {
				return &e.shards[shardOf(uint64(k), e.mask)]
			}
			return &e.shards[uint64(k)&e.mask]
		}
		for k, olds := range c.old {
			sh := shardOfKey(k)
			l := sh.insert(uint64(k))
			if len(olds) > 0 {
				sh.open(uint64(k))
			}
			for _, p := range olds {
				l.push(p, nil)
			}
		}
		for i, a := range c.fresh {
			e.shards[c.src[i]].ctx.Emit(a.Key, a.P)
		}
		for s := range e.shards {
			if path == pathInject {
				e.pushShard(s, pushStamp, comb, true)
			} else {
				e.pushShard(s, pushStamp, comb, false)
			}
		}
		live := 0
		for k := range c.old {
			l := shardOfKey(k).link(uint64(k))
			r.chains = append(r.chains, chainSeqs(l))
			if l.n > 0 {
				live++
			}
		}
		for i := range e.shards {
			r.maxQueue = max(r.maxQueue, e.shards[i].ctx.stats.MaxQueue)
		}
		if e.live() != live {
			t.Fatalf("active lists hold %d keys, %d links are live", e.live(), live)
		}
	default:
		stamp := int64(pushStamp)
		if path == pathEventTick0 {
			stamp = 0
		}
		e := New(Options{Event: &EventOptions{}, MaxKey: keys})
		ev := e.newEventLoop()
		ctx := &e.shards[0].ctx
		for k, olds := range c.old {
			l := ev.link(uint64(k))
			for _, p := range olds {
				l.q.push(p, nil)
			}
		}
		ev.now, ev.kind = stamp, evArrive
		ev.arrive(ctx, slices.Clone(c.fresh), stamp, comb)
		for k := range c.old {
			r.chains = append(r.chains, chainSeqs(&ev.link(uint64(k)).q))
		}
		r.maxQueue = ctx.stats.MaxQueue
	}
	sortMerges(merges)
	r.merges = merges
	return r
}

// checkPush runs one case down one path and fails on any difference
// from the reference: chains, MaxQueue, merges, and a combined-away
// packet left chained.
func checkPush(t *testing.T, seed uint64, shards int, hashed, combine bool, path int) {
	t.Helper()
	stamp := int32(pushStamp)
	if path == pathEventTick0 {
		stamp = 0
	}
	// Injections come through shard 0's context, and the event loop
	// has one.
	sources := 1
	if path == pathDrained {
		sources = shards
	}
	c := drawPushCase(seed, sources, stamp, path == pathInject || path == pathEventTick0)
	want := refPush(c, combine)
	got := runPush(t, c, shards, hashed, combine, path)
	what := fmt.Sprintf("seed %d shards %d hashed %v combine %v path %d", seed, shards, hashed, combine, path)
	for k := range want.chains {
		if !slices.Equal(got.chains[k], want.chains[k]) {
			t.Fatalf("%s: link %d chain %v, want %v", what, k, got.chains[k], want.chains[k])
		}
	}
	if got.maxQueue != want.maxQueue {
		t.Fatalf("%s: MaxQueue %d, want %d", what, got.maxQueue, want.maxQueue)
	}
	if !slices.Equal(got.merges, want.merges) {
		t.Fatalf("%s: merges %v, want %v", what, got.merges, want.merges)
	}
	for _, a := range c.fresh {
		if slices.ContainsFunc(want.merges, func(m [2]int) bool { return m[1] == a.P.Src }) && a.P.Next != nil {
			t.Fatalf("%s: combined-away packet %d is still chained", what, a.P.Src)
		}
	}
}

// TestPushMatchesSortedReference is the seeded run of the push
// property: on every path, at 1, 2 and 4 shards, on flat and hashed
// tables, with and without a combiner, the sort-free push leaves the
// chains, MaxQueue and merges the sorted insertion loop does.
func TestPushMatchesSortedReference(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		for _, shards := range []int{1, 2, 4} {
			for _, combine := range []bool{false, true} {
				for path := 0; path < numPaths; path++ {
					checkPush(t, seed, shards, seed%2 == 1, combine, path)
				}
			}
		}
	}
}

// FuzzPushMatchesSortedReference is TestPushMatchesSortedReference
// over fuzzed seeds and settings: layout picks 1, 2 or 4 shards (layout
// % 3) on flat or hashed tables (layout / 3 % 2).
func FuzzPushMatchesSortedReference(f *testing.F) {
	f.Add(uint64(1991), uint8(0), true, uint8(pathDrained))
	f.Add(uint64(7), uint8(5), true, uint8(pathInject))
	f.Add(uint64(42), uint8(1), false, uint8(pathEvent))
	f.Add(uint64(3), uint8(4), true, uint8(pathEventTick0))
	f.Fuzz(func(t *testing.T, seed uint64, layout uint8, combine bool, path uint8) {
		checkPush(t, seed, 1<<(layout%3), layout/3%2 == 1, combine, int(path%numPaths))
	})
}

// pushIDs pushes one batch onto link 0 of a fresh one-shard engine,
// after queueing old (stamped one round earlier), and returns the
// chain's IDs.
func pushIDs(t *testing.T, old []int, fresh []int, combine Combiner) []int {
	t.Helper()
	e := New(Options{Workers: 1, MaxKey: 1})
	sh := &e.shards[0]
	l := sh.insert(0)
	if len(old) > 0 {
		sh.open(0)
	}
	for _, id := range old {
		p := packet.New(id, 0, 0, packet.Transit)
		p.EnqueuedAt = pushStamp - 1
		l.push(p, nil)
	}
	for _, id := range fresh {
		sh.ctx.Emit(0, packet.New(id, 0, 0, packet.Transit))
	}
	e.pushShard(0, pushStamp, combine, false)
	var ids []int
	l.Each(func(p *packet.Packet) bool {
		ids = append(ids, p.ID)
		return true
	})
	return ids
}

// TestPushDescendingIDsOntoOneLink: a batch emitted in descending ID
// order onto one link queues in ascending order, with or without a
// combiner (which finds nothing to merge).
func TestPushDescendingIDsOntoOneLink(t *testing.T) {
	never := func(*Ctx, *Link, Arrival) bool { return false }
	for _, comb := range []Combiner{nil, never} {
		if got := pushIDs(t, nil, []int{9, 7, 5, 3, 1}, comb); !slices.Equal(got, []int{1, 3, 5, 7, 9}) {
			t.Fatalf("combine=%v: chain %v, want [1 3 5 7 9]", comb != nil, got)
		}
	}
}

// TestPushBehindOlderPackets: fresh arrivals join behind every older
// packet of their link, whatever the IDs, and among themselves by ID.
func TestPushBehindOlderPackets(t *testing.T) {
	never := func(*Ctx, *Link, Arrival) bool { return false }
	for _, comb := range []Combiner{nil, never} {
		got := pushIDs(t, []int{50, 10, 30}, []int{20, 5, 60}, comb)
		if want := []int{50, 10, 30, 5, 20, 60}; !slices.Equal(got, want) {
			t.Fatalf("combine=%v: chain %v, want %v", comb != nil, got, want)
		}
	}
}

// TestPushInjectionBehindSameStamp: a Step injection is stamped with
// the round the previous push used, so it can meet packets of its own
// stamp on a link; it must queue behind them even with a lower ID.
func TestPushInjectionBehindSameStamp(t *testing.T) {
	var order []int
	eng := New(Options{Workers: 1, MaxKey: 2})
	eng.Start(func(ctx *Ctx, a Arrival, round int) {
		if a.Key == 0 {
			ctx.Emit(1, a.P) // packet 10 reaches link 1 in round 1's push
			return
		}
		order = append(order, a.P.ID)
	}, nil)
	eng.Step(func(ctx *Ctx) { ctx.Emit(0, packet.New(10, 0, 0, packet.Transit)) })
	// Round 1's push stamped packet 10 on link 1 with round 1; this
	// injection is stamped round 1 too, and packet 3 must wait behind it.
	for live := eng.Step(func(ctx *Ctx) { ctx.Emit(1, packet.New(3, 0, 0, packet.Transit)) }); live > 0; live = eng.Step(nil) {
	}
	eng.Finish()
	if !slices.Equal(order, []int{10, 3}) {
		t.Fatalf("link 1 sent %v, want [10 3]", order)
	}
}

// TestPushEventBatchCombines: an event-loop arrival batch meeting a
// queued packet and carrying two more same-address packets in
// descending ID order combines both into the queued one; a different
// address queues behind it.
func TestPushEventBatchCombines(t *testing.T) {
	e := New(Options{Event: &EventOptions{}, MaxKey: 1})
	ev := e.newEventLoop()
	ctx := &e.shards[0].ctx
	host := packet.New(40, 0, 0, packet.ReadRequest)
	host.Addr, host.EnqueuedAt = 7, 2
	ev.link(0).q.push(host, nil)
	mk := func(id int, addr uint64) Arrival {
		p := packet.New(id, 0, 0, packet.ReadRequest)
		p.Addr = addr
		return Arrival{0, p}
	}
	var merges [][2]int
	comb := func(ctx *Ctx, l *Link, a Arrival) bool {
		var h *packet.Packet
		l.Each(func(c *packet.Packet) bool {
			if c.Addr == a.P.Addr {
				h = c
				return false
			}
			return true
		})
		if h == nil {
			return false
		}
		merges = append(merges, [2]int{h.ID, a.P.ID})
		ctx.Stats().Merges++
		return true
	}
	ev.now, ev.kind = 3, evArrive
	ev.arrive(ctx, []Arrival{mk(9, 7), mk(8, 1), mk(4, 7)}, 3, comb)
	if want := [][2]int{{40, 4}, {40, 9}}; !slices.Equal(merges, want) {
		t.Fatalf("merges %v, want %v (in ID order, into the queued packet)", merges, want)
	}
	var ids []int
	ev.link(0).q.Each(func(p *packet.Packet) bool {
		ids = append(ids, p.ID)
		return true
	})
	if !slices.Equal(ids, []int{40, 8}) || ctx.stats.MaxQueue != 2 || ctx.stats.Merges != 2 {
		t.Fatalf("chain %v MaxQueue %d Merges %d, want [40 8], 2 and 2", ids, ctx.stats.MaxQueue, ctx.stats.Merges)
	}
}

// TestPushRejectsCombinerWithLess: the combining push replays links in
// FIFO order, so a run that pairs a Combiner with Options.Less panics
// on both loops.
func TestPushRejectsCombinerWithLess(t *testing.T) {
	comb := func(*Ctx, *Link, Arrival) bool { return false }
	eng := New(Options{Workers: 1, MaxKey: 4, Less: higherIDFirst})
	mustPanic(t, "cannot run with Options.Less", func() { eng.Start(func(*Ctx, Arrival, int) {}, comb) })
	ev := New(Options{Event: &EventOptions{}, MaxKey: 4, Less: higherIDFirst})
	mustPanic(t, "cannot run with Options.Less", func() { ev.Run(nil, func(*Ctx, Arrival, int) {}, comb) })
}

// TestPushLongInjectionIsNotQuadratic injects 8192 packets in random
// ID order onto one link and counts every ID comparison the push
// makes, in the batch sort and in the chain inserts. An O(n log n)
// push stays within 2 n log2 n of them (about 213k); an ordered insert
// of each packet into the chain would make about n²/4 (16.8M). The
// count is deterministic, so the bound does not depend on the host.
func TestPushLongInjectionIsNotQuadratic(t *testing.T) {
	const n = 8192
	calls := 0
	defer func(l func(a, b *packet.Packet) bool, c func(x, y Arrival) int) { fifoLess, byID = l, c }(fifoLess, byID)
	less, cmpID := fifoLess, byID
	fifoLess = func(a, b *packet.Packet) bool { calls++; return less(a, b) }
	byID = func(x, y Arrival) int { calls++; return cmpID(x, y) }

	ids := prng.New(5).Perm(n)
	var order []int
	eng := New(Options{Workers: 1, MaxKey: 1})
	eng.Run(func(ctx *Ctx) {
		for _, id := range ids {
			ctx.Emit(0, packet.New(id, 0, 0, packet.Transit))
		}
	}, func(ctx *Ctx, a Arrival, round int) { order = append(order, a.P.ID) }, nil)
	for i, id := range order {
		if id != i {
			t.Fatalf("position %d sent packet %d, want %d", i, id, i)
		}
	}
	if len(order) != n {
		t.Fatalf("sent %d packets, want %d", len(order), n)
	}
	if limit := int(2 * n * math.Log2(n)); calls == 0 || calls > limit {
		t.Fatalf("injecting %d packets onto one link made %d ID comparisons, want 1..%d (O(n log n))", n, calls, limit)
	}
}

// BenchmarkPush prices one push of 8192 arrivals from one source
// context: narrow is route-mode traffic with keys below 2^20; ties
// draws keys from 5n values, so about 17 % of arrivals share a link,
// the most tied traffic measured on the bench workloads, with and
// without a combiner that merges equal addresses; onekey-inject is a
// Step injection of the whole batch onto one link in random ID order,
// the batch the injection sort exists for.
func BenchmarkPush(b *testing.B) {
	const n = 8192
	for _, c := range []struct {
		name            string
		keys            uint64
		inject, combine bool
	}{
		{"narrow", 1 << 20, false, false},
		{"ties", 5 * n, false, false},
		{"ties-combine", 5 * n, false, true},
		{"onekey-inject", 1, true, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			src := prng.New(9)
			batch := make([]Arrival, n)
			for i := range batch {
				p := packet.New(src.Intn(1<<20), 0, 0, packet.ReadRequest)
				p.Addr = uint64(src.Intn(4))
				batch[i] = Arrival{src.Uint64n(c.keys), p}
			}
			var comb Combiner
			if c.combine {
				comb = func(ctx *Ctx, l *Link, a Arrival) bool {
					merged := false
					l.Each(func(q *packet.Packet) bool {
						merged = q.Addr == a.P.Addr
						return !merged
					})
					return merged
				}
			}
			e := New(Options{Workers: 1, MaxKey: c.keys})
			sh := &e.shards[0]
			b.ReportAllocs()
			for b.Loop() {
				sh.ctx.out[0] = append(sh.ctx.out[0][:0], batch...)
				e.pushShard(0, 1, comb, c.inject)
				for _, key := range sh.active {
					for l := sh.link(key); l.n > 0; {
						l.pop()
					}
				}
				sh.active = sh.active[:0]
			}
		})
	}
}
