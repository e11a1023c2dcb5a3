package engine

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"pramemu/internal/packet"
)

// leaseLineRun is lineRunOpts plus the post-run MemStats, which the
// lease tests compare across cold and warm runs (an engine its lease
// keeps still answers until the next New re-arms it).
func leaseLineRun(t *testing.T, opts Options, npkts, starts, length int) (Stats, [][2]int, MemStats) {
	t.Helper()
	return runLine(t, New(opts), npkts, starts, length)
}

// runLine routes lineRunOpts's packets on a given engine, except that
// packet i leaves the line at node length - i%7, so the order in which
// a link's queue sends its packets moves their delays.
func runLine(t *testing.T, eng *Engine, npkts, starts, length int) (Stats, [][2]int, MemStats) {
	t.Helper()
	pkts := make([]*packet.Packet, npkts)
	handle := func(ctx *Ctx, a Arrival, round int) {
		p := a.P
		p.Hops++
		at := int(a.Key) + 1
		if at == p.Dst {
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
			pkts[i] = packet.New(i, i%starts, length-i%7, packet.Transit)
			ctx.Emit(uint64(i%starts), pkts[i])
		}
	}, handle, nil)
	for i, p := range pkts {
		if p.Arrived < 0 {
			t.Fatalf("workers=%d: packet %d never arrived", eng.Workers(), i)
		}
	}
	traces := make([][2]int, npkts)
	for i, p := range pkts {
		traces[i] = [2]int{p.Hops, p.Delay}
	}
	return st, traces, eng.MemStats()
}

// TestWorkerEquivalenceLeasedEngine is the lease's defining property:
// a run on a kept engine is bit-identical — Stats, per-packet traces
// and MemStats — to the same run on a new engine, for the dense and
// paged states at every worker count. Each shape runs three times
// through one lease (a cold build, then two kept engines), so the
// second rerun also checks that a kept engine is clean.
func TestWorkerEquivalenceLeasedEngine(t *testing.T) {
	const npkts, starts, length = 600, 40, 60
	shapes := []struct {
		name string
		opts Options
		want State
	}{
		{"dense", Options{Seed: 42, MaxKey: length}, StateDense},
		{"paged", Options{Seed: 42, MaxKey: length, MemBudget: pagedBudget}, StatePaged},
	}
	for _, shape := range shapes {
		for _, workers := range []int{1, 2, 4} {
			opts := shape.opts
			opts.Workers = workers
			baseSt, baseTr, baseMem := leaseLineRun(t, opts, npkts, starts, length)
			if baseMem.State != shape.want {
				t.Fatalf("%s workers=%d: state %v, want %v", shape.name, workers, baseMem.State, shape.want)
			}
			lease := &Lease{}
			for pass := 0; pass < 3; pass++ {
				opts.Lease = lease
				st, tr, mem := leaseLineRun(t, opts, npkts, starts, length)
				if st != baseSt {
					t.Fatalf("%s workers=%d pass %d: leased stats diverged:\n%+v\n%+v",
						shape.name, workers, pass, st, baseSt)
				}
				for i := range tr {
					if tr[i] != baseTr[i] {
						t.Fatalf("%s workers=%d pass %d: packet %d trace %v != %v",
							shape.name, workers, pass, i, tr[i], baseTr[i])
					}
				}
				if mem != baseMem {
					t.Fatalf("%s workers=%d pass %d: leased MemStats diverged:\n%+v\n%+v",
						shape.name, workers, pass, mem, baseMem)
				}
			}
		}
	}
}

// TestLeaseAdoptionReusesBuffers pins the reuse the lease exists for:
// New with a lease that keeps an engine of the same shape returns that
// engine, and takes it out of the lease, so two runs can never share
// one engine's tables. While kept, the engine pins nothing of its last
// run: no callbacks, comparator, context or module-load slices.
func TestLeaseAdoptionReusesBuffers(t *testing.T) {
	const length = 60
	lease := &Lease{}
	opts := Options{Workers: 1, Seed: 42, MaxKey: length, Lease: lease,
		Less: higherIDFirst, Context: context.Background()}
	cold := New(opts)
	runLine(t, cold, 100, 10, length)
	if lease.eng != cold {
		t.Fatal("a completed run did not hand its engine to the lease")
	}
	if cold.handle != nil || cold.less != nil || cold.ctx != nil || cold.shards[0].ctx.loads != nil {
		t.Fatal("the kept engine still pins its last run's handler, comparator, context or loads")
	}
	if warm := New(opts); warm != cold {
		t.Fatal("New built a new engine despite a kept engine of the same shape")
	}
	if lease.eng != nil {
		t.Fatal("New left the engine in the lease (two runs could share its tables)")
	}
}

// TestLeaseShapeMismatchAllocatesFresh: a lease that keeps an engine
// of one shape serves a different shape by building a new engine, and
// keeps that one once it completes, so one lease adapts as a sweep
// walks cell shapes.
func TestLeaseShapeMismatchAllocatesFresh(t *testing.T) {
	const length = 60
	lease := &Lease{}
	dense := Options{Workers: 1, Seed: 42, MaxKey: length, Lease: lease}
	_, _, _ = leaseLineRun(t, dense, 100, 10, length)
	kept := lease.eng
	if kept == nil || kept.state != StateDense {
		t.Fatal("the lease does not keep the dense engine")
	}
	paged := Options{Workers: 1, Seed: 42, MaxKey: length, MemBudget: pagedBudget, Lease: lease}
	base := Options{Workers: 1, Seed: 42, MaxKey: length, MemBudget: pagedBudget}
	wantSt, _, wantMem := leaseLineRun(t, base, 100, 10, length)
	st, _, mem := leaseLineRun(t, paged, 100, 10, length)
	if st != wantSt || mem != wantMem {
		t.Fatalf("mismatched-shape leased run diverged:\nstats %+v vs %+v\nmem %+v vs %+v",
			st, wantSt, mem, wantMem)
	}
	if lease.eng == kept || lease.eng == nil || lease.eng.state != StatePaged {
		t.Fatal("the lease does not keep the new paged engine")
	}
}

// TestLeasedEngineSecondRunFailsLoudly: Run hands a leased engine to
// its lease when it completes, so running the engine again without New
// must panic with a message naming the mistake, not run on an engine
// another New may have taken.
func TestLeasedEngineSecondRunFailsLoudly(t *testing.T) {
	eng := New(Options{Workers: 1, Seed: 42, MaxKey: 8, Lease: &Lease{}})
	p := packet.New(0, 0, 1, packet.Transit)
	deliver := func(ctx *Ctx, a Arrival, round int) { a.P.Arrived = round }
	eng.Run(func(ctx *Ctx) { ctx.Emit(0, p) }, deliver, nil)
	mustPanic(t, "engine: run on an engine its Lease keeps", func() {
		eng.Run(func(ctx *Ctx) { ctx.Emit(0, p) }, deliver, nil)
	})
}

// shardDraws draws four values from every shard's Ctx.Rand stream.
func shardDraws(eng *Engine) []uint64 {
	var out []uint64
	for i := range eng.shards {
		r := eng.shards[i].ctx.Rand()
		for j := 0; j < 4; j++ {
			out = append(out, r.Uint64())
		}
	}
	return out
}

// TestLeaseRearmMatchesColdRun is the re-arm contract: one lease
// serves a run sequence whose Seed, Less, Context, Workers and budget
// demotion change from run to run, and every run — Stats, per-packet
// traces, MemStats and the shard streams — equals the same run on a
// cold engine. Runs of one shape take the kept engine (Workers 3 and 4
// share four shards), so a per-run field arm failed to reset shows up
// as a divergence: a stale comparator reorders the queues, a stale
// canceled Context aborts the run, a stale seed moves the draws. Last,
// a kept engine must honour its own run's Context and MaxKey: a
// canceled context aborts the run, a smaller key bound of the same
// shape rejects a key the previous run emitted, and neither aborted
// run is kept.
func TestLeaseRearmMatchesColdRun(t *testing.T) {
	const npkts, starts, length = 300, 20, 60
	_, fifo, _ := leaseLineRun(t, Options{Workers: 1, MaxKey: length}, npkts, starts, length)
	_, sorted, _ := leaseLineRun(t, Options{Workers: 1, MaxKey: length, Less: higherIDFirst}, npkts, starts, length)
	if fmt.Sprint(fifo) == fmt.Sprint(sorted) {
		t.Fatal("the comparator moves no trace, so a stale one would go unseen")
	}
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	runs := []struct {
		opts Options
		kept bool // New must return the engine the previous run left
	}{
		{Options{Workers: 4, Seed: 1, MaxKey: length}, false},
		{Options{Workers: 3, Seed: 2, MaxKey: length, Less: higherIDFirst, Context: live}, true},
		{Options{Workers: 4, Seed: 3, MaxKey: length}, true},
		{Options{Workers: 4, Seed: 3, MaxKey: length, MemBudget: pagedBudget, Less: higherIDFirst}, false},
		{Options{Workers: 3, Seed: 4, MaxKey: length, MemBudget: pagedBudget}, true},
		{Options{Workers: 4, Seed: 5, MaxKey: length, Context: context.Background()}, false},
	}
	lease := &Lease{}
	var prev *Engine
	for i, r := range runs {
		if i == 2 {
			cancel() // a kept engine that still held live would abort
		}
		cold := New(r.opts)
		opts := r.opts
		opts.Lease = lease
		warm := New(opts)
		if (warm == prev) != r.kept {
			t.Fatalf("run %d: New returned the kept engine = %t, want %t", i, warm == prev, r.kept)
		}
		if warm.Workers() != r.opts.Workers || warm.degraded != cold.degraded {
			t.Fatalf("run %d: armed workers=%d degraded=%t, want %d and %t",
				i, warm.Workers(), warm.degraded, r.opts.Workers, cold.degraded)
		}
		if got, want := shardDraws(warm), shardDraws(cold); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("run %d: shard streams %v, want %v", i, got, want)
		}
		wantSt, wantTr, wantMem := runLine(t, cold, npkts, starts, length)
		st, tr, mem := runLine(t, warm, npkts, starts, length)
		if st != wantSt || mem != wantMem {
			t.Fatalf("run %d: leased run diverged:\nstats %+v vs %+v\nmem %+v vs %+v", i, st, wantSt, mem, wantMem)
		}
		for j := range tr {
			if tr[j] != wantTr[j] {
				t.Fatalf("run %d: packet %d trace %v != %v", i, j, tr[j], wantTr[j])
			}
		}
		prev = warm
	}
	for _, c := range []struct {
		opts Options
		want string
	}{
		{Options{Workers: 4, MaxKey: length, Context: live}, "context canceled"},
		{Options{Workers: 4, MaxKey: length - 3}, "outside the declared key space"},
	} {
		kept := New(Options{Workers: 4, MaxKey: length, Lease: lease})
		runLine(t, kept, npkts, starts, length)
		opts := c.opts
		opts.Lease = lease
		if New(opts) != kept {
			t.Fatalf("%q: New did not take the kept engine", c.want)
		}
		mustPanic(t, c.want, func() { runLine(t, kept, npkts, starts, length) })
		if lease.eng != nil {
			t.Fatalf("%q: the lease kept an aborted run's engine", c.want)
		}
	}
}

// TestLeasedRunIsAllocationFree: a warm leased New+Run takes the
// kept engine and reruns it, so the whole run — arming included —
// allocates nothing on dense and paged tables, at one and at two
// workers. (The handler records no module loads: a kept engine drops
// its load slices, so a run that records loads regrows them.)
func TestLeasedRunIsAllocationFree(t *testing.T) {
	const npkts, length = 64, 512
	pkts := make([]*packet.Packet, npkts)
	for i := range pkts {
		pkts[i] = packet.New(i, 0, 0, packet.Transit)
	}
	inject := func(ctx *Ctx) {
		for i, p := range pkts {
			p.Delay = 0
			ctx.Emit(uint64(i%8), p)
		}
	}
	handle := func(ctx *Ctx, a Arrival, round int) {
		if next := a.Key + 1; next < length {
			ctx.Emit(next, a.P)
		}
	}
	for _, c := range []struct {
		name string
		opts Options
		want State
	}{
		{"dense", Options{Seed: 7, MaxKey: length}, StateDense},
		{"paged", Options{Seed: 7, MaxKey: length, MemBudget: pagedBudget}, StatePaged},
	} {
		for _, workers := range []int{1, 2} {
			opts := c.opts
			opts.Workers = workers
			opts.Lease = &Lease{}
			run := func() { New(opts).Run(inject, handle, nil) }
			for i := 0; i < 20; i++ {
				run()
			}
			if s := opts.Lease.eng.State(); s != c.want {
				t.Fatalf("%s workers=%d: state %v, want %v", c.name, workers, s, c.want)
			}
			if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
				t.Fatalf("%s workers=%d: warm leased New+Run allocated %.1f objects, want 0",
					c.name, workers, allocs)
			}
		}
	}
}

// TestLeasePoolRecyclesByKey: Put then Get under one key returns the
// same lease; a different key gets a fresh one; a pool holding its
// 2×GOMAXPROCS limit drops the oldest idle lease on the next Put.
func TestLeasePoolRecyclesByKey(t *testing.T) {
	p := NewLeasePool()
	a := &Lease{}
	p.Put("ka", a)
	if got := p.Get("ka"); got != a {
		t.Fatal("Get did not return the idle lease under its key")
	}
	if got := p.Get("ka"); got == a {
		t.Fatal("Get returned a checked-out lease twice")
	}
	p.Put("ka", a)
	others := make([]*Lease, p.limit)
	for i := range others {
		others[i] = &Lease{}
		p.Put(fmt.Sprintf("k%d", i), others[i]) // the last is over limit: ka's lease (oldest) is dropped
	}
	if got := p.Get("ka"); got == a {
		t.Fatal("over-limit Put retained the oldest lease")
	}
	for i, l := range others {
		if got := p.Get(fmt.Sprintf("k%d", i)); got != l {
			t.Fatalf("over-limit Put dropped lease k%d, which it should have kept", i)
		}
	}
	p.Put("kd", nil) // nil-safe
}

// TestLeasePoolStaysBounded: steady Get/Put cycles keep one idle
// entry, and a Put past the 2×GOMAXPROCS limit evicts the oldest idle
// lease, not the newest lease of some older key.
func TestLeasePoolStaysBounded(t *testing.T) {
	p := NewLeasePool()
	if want := 2 * runtime.GOMAXPROCS(0); p.limit != want {
		t.Fatalf("pool limit %d, want 2×GOMAXPROCS = %d", p.limit, want)
	}
	for i := 0; i < 10000; i++ {
		p.Put("k", p.Get("k"))
	}
	if n := len(p.idle); n != 1 {
		t.Fatalf("10000 Get/Put cycles left %d idle entries, want 1", n)
	}

	p = NewLeasePool()
	older, newer := &Lease{}, &Lease{}
	p.Put("ka", older)
	p.Put("ka", newer)
	others := make([]*Lease, p.limit-1)
	for i := range others {
		others[i] = &Lease{}
		p.Put(fmt.Sprintf("kb%d", i), others[i]) // the last fills past the limit: older goes
	}
	if n := len(p.idle); n != p.limit {
		t.Fatalf("full pool holds %d idle leases, want %d", n, p.limit)
	}
	if got := p.Get("ka"); got != newer {
		t.Fatal("a Put past the limit did not keep the newer lease")
	}
	if got := p.Get("ka"); got == older {
		t.Fatal("a Put past the limit kept the oldest lease")
	}
	if got := p.Get(fmt.Sprintf("kb%d", len(others)-1)); got != others[len(others)-1] {
		t.Fatal("the just-Put lease is gone")
	}
}
