package engine

import (
	"testing"

	"pramemu/internal/packet"
)

// leaseLineRun is lineRunOpts plus the post-run MemStats, which the
// lease tests compare across cold and warm runs (a leased engine
// snapshots its pricing at release, so the call still answers).
func leaseLineRun(t *testing.T, opts Options, npkts, starts, length int) (Stats, [][2]int, MemStats) {
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
	for i, p := range pkts {
		if p.Arrived < 0 {
			t.Fatalf("workers=%d: packet %d never arrived", opts.Workers, i)
		}
	}
	traces := make([][2]int, npkts)
	for i, p := range pkts {
		traces[i] = [2]int{p.Hops, p.Delay}
	}
	return st, traces, eng.MemStats()
}

// TestWorkerEquivalenceLeasedEngine is the lease's defining property:
// a run on adopted buffers is bit-identical — Stats, per-packet
// traces and MemStats — to the same run on fresh allocations, for the
// dense and paged states at every worker count. Each shape runs three
// times through one lease (cold stock, then two warm adoptions), so
// the second adoption also checks that a released lease is clean.
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

// TestLeaseAdoptionReusesBuffers pins that a warm engine actually
// adopts the stocked table rather than allocating fresh — the reuse
// the lease exists for.
func TestLeaseAdoptionReusesBuffers(t *testing.T) {
	const length = 60
	lease := &Lease{}
	opts := Options{Workers: 1, Seed: 42, MaxKey: length, Lease: lease}
	_, _, _ = leaseLineRun(t, opts, 100, 10, length)
	if lease.shards == nil {
		t.Fatal("completed run left the lease unstocked")
	}
	stocked := &lease.shards[0].table[0]
	warm := New(opts)
	if warm.shards[0].table == nil {
		t.Fatal("warm engine did not adopt the stocked table")
	}
	if &warm.shards[0].table[0] != stocked {
		t.Fatal("warm engine allocated a fresh table despite a matching lease")
	}
	if lease.shards != nil {
		t.Fatal("adoption left the lease stocked (two engines could alias one table)")
	}
}

// TestLeaseShapeMismatchAllocatesFresh: a lease stocked at one shape
// serves a different shape by allocating fresh and restocking at
// release, so one lease adapts as a sweep walks cell shapes.
func TestLeaseShapeMismatchAllocatesFresh(t *testing.T) {
	const length = 60
	lease := &Lease{}
	dense := Options{Workers: 1, Seed: 42, MaxKey: length, Lease: lease}
	_, _, _ = leaseLineRun(t, dense, 100, 10, length)
	if lease.state != StateDense {
		t.Fatalf("lease stocked as %v, want dense", lease.state)
	}
	paged := Options{Workers: 1, Seed: 42, MaxKey: length, MemBudget: pagedBudget, Lease: lease}
	base := Options{Workers: 1, Seed: 42, MaxKey: length, MemBudget: pagedBudget}
	wantSt, _, wantMem := leaseLineRun(t, base, 100, 10, length)
	st, _, mem := leaseLineRun(t, paged, 100, 10, length)
	if st != wantSt || mem != wantMem {
		t.Fatalf("mismatched-shape leased run diverged:\nstats %+v vs %+v\nmem %+v vs %+v",
			st, wantSt, mem, wantMem)
	}
	if lease.state != StatePaged {
		t.Fatalf("release restocked lease as %v, want paged", lease.state)
	}
}

// TestLeasedEngineSecondRunFailsLoudly: Run donates its buffers to
// the lease when it completes, so reusing the engine must fail on nil
// tables instead of silently aliasing memory another engine may have
// adopted.
func TestLeasedEngineSecondRunFailsLoudly(t *testing.T) {
	eng := New(Options{Workers: 1, Seed: 42, MaxKey: 8, Lease: &Lease{}})
	p := packet.New(0, 0, 1, packet.Transit)
	deliver := func(ctx *Ctx, a Arrival, round int) { a.P.Arrived = round }
	eng.Run(func(ctx *Ctx) { ctx.Emit(0, p) }, deliver, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("second Run on a leased engine succeeded; want a loud failure")
		}
	}()
	eng.Run(func(ctx *Ctx) { ctx.Emit(0, p) }, deliver, nil)
}

// TestLeasePoolRecyclesByKey: Put then Get under one key returns the
// same lease; a different key gets a fresh one; the retention limit
// drops the oldest idle lease.
func TestLeasePoolRecyclesByKey(t *testing.T) {
	p := NewLeasePool(2)
	a, b, c := &Lease{}, &Lease{}, &Lease{}
	p.Put("ka", a)
	if got := p.Get("ka"); got != a {
		t.Fatal("Get did not return the idle lease under its key")
	}
	if got := p.Get("ka"); got == a {
		t.Fatal("Get returned a checked-out lease twice")
	}
	p.Put("ka", a)
	p.Put("kb", b)
	p.Put("kc", c) // over limit: ka's lease (oldest) is dropped
	if got := p.Get("ka"); got == a {
		t.Fatal("over-limit Put retained the oldest lease")
	}
	if got := p.Get("kb"); got != b {
		t.Fatal("over-limit Put dropped a lease it should have kept")
	}
	if got := p.Get("kc"); got != c {
		t.Fatal("the just-Put lease is gone")
	}
	p.Put("kd", nil) // nil-safe
}

// TestLeasePoolStaysBounded: steady Get/Put cycles under the limit
// keep at most limit idle entries, and a Put past the limit evicts the
// oldest idle lease, not the newest lease of some older key.
func TestLeasePoolStaysBounded(t *testing.T) {
	p := NewLeasePool(4)
	for i := 0; i < 10000; i++ {
		p.Put("k", p.Get("k"))
	}
	if n := len(p.idle); n > 4 {
		t.Fatalf("10000 Get/Put cycles left %d idle entries, want <= 4", n)
	}

	p = NewLeasePool(2)
	older, newer, other := &Lease{}, &Lease{}, &Lease{}
	p.Put("ka", older)
	p.Put("ka", newer)
	p.Put("kb", other) // full: older, the oldest idle lease, goes
	if got := p.Get("ka"); got != newer {
		t.Fatal("a Put past the limit did not keep the newer lease")
	}
	if got := p.Get("ka"); got == older {
		t.Fatal("a Put past the limit kept the oldest lease")
	}
	if got := p.Get("kb"); got != other {
		t.Fatal("the just-Put lease is gone")
	}
}
