package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustPanicContaining(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected a panic containing %q, got none", substr)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic = %v, want message containing %q", r, substr)
		}
	}()
	fn()
}

// Reuse-after-fire: once an event fires its node belongs to the pool;
// freeing it again must fail loudly with a generation mismatch.
func TestPoolReuseAfterFirePanics(t *testing.T) {
	e := NewEngine(1)
	ev := e.Schedule(1, func() {})
	e.RunAll()
	mustPanicContaining(t, "generation mismatch", func() { e.pool.put(ev.n) })
}

// Reuse-after-cancel: a cancelled node is freed when the queue drains
// past it; a second free is the same double-free.
func TestPoolReuseAfterCancelPanics(t *testing.T) {
	e := NewEngine(1)
	ev := e.Schedule(1, func() {})
	e.Cancel(ev)
	e.Run(10) // drains the lazily-cancelled node and recycles it
	mustPanicContaining(t, "generation mismatch", func() { e.pool.put(ev.n) })
}

// A free-list node that was mutated behind the pool's back is detected
// at get() time, before it can be handed to a second owner.
func TestPoolGetDetectsCorruptedFreeNode(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(1, func() {})
	e.RunAll()
	if len(e.pool.free) == 0 {
		t.Fatal("expected a recycled node on the free list")
	}
	e.pool.free[len(e.pool.free)-1].state = nodePending
	mustPanicContaining(t, "generation mismatch", func() { e.pool.get() })
}

// A handle claiming a generation its node has not reached is forged or
// corrupt; Cancel and Reschedule must refuse it loudly.
func TestAheadGenerationHandlePanics(t *testing.T) {
	e := NewEngine(1)
	ev := e.Schedule(1, func() {})
	forged := Event{n: ev.n, gen: ev.gen + 1}
	mustPanicContaining(t, "generation mismatch", func() { e.Cancel(forged) })
	mustPanicContaining(t, "generation mismatch", func() { e.Reschedule(forged, 5) })
}

// The load-bearing safety property of pooling: a stale handle whose
// node has been recycled for an unrelated event must not be able to
// touch the new occupant.
func TestStaleHandleCannotCancelRecycledNode(t *testing.T) {
	e := NewEngine(1)
	old := e.Schedule(1, func() {})
	e.RunAll() // fires; node goes back to the pool
	fired := false
	fresh := e.Schedule(2, func() { fired = true })
	if fresh.n != old.n {
		t.Fatal("pool did not recycle the node; test premise broken")
	}
	e.Cancel(old) // stale: one generation behind
	if !fresh.Pending() {
		t.Fatal("stale Cancel reached the recycled node's new occupant")
	}
	if ev := e.Reschedule(old, 9); ev.Valid() {
		t.Fatal("stale Reschedule returned a live handle")
	}
	e.RunAll()
	if !fired {
		t.Fatal("recycled event did not fire after stale-handle operations")
	}
}

// A callback cancelling its own (already firing) event is a stale
// no-op — the node was recycled before the callback ran.
func TestCancelSelfDuringDispatchIsNoOp(t *testing.T) {
	e := NewEngine(1)
	var self Event
	ran := false
	self = e.Schedule(1, func() {
		ran = true
		e.Cancel(self) // our own node, already freed: must be quiet
	})
	e.RunAll()
	if !ran {
		t.Fatal("event did not fire")
	}
}

// Double-cancel across a dispatch boundary: cancel, let the queue drain
// the node, cancel again once the node has a new occupant.
func TestDoubleCancelAcrossRecycle(t *testing.T) {
	e := NewEngine(1)
	ev := e.Schedule(1, func() { t.Fatal("cancelled event fired") })
	e.Cancel(ev)
	e.Cancel(ev) // immediate double-cancel: no-op
	e.Run(5)     // drain + recycle
	fired := false
	fresh := e.Schedule(6, func() { fired = true })
	e.Cancel(ev) // stale double-cancel against the recycled node
	e.RunAll()
	if !fired {
		t.Fatal("fresh event was killed by a stale double-cancel")
	}
	_ = fresh
}

// Steady-state churn must run entirely off the free list: after the
// first lap, no new nodes are allocated.
func TestPoolSteadyStateReuses(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 1000; i++ {
		e.After(Duration(i%8)*Microsecond, func() {})
		e.Step()
	}
	st := e.PoolStats()
	if st.Reuses < 900 {
		t.Fatalf("pool stats %+v: expected steady-state reuse, got %d reuses over 1000 events", st, st.Reuses)
	}
	if st.Allocs > 100 {
		t.Fatalf("pool stats %+v: %d allocations for a depth-8 churn loop", st, st.Allocs)
	}
}

// The alloc pool is the alloc-per-event reference: the free list stays
// empty and every get allocates, while handle-staleness semantics are
// unchanged (gen still bumps on put).
func TestAllocPoolAllocatesEveryEvent(t *testing.T) {
	e := withAllocPool(NewEngine(1))
	ev := e.Schedule(1, func() {})
	e.RunAll()
	if ev.Pending() {
		t.Fatal("fired event still pending in alloc-pool mode")
	}
	for i := 0; i < 100; i++ {
		e.After(Duration(i%8)*Microsecond, func() {})
		e.Step()
	}
	st := e.PoolStats()
	if st.Reuses != 0 {
		t.Fatalf("alloc-pool engine reused %d nodes", st.Reuses)
	}
	if st.Allocs != 101 {
		t.Fatalf("alloc-pool engine allocated %d nodes, want 101", st.Allocs)
	}
	if st.Free != 0 {
		t.Fatalf("alloc-pool engine retained %d free nodes", st.Free)
	}
}

// Sharing one pool across sequential engines (the replication runner's
// per-worker pattern) must be invisible in results.
func TestSharedPoolAcrossSequentialEnginesIsInvisible(t *testing.T) {
	run := func(pool *EventPool) []Time {
		e := NewEngineWithPool(9, pool)
		var fired []Time
		for i := 0; i < 200; i++ {
			i := i
			e.Schedule(Time((i*37)%50), func() { fired = append(fired, e.Now()+Time(i)) })
		}
		e.RunAll()
		return fired
	}
	pool := NewEventPool()
	a := run(pool) // cold pool
	b := run(pool) // warm pool: recycled nodes, bumped gens
	c := run(nil)  // private pool
	for i := range a {
		if a[i] != b[i] || a[i] != c[i] {
			t.Fatalf("dispatch %d diverged across pool configurations: cold %v, warm %v, private %v",
				i, a[i], b[i], c[i])
		}
	}
	if st := pool.Stats(); st.Reuses == 0 {
		t.Fatalf("shared pool was never reused: %+v", st)
	}
}

// Property: for any op stream, pool counters balance — every node is
// either free or live, puts never exceed gets, and the free list never
// holds a pending node.
func TestQuickPoolAccounting(t *testing.T) {
	f := func(ops []byte) bool {
		e := NewEngine(3)
		var live []Event
		for _, op := range ops {
			switch op % 3 {
			case 0:
				live = append(live, e.After(Duration(op)*Microsecond, func() {}))
			case 1:
				if len(live) > 0 {
					e.Cancel(live[int(op)%len(live)])
				}
			case 2:
				e.Step()
			}
		}
		e.RunAll()
		st := e.PoolStats()
		gets := st.Allocs + st.Reuses
		if st.Puts > gets {
			return false
		}
		ok := true
		e.pool.validate(func(string) { ok = false })
		return ok && int(gets-st.Puts) == 0 // everything drained back
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
