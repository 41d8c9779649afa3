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
// freeing it again must fail loudly as a double free.
func TestPoolReuseAfterFirePanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(1, func() {})
	e.RunAll()
	if len(e.pool.free) != 1 {
		t.Fatalf("free list holds %d nodes after one fire, want 1", len(e.pool.free))
	}
	mustPanicContaining(t, "double free", func() { e.pool.put(e.pool.free[0]) })
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
	mustPanicContaining(t, "mutated after release", func() { e.pool.get() })
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
// empty and every get allocates, while put still checks and clears the
// node it is handed.
func TestAllocPoolAllocatesEveryEvent(t *testing.T) {
	e := withAllocPool(NewEngine(1))
	e.Schedule(1, func() {})
	e.RunAll()
	if e.Pending() != 0 || e.pool.puts != 1 {
		t.Fatalf("alloc-pool engine: %d pending, %d puts after one fire", e.Pending(), e.pool.puts)
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
	b := run(pool) // warm pool: recycled nodes
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
// holds a pending node. Timer traffic never touches the pool.
func TestQuickPoolAccounting(t *testing.T) {
	f := func(ops []byte) bool {
		e := NewEngine(3)
		var tm Timer
		tm.Init(EventTag{}, false, func() {})
		for _, op := range ops {
			switch op % 3 {
			case 0:
				e.After(Duration(op)*Microsecond, func() {})
			case 1:
				e.ArmTimer(&tm, e.Now().Add(Duration(op)*Microsecond))
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
