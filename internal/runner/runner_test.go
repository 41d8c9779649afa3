package runner

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d", got)
	}
}

func TestMapIndexOrder(t *testing.T) {
	for _, w := range []int{1, 2, 4, 7, 16} {
		got := Map(w, 100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := Map(4, 0, func(i int) int { return i }); got != nil {
		t.Errorf("Map of 0 items = %v, want nil", got)
	}
	if got := Map(4, -1, func(i int) int { return i }); got != nil {
		t.Errorf("Map of -1 items = %v, want nil", got)
	}
}

func TestMapRunsEveryIndexOnce(t *testing.T) {
	var calls [257]atomic.Int32
	Map(5, len(calls), func(i int) struct{} {
		calls[i].Add(1)
		return struct{}{}
	})
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("index %d ran %d times", i, n)
		}
	}
}

// TestMapDeterministicAcrossWorkerCounts is the runner-level equivalence
// guarantee: a seeded computation fanned out over any worker count gives
// byte-identical results.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []uint64 {
		return MapSeeded(workers, 42, 64, func(i int, seed uint64) uint64 {
			rng := sim.NewRNG(seed)
			var acc uint64
			for j := 0; j < 1000; j++ {
				acc ^= rng.Uint64()
			}
			return acc
		})
	}
	want := run(1)
	for _, w := range []int{2, 4, 7} {
		if got := run(w); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d diverged from workers=1", w)
		}
	}
}

func TestMapSeededDistinctStreams(t *testing.T) {
	seeds := MapSeeded(4, 1, 100, func(i int, seed uint64) uint64 { return seed })
	seen := map[uint64]int{}
	for i, s := range seeds {
		if prev, dup := seen[s]; dup {
			t.Fatalf("replications %d and %d share seed %#x", prev, i, s)
		}
		seen[s] = i
	}
	// A different base seed must give a fully disjoint set.
	other := MapSeeded(4, 2, 100, func(i int, seed uint64) uint64 { return seed })
	for i, s := range other {
		if prev, dup := seen[s]; dup {
			t.Fatalf("base 2 replication %d collides with base 1 replication %d", i, prev)
		}
	}
}

// TestDeriveSeedBeatsAdditiveOffsets pins the failure mode the additive
// scheme had: base seeds K apart reusing each other's streams.
func TestDeriveSeedBeatsAdditiveOffsets(t *testing.T) {
	const k = 1000003
	// Old scheme: base=1 replication 2 == base=1+k replication 1.
	if (1 + 2*k) != (1+k)+1*k {
		t.Fatal("arithmetic sanity")
	}
	if sim.DeriveSeed(1, 2) == sim.DeriveSeed(1+k, 1) {
		t.Fatal("DeriveSeed reproduces the additive collision")
	}
}

// TestMapSeededPooledDeterministicAcrossWorkerCounts extends the
// equivalence guarantee to the pooled variant: per-worker event pools
// (recycled nodes, bumped generations) must be invisible in results for
// any worker count.
func TestMapSeededPooledDeterministicAcrossWorkerCounts(t *testing.T) {
	churn := func(seed uint64, pool *sim.EventPool) uint64 {
		e := sim.NewEngineWithPool(seed, pool)
		rng := sim.NewRNG(seed)
		var acc uint64
		for j := 0; j < 64; j++ {
			at := sim.Time(rng.Uint64() % 1_000_000)
			e.Schedule(at, func() { acc = acc*31 + uint64(e.Now()) })
		}
		e.RunAll()
		return acc
	}
	run := func(workers int) []uint64 {
		return MapSeededPooled(workers, 42, 48, func(i int, seed uint64, pool *sim.EventPool) uint64 {
			return churn(seed, pool)
		})
	}
	want := run(1)
	for _, w := range []int{2, 4, 7} {
		if got := run(w); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d diverged from workers=1", w)
		}
	}
	// Pooled and unpooled fan-outs must agree too.
	plain := MapSeeded(3, 42, 48, func(i int, seed uint64) uint64 {
		return churn(seed, sim.NewEventPool())
	})
	if !reflect.DeepEqual(plain, want) {
		t.Fatal("pooled fan-out diverged from private-pool fan-out")
	}
}

// TestMapSeededPooledPoolOwnership pins the ownership contract: one
// pool per worker goroutine (never more pools than workers), actually
// reused across the replications each worker runs.
func TestMapSeededPooledPoolOwnership(t *testing.T) {
	const n = 32
	for _, w := range []int{1, 4} {
		pools := MapSeededPooled(w, 7, n, func(i int, seed uint64, pool *sim.EventPool) *sim.EventPool {
			e := sim.NewEngineWithPool(seed, pool)
			for j := 0; j < 50; j++ {
				e.After(sim.Duration(j)*sim.Microsecond, func() {})
			}
			e.RunAll()
			return pool
		})
		distinct := map[*sim.EventPool]bool{}
		for i, p := range pools {
			if p == nil {
				t.Fatalf("workers=%d: replication %d got a nil pool", w, i)
			}
			distinct[p] = true
		}
		if len(distinct) > w {
			t.Fatalf("workers=%d: %d distinct pools, want at most one per worker", w, len(distinct))
		}
		reused := false
		for p := range distinct {
			if p.Stats().Reuses > 0 {
				reused = true
			}
		}
		if !reused {
			t.Fatalf("workers=%d: no pool recycled a node across %d replications", w, n)
		}
	}
}

func TestMapSeededPooledEmpty(t *testing.T) {
	got := MapSeededPooled(4, 1, 0, func(i int, seed uint64, pool *sim.EventPool) int { return i })
	if got != nil {
		t.Errorf("MapSeededPooled of 0 items = %v, want nil", got)
	}
}

// TestMapPanicPropagates: a panic in any replication is re-raised on
// the caller's goroutine, through every entry point and on both the
// serial and the goroutine path — including when the panicking
// replication has also cancelled the context, because a panic takes
// precedence over cancellation.
func TestMapPanicPropagates(t *testing.T) {
	boom := func(i int) int {
		if i == 7 {
			panic("boom")
		}
		return i
	}
	pooled := func(i int, seed uint64, pool *sim.EventPool) int { return boom(i) }
	entries := []struct {
		name string
		run  func(workers int)
	}{
		{"Map", func(w int) { Map(w, 16, boom) }},
		{"MapSeededPooled", func(w int) { MapSeededPooled(w, 1, 16, pooled) }},
		{"MapSeededPooledCtx", func(w int) {
			_, _ = MapSeededPooledCtx(context.Background(), w, 1, 16, pooled)
		}},
		{"MapSeededPooledCtx/cancelled", func(w int) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, _ = MapSeededPooledCtx(ctx, w, 1, 16, func(i int, seed uint64, pool *sim.EventPool) int {
				if i == 7 {
					cancel()
				}
				return boom(i)
			})
		}},
		{"Do", func(w int) {
			jobs := make([]func(), 16)
			for i := range jobs {
				jobs[i] = func() { boom(i) }
			}
			Do(w, jobs...)
		}},
	}
	for _, e := range entries {
		for _, w := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", e.name, w), func(t *testing.T) {
				defer func() {
					if r := recover(); r != "boom" {
						t.Fatalf("recovered %v, want boom", r)
					}
				}()
				e.run(w)
				t.Fatal("returned despite panic")
			})
		}
	}
}

func TestDoRunsAllJobs(t *testing.T) {
	var a, b, c int
	Do(3,
		func() { a = 1 },
		func() { b = 2 },
		func() { c = 3 },
	)
	if a != 1 || b != 2 || c != 3 {
		t.Fatalf("jobs incomplete: %d %d %d", a, b, c)
	}
}

// TestMapSeededPooledZeroAndNegativeItems: n <= 0 returns nil without
// spawning anything.
func TestMapSeededPooledZeroAndNegativeItems(t *testing.T) {
	calls := 0
	for _, n := range []int{0, -3} {
		got := MapSeededPooled(4, 1, n, func(i int, seed uint64, pool *sim.EventPool) int {
			calls++
			return i
		})
		if got != nil {
			t.Fatalf("n=%d: got %v, want nil", n, got)
		}
	}
	if calls != 0 {
		t.Fatalf("fn called %d times for empty inputs", calls)
	}
}

// TestMapSeededPooledWorkersExceedItems: more workers than items still
// runs every item exactly once, in index order, each with a live pool.
func TestMapSeededPooledWorkersExceedItems(t *testing.T) {
	const n = 3
	got := MapSeededPooled(16, 99, n, func(i int, seed uint64, pool *sim.EventPool) uint64 {
		if pool == nil {
			t.Error("nil pool")
		}
		if want := sim.DeriveSeed(99, uint64(i)); seed != want {
			t.Errorf("item %d: seed %#x, want %#x", i, seed, want)
		}
		return seed ^ uint64(i)
	})
	if len(got) != n {
		t.Fatalf("got %d results, want %d", len(got), n)
	}
	for i, v := range got {
		if want := sim.DeriveSeed(99, uint64(i)) ^ uint64(i); v != want {
			t.Errorf("result[%d] = %#x, want %#x", i, v, want)
		}
	}
}

// TestMapSeededPooledWorkerCountEquivalence: the merged result slice is
// bit-identical for workers 1 and N even when each replication drives a
// real engine through the shared pool.
func TestMapSeededPooledWorkerCountEquivalence(t *testing.T) {
	run := func(workers int) []uint64 {
		return MapSeededPooled(workers, 0x9001, 12, func(i int, seed uint64, pool *sim.EventPool) uint64 {
			e := sim.NewEngineWithPool(seed, pool)
			var sum uint64
			rng := e.RNG()
			for j := 0; j < 50; j++ {
				e.After(sim.Duration(1+rng.Intn(1000))*sim.Nanosecond, func() {
					sum += uint64(e.Now()) * (uint64(j) + 1)
				})
			}
			e.RunAll()
			return sum
		})
	}
	want := run(1)
	for _, w := range []int{2, 4, 7} {
		got := run(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result[%d] = %#x, want %#x", w, i, got[i], want[i])
			}
		}
	}
}
