package sim

import (
	"fmt"
	"testing"
)

// churnEngine builds an engine for the churn matrix: the ladder or the
// reference heap, with the free-list pool or the alloc-per-event
// reference pool.
func churnEngine(heap, alloc bool) *Engine {
	e := NewEngine(1)
	if heap {
		withRefHeap(e)
	}
	if alloc {
		withAllocPool(e)
	}
	return e
}

// churnPrime fills e to a steady-state queue depth. Pending events are
// spread ~1 µs apart, the density the kernel cadence produces, so depth
// controls queue length without collapsing the calendar into a handful
// of over-full slots.
func churnPrime(e *Engine, depth int, fn func()) {
	for i := 0; i < depth; i++ {
		e.After(Duration(i%depth)*Microsecond, fn)
	}
}

// churnStep schedules one event and dispatches one, so the depth stays
// fixed.
func churnStep(e *Engine, i, depth int, fn func()) {
	e.After(Duration(i%depth)*Microsecond, fn)
	e.Step()
}

// BenchmarkEngineChurn is the queue/pool microbenchmark matrix:
// {ladder, heap} × {pooled, alloc} at shallow and deep steady-state
// queue depths. ns/op is the per-event engine overhead and allocs/op is
// the pooling contract (0 for pooled modes after warm-up, ≥1 for the
// alloc reference). The heap and alloc rows are the references the
// production ladder+pool configuration is measured against.
func BenchmarkEngineChurn(b *testing.B) {
	for _, q := range []struct {
		name string
		heap bool
	}{{"ladder", false}, {"heap", true}} {
		for _, p := range []struct {
			name  string
			alloc bool
		}{{"pooled", false}, {"alloc", true}} {
			for _, depth := range []int{16, 1024, 16384} {
				q, p, depth := q, p, depth
				b.Run(fmt.Sprintf("%s/%s/depth=%d", q.name, p.name, depth), func(b *testing.B) {
					e := churnEngine(q.heap, p.alloc)
					fn := func() {}
					churnPrime(e, depth, fn)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						churnStep(e, i, depth, fn)
					}
				})
			}
		}
	}
}

// TestChurnAllocsVsReference pins the deterministic half of the engine
// overhaul's acceptance bar: at depth 1024, pooled-ladder churn
// allocates at most half what the alloc-per-event heap reference (the
// engine before the ladder/pool overhaul) does.
func TestChurnAllocsVsReference(t *testing.T) {
	const depth = 1024
	allocs := func(heap, alloc bool) float64 {
		e := churnEngine(heap, alloc)
		fn := func() {}
		churnPrime(e, depth, fn)
		i := 0
		return testing.AllocsPerRun(1000, func() {
			churnStep(e, i, depth, fn)
			i++
		})
	}
	ladder, ref := allocs(false, false), allocs(true, true)
	if ref < 1 {
		t.Fatalf("heap+alloc reference allocated %.2f/op, want >= 1 (one node per event)", ref)
	}
	if ladder > 0.5*ref {
		t.Fatalf("pooled ladder churn allocates %.2f/op, more than 0.5x the reference's %.2f/op", ladder, ref)
	}
}
