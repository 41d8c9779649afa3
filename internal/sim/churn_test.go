package sim

import (
	"fmt"
	"testing"
)

// churnEngine builds an engine for the churn matrix: with the free-list
// pool, or with the alloc-per-event reference pool.
func churnEngine(alloc bool) *Engine {
	e := NewEngine(1)
	if alloc {
		withAllocPool(e)
	}
	return e
}

// churnPrime fills e to a steady-state queue depth. Pending events are
// spread ~1 µs apart, the density the kernel cadence produces.
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

// BenchmarkEngineChurn is the one-shot queue/pool microbenchmark
// matrix: {pooled, alloc} at shallow and deep steady-state queue
// depths. ns/op is the per-event engine overhead and allocs/op is the
// pooling contract (0 for the pooled mode after warm-up, ≥1 for the
// alloc reference).
func BenchmarkEngineChurn(b *testing.B) {
	for _, p := range []struct {
		name  string
		alloc bool
	}{{"pooled", false}, {"alloc", true}} {
		for _, depth := range []int{16, 1024, 16384} {
			p, depth := p, depth
			b.Run(fmt.Sprintf("%s/depth=%d", p.name, depth), func(b *testing.B) {
				e := churnEngine(p.alloc)
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

// TestChurnAllocsVsReference pins the deterministic half of the pool's
// acceptance bar: at depth 1024, pooled churn allocates at most half
// what the alloc-per-event reference does.
func TestChurnAllocsVsReference(t *testing.T) {
	const depth = 1024
	allocs := func(alloc bool) float64 {
		e := churnEngine(alloc)
		fn := func() {}
		churnPrime(e, depth, fn)
		i := 0
		return testing.AllocsPerRun(1000, func() {
			churnStep(e, i, depth, fn)
			i++
		})
	}
	pooled, ref := allocs(false), allocs(true)
	if ref < 1 {
		t.Fatalf("alloc-pool reference allocated %.2f/op, want >= 1 (one node per event)", ref)
	}
	if pooled > 0.5*ref {
		t.Fatalf("pooled churn allocates %.2f/op, more than 0.5x the reference's %.2f/op", pooled, ref)
	}
}
