// Package runner is the parallel replication engine behind the
// experiment harness. It shards independent replications of a
// deterministic simulation across a bounded pool of goroutines and
// returns their results in replication-index order, so that any merge
// the caller performs over the result slice is itself deterministic.
//
// # Determinism contract
//
// Every simulation in this repository is single-threaded and seeded;
// parallelism therefore lives strictly *between* replications, never
// inside one. The runner guarantees that its output depends only on
// (n, fn) — never on the worker count, GOMAXPROCS, or goroutine
// scheduling — because each replication writes to its own slot of the
// result slice and the slice is handed back in index order. Merging
// results sequentially over that slice (histogram merge, summary merge,
// sample append) thus produces bit-identical output for workers=1 and
// workers=N. Tests in this package and in internal/core assert that
// equivalence byte-for-byte.
//
// Seeds for replications are derived with sim.DeriveSeed(base, index)
// (splitmix64), so replications never share an RNG stream and nearby
// base seeds cannot collide the way additive offsets can.
package runner

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Workers resolves a requested worker count: values <= 0 select
// GOMAXPROCS, anything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map runs fn(i) for every i in [0, n) on up to workers goroutines
// (Workers-resolved) and returns the results in index order. Work is
// distributed by an atomic counter, so stragglers do not idle the pool;
// result placement is by index, so the output is independent of which
// worker computed what. A panic in fn is re-raised on the caller's
// goroutine after the remaining workers drain.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out, _ := fanOut(context.Background(), workers, n, func(i int, _ *sim.EventPool) T { return fn(i) })
	return out
}

// MapSeeded is Map for seeded replications: replication i runs with
// seed sim.DeriveSeed(base, i).
func MapSeeded[T any](workers int, base uint64, n int, fn func(i int, seed uint64) T) []T {
	return Map(workers, n, func(i int) T {
		return fn(i, sim.DeriveSeed(base, uint64(i)))
	})
}

// MapSeededPooled is MapSeeded for replications that recycle event-node
// storage: each worker goroutine owns one sim.EventPool and hands it to
// every replication it executes (via kernel.Config.EventPool or
// sim.NewEngineWithPool), so consecutive replications on the same
// worker run at zero allocations per event against warm nodes.
//
// Pool ownership follows the same discipline as engines and RNGs:
// worker-local, never shared across goroutines. Which replications
// share a pool depends on work-stealing order — which is exactly why
// pools must be invisible in results (node identity and free-list
// order never enter the dispatch order). The determinism contract above
// is unchanged: output depends only on (base, n, fn), and the core
// golden tests run workers=1 vs workers=N to hold pooled replication to
// bit-identical figures.
func MapSeededPooled[T any](workers int, base uint64, n int, fn func(i int, seed uint64, pool *sim.EventPool) T) []T {
	out, _ := MapSeededPooledCtx(context.Background(), workers, base, n, fn)
	return out
}

// MapSeededPooledCtx is MapSeededPooled with cooperative cancellation:
// once ctx is done, workers stop picking up new replications and the
// call returns (nil, ctx.Err()). Replications already in flight finish
// first — a simulation run is not interruptible mid-run — so the call
// returns promptly after at most one replication per worker, never
// hangs, and never returns a partial result slice: results are all or
// nothing, because a partial merge would not be deterministic.
func MapSeededPooledCtx[T any](ctx context.Context, workers int, base uint64, n int, fn func(i int, seed uint64, pool *sim.EventPool) T) ([]T, error) {
	return fanOut(ctx, workers, n, func(i int, pool *sim.EventPool) T {
		return fn(i, sim.DeriveSeed(base, uint64(i)), pool)
	})
}

// fanOut is the one worker loop behind every entry point. It runs
// fn(i, pool) for every i in [0, n) on up to workers goroutines, each
// owning one sim.EventPool, and places results by index. Once ctx is
// done no new index is started and the call returns (nil, ctx.Err()).
// A panic in fn is re-raised on the caller's goroutine after the
// remaining workers drain, and takes precedence over cancellation.
func fanOut[T any](ctx context.Context, workers, n int, fn func(i int, pool *sim.EventPool) T) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	out := make([]T, n)
	if w == 1 {
		pool := sim.NewEventPool()
		for i := range out {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			out[i] = fn(i, pool)
		}
		return out, nil
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicVal any
	)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicVal == nil {
						panicVal = r
					}
					panicMu.Unlock()
				}
			}()
			pool := sim.NewEventPool()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i, pool)
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Do runs the given heterogeneous jobs on up to workers goroutines and
// returns when all have completed. Each job communicates through the
// variables it captures; the WaitGroup inside Map orders those writes
// before Do returns.
func Do(workers int, jobs ...func()) {
	Map(workers, len(jobs), func(i int) struct{} {
		jobs[i]()
		return struct{}{}
	})
}
