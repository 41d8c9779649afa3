package runner

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestMapSeededPooledCtxEquivalence: with a never-cancelled context the
// cancellable variant must produce byte-identical output to
// MapSeededPooled for every worker count — same derived seeds, same
// index order.
func TestMapSeededPooledCtxEquivalence(t *testing.T) {
	fn := func(i int, seed uint64, pool *sim.EventPool) [2]uint64 {
		if pool == nil {
			t.Error("nil pool handed to replication")
		}
		return [2]uint64{uint64(i), seed}
	}
	want := MapSeededPooled(1, 99, 23, fn)
	for _, workers := range []int{1, 2, 4, 7} {
		got, err := MapSeededPooledCtx(context.Background(), workers, 99, 23, fn)
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results diverge from MapSeededPooled", workers)
		}
	}
}

// TestMapSeededPooledCtxCancel: cancelling mid-run returns ctx.Err()
// promptly (no hang) and no partial result slice; replications already
// in flight finish, unstarted ones never run.
func TestMapSeededPooledCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	release := make(chan struct{})
	done := make(chan struct{})
	var out []int
	var err error
	go func() {
		defer close(done)
		out, err = MapSeededPooledCtx(ctx, 2, 1, 64, func(i int, seed uint64, pool *sim.EventPool) int {
			if started.Add(1) == 2 {
				cancel() // cancel while replications are in flight
			}
			<-release
			return i
		})
	}()
	// Unblock the two in-flight replications after the cancel landed.
	for started.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled map did not return (hang)")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatalf("cancelled map returned a partial result slice (%d entries)", len(out))
	}
	if n := started.Load(); n >= 64 {
		t.Fatalf("all %d replications ran despite cancellation", n)
	}
}

// TestMapSeededPooledCtxCancelledBeforeStart: a context that is already
// done never runs fn, on both the serial and the pooled path.
func TestMapSeededPooledCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		ran := false
		out, err := MapSeededPooledCtx(ctx, workers, 1, 8, func(i int, seed uint64, pool *sim.EventPool) int {
			ran = true
			return i
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if out != nil || ran {
			t.Fatalf("workers=%d: fn ran under a dead context", workers)
		}
	}
}
