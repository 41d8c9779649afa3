package sim

import (
	"testing"
)

// ladderOf digs out the engine's ladder queue; tests using it assert
// implementation structure, not just behaviour.
func ladderOf(t *testing.T, e *Engine) *ladderQueue {
	t.Helper()
	lq, ok := e.q.(*ladderQueue)
	if !ok {
		t.Fatalf("engine queue is %T, want *ladderQueue", e.q)
	}
	return lq
}

// validateLadder runs the queue's own invariant audit and fails the
// test (instead of panicking) on the first violation.
func validateLadder(t *testing.T, e *Engine) {
	t.Helper()
	e.q.validate(func(msg string) { t.Fatalf("ladder invariant: %s", msg) })
}

func TestLadderFarOverflowRoundTrip(t *testing.T) {
	// Window is 256 slots of 2^16 ns ≈ 16.8 ms; schedule well past it so
	// events park in the far heap, then drain in global order.
	e := NewEngine(1)
	var fired []Time
	times := []Time{
		Time(40 * Millisecond), Time(5 * Microsecond), Time(90 * Millisecond),
		Time(17 * Millisecond), Time(200 * Millisecond), Time(16 * Millisecond),
	}
	for _, at := range times {
		at := at
		e.Schedule(at, func() { fired = append(fired, e.Now()) })
	}
	lq := ladderOf(t, e)
	if lq.far.len() == 0 {
		t.Fatal("no events reached the far heap; spread the schedule out further")
	}
	validateLadder(t, e)
	e.RunAll()
	want := []Time{Time(5 * Microsecond), Time(16 * Millisecond), Time(17 * Millisecond),
		Time(40 * Millisecond), Time(90 * Millisecond), Time(200 * Millisecond)}
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired[%d] = %v, want %v", i, fired[i], want[i])
		}
	}
}

func TestLadderWindowWrapLap(t *testing.T) {
	// A periodic timer stepping ~one slot per firing laps the circular
	// bucket array several times; order and invariants must hold
	// throughout. 1500 steps of 65 µs ≈ 96 ms ≈ 5.8 window laps.
	e := NewEngine(1)
	const steps = 1500
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < steps {
			e.After(65*Microsecond, tick)
		}
		if count%100 == 0 {
			validateLadder(t, e)
		}
	}
	e.After(0, tick)
	e.RunAll()
	if count != steps {
		t.Fatalf("ticked %d times, want %d", count, steps)
	}
}

func TestLadderRewindAfterIdleRun(t *testing.T) {
	// Run(until) with only a far-future event peeks, which slides the
	// window to that event's slot. Scheduling behind the window start
	// afterwards must trigger a rewind, not a mis-ordered dispatch.
	e := NewEngine(1)
	var fired []Time
	e.Schedule(Time(100*Millisecond), func() { fired = append(fired, e.Now()) })
	e.Run(Time(50 * Millisecond)) // idle advance; window slid to the 100ms slot
	lq := ladderOf(t, e)
	slotBefore := lq.slot
	e.Schedule(Time(60*Millisecond), func() { fired = append(fired, e.Now()) })
	if lq.slot >= slotBefore {
		t.Fatalf("schedule behind the window did not rewind: slot %d -> %d", slotBefore, lq.slot)
	}
	validateLadder(t, e)
	e.RunAll()
	want := []Time{Time(60 * Millisecond), Time(100 * Millisecond)}
	if len(fired) != 2 || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

func TestLadderRewindPreservesPendingRun(t *testing.T) {
	// Force a rewind while a sorted run is partially drained: the run
	// remnant must survive the round trip through the far heap.
	e := NewEngine(1)
	var fired []Time
	rec := func() { fired = append(fired, e.Now()) }
	// Two events in one slot; the first callback idles the clock via a
	// nested bounded Run against a far event, then schedules between.
	e.Schedule(10, func() {
		fired = append(fired, e.Now())
		e.Schedule(Time(100*Millisecond), rec)
		e.Run(Time(50 * Millisecond)) // drains the slot-mate, then idles; window far away
		e.Schedule(Time(60*Millisecond), rec)
	})
	e.Schedule(12, rec)
	e.RunAll()
	want := []Time{10, 12, Time(60 * Millisecond), Time(100 * Millisecond)}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	validateLadder(t, e)
}

func TestLadderSameInstantInsertDuringDrain(t *testing.T) {
	// Events scheduled for the current instant while its batch drains
	// must join the active run in tie-break position — under salts too.
	for salt := uint64(0); salt < 8; salt++ {
		e := NewEngine(1)
		e.PerturbTiebreaks(salt)
		fired := 0
		e.Schedule(5, func() {
			for i := 0; i < 24; i++ {
				e.Schedule(5, func() { fired++ })
			}
		})
		e.Schedule(5, func() { fired++ })
		e.RunAll()
		if fired != 25 {
			t.Fatalf("salt %d: fired %d same-instant events, want 25", salt, fired)
		}
		if e.Now() != 5 {
			t.Fatalf("salt %d: clock at %v after same-instant batch, want 5", salt, e.Now())
		}
	}
}

func TestLadderBucketStorageIsReused(t *testing.T) {
	// Steady-state churn must not regrow bucket or run storage: after a
	// warm-up lap the backing arrays are recycled (this is where the
	// zero-allocs-per-event benchmark numbers come from).
	e := NewEngine(1)
	for i := 0; i < 4096; i++ {
		e.After(Duration(i%64)*Microsecond, func() {})
		e.Step()
	}
	st := e.PoolStats()
	if st.Allocs > 128 {
		t.Fatalf("steady-state churn allocated %d nodes", st.Allocs)
	}
	validateLadder(t, e)
}

func TestLadderMatchesHeapOnKernelLikeCadence(t *testing.T) {
	// A miniature kernel cadence: a 10 ms jiffy tick, a 65 µs local
	// tick and jittered IRQ arrivals — replayed on both implementations,
	// compared fire-for-fire.
	run := func(heap bool) []Time {
		e := NewEngine(5)
		if heap {
			withRefHeap(e)
		}
		var fired []Time
		rng := NewRNG(11)
		var jiffy, local func()
		jiffy = func() {
			fired = append(fired, e.Now())
			if e.Now() < Time(80*Millisecond) {
				e.After(10*Millisecond, jiffy)
			}
		}
		local = func() {
			fired = append(fired, e.Now()+1)
			if e.Now() < Time(80*Millisecond) {
				e.After(65*Microsecond, local)
			}
		}
		e.After(0, jiffy)
		e.After(0, local)
		for i := 0; i < 300; i++ {
			at := Time(rng.Uint64() % uint64(90*Millisecond))
			e.Schedule(at, func() { fired = append(fired, e.Now()+2) })
		}
		e.RunAll()
		return fired
	}
	h, l := run(true), run(false)
	if len(h) != len(l) {
		t.Fatalf("heap fired %d, ladder fired %d", len(h), len(l))
	}
	for i := range h {
		if h[i] != l[i] {
			t.Fatalf("dispatch %d: heap %v, ladder %v", i, h[i], l[i])
		}
	}
}
