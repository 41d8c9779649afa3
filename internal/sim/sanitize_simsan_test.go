//go:build simsan

package sim

import (
	"strings"
	"testing"
)

func mustPanicWith(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected a simsan panic containing %q, got none", substr)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic = %v, want message containing %q", r, substr)
		}
	}()
	fn()
}

func TestSimsanEnabled(t *testing.T) {
	if !SanitizerEnabled() {
		t.Fatal("SanitizerEnabled() = false under -tags simsan")
	}
}

// A clean run — ties between a pinned periodic timer and one-shot
// events, near and far, with and without a perturbation salt — must not
// trip the shadow checker. Crosses the periodic full-heap validation
// threshold so that path runs too.
func TestSimsanCleanRun(t *testing.T) {
	for _, salt := range []uint64{0, 3} {
		e := NewEngine(9)
		e.PerturbTiebreaks(salt)
		n := 0
		var tick Timer
		tick.Init(EventTag{}, true, func() {
			n++
			if n < 3*sanValidateEvery {
				e.ArmTimer(&tick, e.Now().Add(Duration(n%4)*Microsecond))
				e.After(0, func() {}) // same-instant unpinned tie
				if n%7 == 0 {
					e.After(Microsecond, func() {})
				}
				if n%11 == 0 {
					e.After(20*Millisecond, func() {}) // far future
				}
			}
		})
		e.ArmTimer(&tick, 0)
		e.RunAll()
		if e.san.pops < sanValidateEvery {
			t.Fatalf("salt %d: only %d pops; periodic heap validation never ran", salt, e.san.pops)
		}
	}
}

func TestSimsanCatchesClockRegression(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(5, func() {})
	// Corrupt the virtual clock past the queued event; dispatching it
	// would make time run backwards, which the pop check must catch.
	e.now = 10
	mustPanicWith(t, "virtual clock would regress", func() { e.Step() })
}

func TestSimsanCatchesPopOrderViolation(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(5, func() {})
	// Forge shadow state claiming something at t=10 already popped; the
	// queued t=5 event now violates global pop ordering.
	e.san.popped = true
	e.san.lastAt = 10
	e.san.lastKey = 0
	mustPanicWith(t, "pop order violation", func() { e.Step() })
}

func TestSimsanCatchesHeapPropertyViolation(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 8; i++ {
		e.Schedule(Time(i), func() {})
	}
	// Swap the root with a leaf, keeping back-indices consistent, so
	// the only defect is the ordering invariant itself.
	e.q.swap(0, 7)
	mustPanicWith(t, "event queue: heap property violated", func() { e.sanValidate() })
}

func TestSimsanCatchesPoolCorruption(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(1, func() {})
	e.RunAll() // the fired node is now on the free list
	if len(e.pool.free) == 0 {
		t.Fatal("expected a recycled node on the free list")
	}
	e.pool.free[0].state = nodePending
	mustPanicWith(t, "event pool", func() { e.sanValidate() })
}

// Every queued node is pending with a callback; one released behind
// the queue's back is caught by the audit.
func TestSimsanCatchesQueuedFreeNode(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 4; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.q.peek().state = nodeFree
	mustPanicWith(t, "queued node", func() { e.sanValidate() })
}

// Same-instant rescheduling under a salt may legally produce a key
// below the one just popped; sanOnSchedule lowers the floor so this is
// not misreported. Exercise that path explicitly: a callback schedules
// a burst of same-instant events under a salt chosen above so that at
// least one lands below the popped key.
func TestSimsanNoFalsePositiveOnSameInstantSchedule(t *testing.T) {
	for salt := uint64(1); salt <= 16; salt++ {
		e := NewEngine(1)
		e.PerturbTiebreaks(salt)
		fired := 0
		e.Schedule(5, func() {
			for i := 0; i < 32; i++ {
				e.Schedule(5, func() { fired++ })
			}
		})
		e.RunAll() // must not panic
		if fired != 32 {
			t.Fatalf("salt %d: fired %d same-instant events, want 32", salt, fired)
		}
	}
}

// A timer-heavy clean run — periodic pinned and unpinned timers
// re-armed and disarmed amid same-instant plain events, salted and not —
// must not trip the checker, and must cross the periodic audit so the
// timer-heap validation runs too.
func TestSimsanCleanRunWithTimers(t *testing.T) {
	for _, salt := range []uint64{0, 5} {
		e := NewEngine(9)
		e.PerturbTiebreaks(salt)
		var a, b Timer
		n := 0
		a.Init(EventTag{}, true, func() {
			n++
			if n < 3*sanValidateEvery {
				e.ArmTimer(&a, e.Now().Add(Duration(n%3)*Microsecond))
				e.After(0, func() {}) // same-instant tie with the re-armed timer
				switch n % 5 {
				case 0:
					e.ArmTimer(&b, e.Now())
				case 2:
					e.ArmTimer(&b, e.Now().Add(2*Microsecond))
				case 3:
					e.DisarmTimer(&b)
				}
			}
		})
		b.Init(EventTag{}, false, func() {})
		e.ArmTimer(&a, 0)
		e.RunAll()
		if e.san.pops < sanValidateEvery {
			t.Fatalf("salt %d: only %d pops; periodic validation never ran", salt, e.san.pops)
		}
	}
}

// Pop minimality covers both heads: removing the one-shot head while a
// smaller timer is armed is a violation.
func TestSimsanCatchesPopBehindArmedTimer(t *testing.T) {
	e := NewEngine(1)
	var tm Timer
	tm.Init(EventTag{}, false, func() {})
	e.ArmTimer(&tm, 5)
	e.Schedule(10, func() {})
	n := e.q.peek()
	e.now = 10
	mustPanicWith(t, "still armed", func() { e.fireHead(n) })
}

func TestSimsanCatchesTimerHeapDisorder(t *testing.T) {
	e := NewEngine(1)
	timers := make([]Timer, 4)
	for i := range timers {
		timers[i].Init(EventTag{}, false, func() {})
		e.ArmTimer(&timers[i], Time(i+1))
	}
	// Swap root and a leaf, keeping back-indices consistent, so the
	// only defect is the order.
	e.timers.swap(0, 3)
	mustPanicWith(t, "timer heap: heap property violated", func() { e.sanValidate() })
}

func TestSimsanCatchesTimerIndexDesync(t *testing.T) {
	e := NewEngine(1)
	var a, b Timer
	a.Init(EventTag{}, false, func() {})
	b.Init(EventTag{}, false, func() {})
	e.ArmTimer(&a, 1)
	e.ArmTimer(&b, 2)
	b.n.hidx = 0
	mustPanicWith(t, "timer heap: node at position 1", func() { e.sanValidate() })
}

// The disarm hook checks what a disarm must leave behind: the timer out
// of the heap and not pending, with its body kept for the next arm.
func TestSimsanCatchesBadDisarm(t *testing.T) {
	e := NewEngine(1)
	var tm Timer
	tm.Init(EventTag{}, false, func() {})
	e.ArmTimer(&tm, 1)
	mustPanicWith(t, "still in state pending", func() { e.sanOnDisarm(&tm) })
	e.DisarmTimer(&tm)
	tm.n.fn = nil
	mustPanicWith(t, "lost its callback", func() { e.sanOnDisarm(&tm) })
}
