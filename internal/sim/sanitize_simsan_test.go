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

// swapSlots exchanges heap slots i and j and their back-indices,
// leaving every slot's key consistent with its node: the only defect it
// can make is to the heap order.
func swapSlots(h *nodeHeap, i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].n.hidx = i
	h.items[j].n.hidx = j
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
	swapSlots(&e.q, 0, 7)
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
	mustPanicWith(t, "still armed", func() { e.fireOneShot(n) })
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
	swapSlots(&e.timers, 0, 3)
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

// A slot's inline key must be its node's: a sift compares only the
// slot, so a stale key would misorder dispatch silently.
func TestSimsanCatchesStaleInlineKey(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 4; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.q.items[2].at++
	mustPanicWith(t, "event queue: slot 2 holds key", func() { e.sanValidate() })

	e = NewEngine(1)
	e.PerturbTiebreaks(7)
	timers := make([]Timer, 3)
	for i := range timers {
		timers[i].Init(EventTag{}, false, func() {})
		e.ArmTimer(&timers[i], 5)
	}
	e.timers.items[1].key ^= 1
	mustPanicWith(t, "timer heap: slot 1 holds key", func() { e.sanValidate() })
}

// The audit knows the firing slot: a timer's node is not pending while
// its body runs, yet it keeps its slot. An audit from inside the body —
// before and after the body re-arms, disarms or arms a same-instant
// timer above the slot — passes, and the body's disarms pass the
// disarm hook.
func TestSimsanAuditFiringSlot(t *testing.T) {
	for _, salt := range []uint64{0, 11} {
		e := NewEngine(1)
		e.PerturbTiebreaks(salt)
		var a, b Timer
		n := 0
		a.Init(EventTag{}, false, func() {
			n++
			e.sanValidate()
			e.ArmTimer(&b, e.Now())
			e.sanValidate()
			switch n % 3 {
			case 0: // re-arm, then disarm
				e.ArmTimer(&a, e.Now().Add(Microsecond))
				e.DisarmTimer(&a)
			case 1: // disarm (a no-op), then re-arm
				e.DisarmTimer(&a)
				e.ArmTimer(&a, e.Now().Add(Microsecond))
			}
			e.sanValidate()
		})
		b.Init(EventTag{}, false, func() {
			if n < 64 && !a.Armed() {
				e.ArmTimer(&a, e.Now().Add(Microsecond))
			}
		})
		e.ArmTimer(&a, 0)
		e.RunAll()
		if n < 64 {
			t.Fatalf("salt %d: a fired %d times, want >= 64", salt, n)
		}
	}
}

// A disarmed timer must not still hold the firing slot: that slot would
// be removed a second time after the body returns.
func TestSimsanCatchesDisarmedFiringSlot(t *testing.T) {
	e := NewEngine(1)
	var tm Timer
	tm.Init(EventTag{}, false, func() {})
	e.firing = &tm.n
	mustPanicWith(t, "still holds the firing slot", func() { e.sanOnDisarm(&tm) })
}
