package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/snapshot"
)

// TestTimerLifecycle walks one timer through arm, re-arm (earlier and
// later), disarm and a self re-arming body, checking what the engine
// reports about it at each step.
func TestTimerLifecycle(t *testing.T) {
	e := NewEngine(1)
	var tm Timer
	var fires []Time
	tm.Init(EventTag{}, false, func() {
		fires = append(fires, e.Now())
		if len(fires) < 3 {
			e.ArmTimer(&tm, e.Now().Add(10))
		}
	})
	if tm.Armed() {
		t.Fatal("fresh timer is armed")
	}
	e.ArmTimer(&tm, 50)
	e.ArmTimer(&tm, 30) // re-arm earlier
	if !tm.Armed() || e.Pending() != 1 {
		t.Fatalf("after re-arm: armed=%v pending=%d", tm.Armed(), e.Pending())
	}
	if at, ok := e.NextEventTime(); !ok || at != 30 {
		t.Fatalf("NextEventTime = %v, %v; want 30", at, ok)
	}
	e.DisarmTimer(&tm)
	e.DisarmTimer(&tm) // no-op
	if tm.Armed() || e.Pending() != 0 {
		t.Fatalf("after disarm: armed=%v pending=%d", tm.Armed(), e.Pending())
	}
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("NextEventTime reports an event after disarm")
	}
	e.ArmTimer(&tm, 40)
	e.ArmTimer(&tm, 60) // re-arm later
	e.RunAll()
	if want := []Time{60, 70, 80}; !reflect.DeepEqual(fires, want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
	if e.Fired() != 3 || e.Pending() != 0 || tm.Armed() {
		t.Fatalf("fired=%d pending=%d armed=%v", e.Fired(), e.Pending(), tm.Armed())
	}
}

// TestTimerOrderMatchesCancelPlusSchedule: a re-armed timer takes a
// fresh sequence number, so at an instant shared with plain events it
// fires where a cancelled-and-rescheduled event would: after everything
// scheduled before the re-arm, before everything scheduled after it.
func TestTimerOrderMatchesCancelPlusSchedule(t *testing.T) {
	var got []string
	e := NewEngine(1)
	var tm Timer
	tm.Init(EventTag{}, false, func() { got = append(got, "timer") })
	e.ArmTimer(&tm, 100)
	e.Schedule(100, func() { got = append(got, "a") })
	e.ArmTimer(&tm, 100) // re-arm at the same instant: now behind a
	e.Schedule(100, func() { got = append(got, "b") })
	if at, seq, _, _ := e.NextEventInfo(); at != 100 || seq != 1 {
		t.Fatalf("next event (%v, seq %d), want (100, seq 1)", at, seq)
	}
	e.RunAll()
	if want := []string{"a", "timer", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dispatch order %v, want %v", got, want)
	}
}

// TestTimerZeroAlloc: arm, re-arm, disarm and fire allocate nothing
// once the timer heap has its capacity.
func TestTimerZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	var a, b Timer
	fired := 0
	a.Init(EventTag{}, true, func() { fired++ })
	b.Init(EventTag{}, false, func() { fired++ })
	e.ArmTimer(&a, 1)
	e.ArmTimer(&b, 1)
	e.RunAll() // grow the heap slice once
	allocs := testing.AllocsPerRun(1000, func() {
		now := e.Now()
		e.ArmTimer(&a, now.Add(5)) // arm
		e.ArmTimer(&b, now.Add(4))
		e.ArmTimer(&a, now.Add(3)) // re-arm
		e.DisarmTimer(&b)          // disarm
		e.Step()                   // fire a
		e.ArmTimer(&b, now.Add(7))
		e.Step() // fire b
	})
	if allocs != 0 {
		t.Fatalf("timer arm/re-arm/disarm/fire allocates %.1f times per round, want 0", allocs)
	}
	if fired < 2000 {
		t.Fatalf("fired %d times, want >= 2000", fired)
	}
}

// TestTimerPanics: the misuse cases fail loudly.
func TestTimerPanics(t *testing.T) {
	mustPanic := func(name, substr string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil || !strings.Contains(r.(string), substr) {
				t.Errorf("%s: panic %v, want one containing %q", name, r, substr)
			}
		}()
		fn()
	}
	e := NewEngine(1)
	var tm Timer
	mustPanic("arm without Init", "without a body", func() { e.ArmTimer(&tm, 1) })
	tm.Init(EventTag{}, false, func() {})
	e.Run(10)
	mustPanic("arm in the past", "before now", func() { e.ArmTimer(&tm, 5) })
	e.ArmTimer(&tm, 20)
	mustPanic("Init while armed", "armed timer", func() { tm.Init(EventTag{}, false, func() {}) })
	mustPanic("salt with a timer armed", "PerturbTiebreaks", func() { e.PerturbTiebreaks(3) })
}

// TestSnapshotBytesTimerVsPlain: an image does not record whether an
// occurrence was armed as a Timer or queued by the reference model — the
// harness with Timers writes the same bytes as with refTimers at every
// stop point, and each image restores into either model.
func TestSnapshotBytesTimerVsPlain(t *testing.T) {
	for _, stop := range []Time{0, 25, 290, 300, 735, 1500, 5_050, 6_000} {
		build := func(e *Engine, plain bool) []byte {
			h := newSnapHarness(e)
			h.plain = plain
			seedHarness(h)
			h.eng.Run(stop)
			return h.snapshot()
		}
		want := build(NewEngine(42), true)
		if got := build(NewEngine(42), false); !reflect.DeepEqual(got, want) {
			t.Errorf("stop %v: Timer image %016x differs from refTimer image %016x",
				stop, snapshot.Hash(got), snapshot.Hash(want))
		}
		ref := restoreHarnessPlain(t, want, func() *Engine { return NewEngine(0) }, true)
		ref.eng.Run(20_000)
		timers := restoreHarnessPlain(t, want, func() *Engine { return NewEngine(0) }, false)
		timers.eng.Run(20_000)
		if !reflect.DeepEqual(ref.log, timers.log) || ref.counter != timers.counter {
			t.Errorf("stop %v: restored timer and plain harnesses diverged (%d vs %d dispatches)", stop, len(timers.log), len(ref.log))
		}
	}
}

// TestRestoreTimerValidation: RestoreTimer takes only the timer's own
// event, once.
func TestRestoreTimerValidation(t *testing.T) {
	h := newSnapHarness(NewEngine(5))
	h.armTimer(0, 100)
	h.armTimer(1, 200)
	img := h.snapshot()

	eng := NewEngine(0)
	h2 := newSnapHarness(eng)
	evs, err := eng.Visit(harnessReader(t, img).Codec())
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Kind != "test.timer" || !evs[0].Pinned || evs[1].Pinned {
		t.Fatalf("restored events %+v, want pinned timer 0 then unpinned timer 1", evs)
	}
	if err := eng.RestoreTimer(&h2.timers[1], evs[0]); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Errorf("restoring timer 0's event into timer 1: err %v, want a mismatch", err)
	}
	if err := eng.RestoreTimer(&h2.timers[0], evs[0]); err != nil {
		t.Fatalf("RestoreTimer: %v", err)
	}
	if err := eng.RestoreTimer(&h2.timers[0], evs[0]); err == nil || !strings.Contains(err.Error(), "two pending events") {
		t.Errorf("restoring timer 0 twice: err %v, want a duplicate error", err)
	}
	if at, ok := eng.NextEventTime(); eng.Pending() != 1 || !ok || at != 100 {
		t.Fatalf("pending %d, next at %v; want 1 pending at 100", eng.Pending(), at)
	}
	// The decoding Visit disarms every timer, including this one.
	if _, err := eng.Visit(harnessReader(t, img).Codec()); err != nil {
		t.Fatal(err)
	}
	if h2.timers[0].Armed() || eng.Pending() != 0 {
		t.Fatalf("restore left timer 0 armed (pending %d)", eng.Pending())
	}
}

// harnessReader opens img positioned at its engine section.
func harnessReader(t *testing.T, img []byte) *snapshot.Reader {
	t.Helper()
	r, err := snapshot.OpenReader(img)
	if err != nil {
		t.Fatal(err)
	}
	r.Section(harnessSection)
	r.U64(1)
	r.EndSection()
	return r
}

// A timer fires in place: its node keeps its heap slot while the body
// runs. These tests cover what a body can do to that slot.

// auditTimers fails t on any timer-heap defect, the firing slot
// included.
func auditTimers(t *testing.T, e *Engine) {
	t.Helper()
	e.timers.validate(e.ord, e.firing, "timer heap", func(msg string) { t.Fatal(msg) })
}

// TestFireInPlaceRearmThenDisarm: a body that re-arms and then disarms
// its own timer leaves it disarmed and out of the heap, removed once —
// the re-arm gave up the firing slot, so nothing is removed after the
// body.
func TestFireInPlaceRearmThenDisarm(t *testing.T) {
	e := NewEngine(1)
	var a, b Timer
	var got []string
	a.Init(EventTag{}, false, func() {
		got = append(got, "a")
		e.ArmTimer(&a, e.Now().Add(5))
		e.DisarmTimer(&a)
		auditTimers(t, e)
	})
	b.Init(EventTag{}, false, func() { got = append(got, "b") })
	e.ArmTimer(&a, 10)
	e.ArmTimer(&b, 20)
	e.Step()
	if a.Armed() || e.Pending() != 1 || len(e.timers.items) != 1 || e.timers.peek() != &b.n {
		t.Fatalf("after the body: a armed=%v, pending %d, %d heap slots", a.Armed(), e.Pending(), len(e.timers.items))
	}
	e.RunAll()
	if want := []string{"a", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dispatch order %v, want %v", got, want)
	}
}

// TestFireInPlaceDisarmThenRearm: disarming a firing timer is a no-op
// (it is already disarmed), and the re-arm after it re-keys the slot.
func TestFireInPlaceDisarmThenRearm(t *testing.T) {
	e := NewEngine(1)
	var a Timer
	var fires []Time
	a.Init(EventTag{}, true, func() {
		fires = append(fires, e.Now())
		e.DisarmTimer(&a)
		if a.Armed() || e.Pending() != 0 {
			t.Fatalf("in the body: armed=%v pending=%d", a.Armed(), e.Pending())
		}
		if len(fires) < 3 {
			e.ArmTimer(&a, e.Now().Add(7))
		}
		auditTimers(t, e)
	})
	e.ArmTimer(&a, 10)
	e.RunAll()
	if want := []Time{10, 17, 24}; !reflect.DeepEqual(fires, want) {
		t.Fatalf("fires %v, want %v", fires, want)
	}
	if a.Armed() || e.Pending() != 0 || len(e.timers.items) != 0 {
		t.Fatalf("after the run: armed=%v pending=%d slots=%d", a.Armed(), e.Pending(), len(e.timers.items))
	}
}

// siftAboveSalt returns a salt under which an unpinned event with seq
// 2 precedes one with seq 0 at the same instant.
func siftAboveSalt(t *testing.T) uint64 {
	t.Helper()
	for salt := uint64(1); salt < 64; salt++ {
		if tiebreakMix(salt, 2) < tiebreakMix(salt, 0) {
			return salt
		}
	}
	t.Fatal("no salt in [1, 64) orders seq 2 before seq 0")
	return 0
}

// TestFireInPlaceSiftAbove: under a salt, a timer the body arms for the
// current instant can sift above the firing slot. The firing timer is
// then no longer the root, so it must be removed (or re-armed) at its
// own slot, and the new timer fires next at the same instant.
func TestFireInPlaceSiftAbove(t *testing.T) {
	for _, rearm := range []bool{false, true} {
		e := NewEngine(1)
		e.PerturbTiebreaks(siftAboveSalt(t))
		var a, b, c Timer
		var got []string
		a.Init(EventTag{}, false, func() {
			got = append(got, fmt.Sprintf("a@%d", e.Now()))
			if len(got) > 1 {
				return
			}
			e.ArmTimer(&b, e.Now())
			if e.timers.peek() != &b.n {
				t.Fatal("the same-instant timer did not sift above the firing slot")
			}
			if rearm {
				e.ArmTimer(&a, 15)
			}
			auditTimers(t, e)
		})
		b.Init(EventTag{}, false, func() { got = append(got, fmt.Sprintf("b@%d", e.Now())) })
		c.Init(EventTag{}, false, func() { got = append(got, fmt.Sprintf("c@%d", e.Now())) })
		e.ArmTimer(&a, 10) // seq 0
		e.ArmTimer(&c, 20) // seq 1; b's arm in a's body takes seq 2
		e.RunAll()
		want := []string{"a@10", "b@10", "c@20"}
		if rearm {
			want = []string{"a@10", "b@10", "a@15", "c@20"}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rearm=%v: dispatch order %v, want %v", rearm, got, want)
		}
		if e.Pending() != 0 || len(e.timers.items) != 0 {
			t.Fatalf("rearm=%v: %d pending, %d heap slots after the run", rearm, e.Pending(), len(e.timers.items))
		}
	}
}

// TestFireInPlaceInvisible: while a body runs, its timer is not
// pending: Pending, NextEventTime and Visit all leave it out, until
// the body re-arms it.
func TestFireInPlaceInvisible(t *testing.T) {
	e := NewEngine(1)
	var a, b Timer
	var inBody, afterRearm []RestoredEvent
	restored := func() []RestoredEvent {
		w := snapshot.NewWriter()
		if _, err := e.Visit(w.Codec()); err != nil {
			t.Fatal(err)
		}
		r, err := snapshot.OpenReader(w.Finish())
		if err != nil {
			t.Fatal(err)
		}
		evs, err := NewEngine(0).Visit(r.Codec())
		if err != nil {
			t.Fatal(err)
		}
		return evs
	}
	a.Init(kindTimer.Tag(0, 0, 0), false, func() {
		if e.Pending() != 2 {
			t.Errorf("Pending() = %d in the body, want 2 (b and the one-shot)", e.Pending())
		}
		if at, ok := e.NextEventTime(); !ok || at != 30 {
			t.Errorf("NextEventTime() = %v, %v in the body, want 30", at, ok)
		}
		inBody = restored()
		e.ArmTimer(&a, 25)
		if e.Pending() != 3 {
			t.Errorf("Pending() = %d after the re-arm, want 3", e.Pending())
		}
		afterRearm = restored()
	})
	b.Init(kindTimer.Tag(1, 0, 0), false, func() {})
	e.ArmTimer(&a, 10)
	e.ArmTimer(&b, 40)
	e.ScheduleTagged(30, kindCount.Tag(0, 0, 0), func() {})
	e.Step()
	if len(inBody) != 2 || inBody[0].At != 30 || inBody[1].At != 40 {
		t.Errorf("image taken in the body holds %+v, want the one-shot at 30 and b at 40", inBody)
	}
	if len(afterRearm) != 3 || afterRearm[0].At != 25 || afterRearm[0].A0 != 0 {
		t.Errorf("image taken after the re-arm holds %+v, want a at 25 first", afterRearm)
	}
}

// TestDispatchFromTimerBodyPanics: the dispatch loop does not skip a
// firing slot, so running the engine from a timer body is refused.
func TestDispatchFromTimerBodyPanics(t *testing.T) {
	e := NewEngine(1)
	var a Timer
	var msg any
	a.Init(EventTag{}, false, func() {
		defer func() { msg = recover() }()
		e.Step()
	})
	e.ArmTimer(&a, 1)
	e.Step()
	if s, _ := msg.(string); !strings.Contains(s, "from a timer body") {
		t.Fatalf("Step from a timer body: panic %v, want one naming the timer body", msg)
	}
}
