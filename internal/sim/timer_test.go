package sim

import (
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
	evs, err := eng.RestoreState(harnessReader(t, img))
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
	// RestoreState disarms every timer, including this one.
	if _, err := eng.RestoreState(harnessReader(t, img)); err != nil {
		t.Fatal(err)
	}
	if h2.timers[0].Armed() || eng.Pending() != 0 {
		t.Fatalf("RestoreState left timer 0 armed (pending %d)", eng.Pending())
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
