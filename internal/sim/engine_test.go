package sim

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine(1)
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestScheduleAndRunOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	for _, at := range []Time{30, 10, 20} {
		at := at
		e.Schedule(at, func() { got = append(got, e.Now()) })
	}
	e.RunAll()
	want := []Time{10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (same-time events must fire FIFO)", i, v, i)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(100, func() {})
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(50, func() {})
}

// One-shot events are fire-and-forget; cancelling is disarming a Timer.
func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	var tm Timer
	tm.Init(EventTag{}, false, func() { fired = true })
	e.DisarmTimer(&tm) // never armed: no-op
	e.ArmTimer(&tm, 10)
	e.DisarmTimer(&tm)
	e.DisarmTimer(&tm) // double disarm: no-op
	e.RunAll()
	if fired {
		t.Fatal("disarmed timer fired")
	}
}

func TestCancelFromWithinEvent(t *testing.T) {
	e := NewEngine(1)
	fired := false
	var victim Timer
	victim.Init(EventTag{}, false, func() { fired = true })
	e.Schedule(5, func() { e.DisarmTimer(&victim) })
	e.ArmTimer(&victim, 10)
	e.RunAll()
	if fired {
		t.Fatal("timer disarmed from an earlier event still fired")
	}
}

// A timer body disarming its own timer is a no-op: the timer disarms
// itself before its body runs.
func TestCancelSelfDuringDispatchIsNoOp(t *testing.T) {
	e := NewEngine(1)
	var self Timer
	ran := 0
	self.Init(EventTag{}, false, func() {
		ran++
		e.DisarmTimer(&self)
	})
	e.ArmTimer(&self, 1)
	e.RunAll()
	if ran != 1 || self.Armed() || e.Pending() != 0 {
		t.Fatalf("ran %d times, armed=%v, pending=%d; want one quiet fire", ran, self.Armed(), e.Pending())
	}
}

// Rescheduling is re-arming a Timer.
func TestReschedule(t *testing.T) {
	e := NewEngine(1)
	var at Time = -1
	var tm Timer
	tm.Init(EventTag{}, false, func() { at = e.Now() })
	e.ArmTimer(&tm, 10)
	e.ArmTimer(&tm, 25)
	if !tm.Armed() || e.Pending() != 1 {
		t.Fatalf("re-armed timer: armed=%v pending=%d", tm.Armed(), e.Pending())
	}
	e.RunAll()
	if at != 25 {
		t.Fatalf("re-armed timer fired at %v, want 25", at)
	}
	if tm.Armed() {
		t.Fatal("fired timer still armed")
	}
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, at := range []Time{10, 20, 30} {
		e.Schedule(at, func() { fired = append(fired, e.Now()) })
	}
	end := e.Run(20)
	if end != 20 {
		t.Fatalf("Run returned %v, want 20", end)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2 (event at boundary must fire)", len(fired))
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	// Continue; the remaining event must still fire.
	e.Run(100)
	if len(fired) != 3 {
		t.Fatalf("fired %d events after second Run, want 3", len(fired))
	}
}

func TestRunAdvancesToUntilWhenIdle(t *testing.T) {
	e := NewEngine(1)
	e.Run(1000)
	if e.Now() != 1000 {
		t.Fatalf("Now() = %v after idle Run(1000), want 1000", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.Schedule(1, func() { count++; e.Stop() })
	e.Schedule(2, func() { count++ })
	e.RunAll()
	if count != 1 {
		t.Fatalf("dispatched %d events, want 1 (Stop must halt the loop)", count)
	}
}

func TestAfterClampsNegative(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(50, func() {})
	e.Run(50)
	fired := false
	e.After(-10, func() { fired = true })
	e.RunAll()
	if !fired {
		t.Fatal("After with negative duration did not fire")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine(1)
	var seq []Time
	e.Schedule(10, func() {
		seq = append(seq, e.Now())
		e.After(5, func() { seq = append(seq, e.Now()) })
	})
	e.RunAll()
	if len(seq) != 2 || seq[0] != 10 || seq[1] != 15 {
		t.Fatalf("seq = %v, want [10 15]", seq)
	}
}

// Property: for any multiset of schedule times, events fire in sorted order
// and time never goes backwards.
func TestQuickEventOrdering(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine(42)
		var fired []Time
		for _, u := range times {
			e.Schedule(Time(u), func() { fired = append(fired, e.Now()) })
		}
		e.RunAll()
		if len(fired) != len(times) {
			return false
		}
		want := make([]Time, len(times))
		for i, u := range times {
			want[i] = Time(u)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: disarming an arbitrary subset of armed timers leaves
// exactly the complement to fire, still in order.
func TestQuickCancelSubset(t *testing.T) {
	f := func(times []uint16, mask []bool) bool {
		e := NewEngine(7)
		var fired []int
		timers := make([]Timer, len(times))
		for i, u := range times {
			i := i
			timers[i].Init(EventTag{}, false, func() { fired = append(fired, i) })
			e.ArmTimer(&timers[i], Time(u))
		}
		var want []int
		for i := range timers {
			if i < len(mask) && mask[i] {
				e.DisarmTimer(&timers[i])
			} else {
				want = append(want, i)
			}
		}
		sort.SliceStable(want, func(a, b int) bool { return times[want[a]] < times[want[b]] })
		e.RunAll()
		return slices.Equal(fired, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCancelInteriorEvents(t *testing.T) {
	// Disarm timers scattered through the timer heap's interior; the
	// rest must still fire in time order.
	e := NewEngine(1)
	timers := make([]Timer, 100)
	for i := range timers {
		timers[i].Init(EventTag{}, false, func() {})
		e.ArmTimer(&timers[i], Time(100-i))
	}
	// Remove every third timer.
	removed := 0
	for i := 0; i < len(timers); i += 3 {
		e.DisarmTimer(&timers[i])
		removed++
	}
	e.timers.validate(e.ord, nil, "timer heap", func(msg string) { t.Fatal(msg) })
	if got := e.Pending(); got != 100-removed {
		t.Fatalf("Pending() = %d, want %d", got, 100-removed)
	}
	last, steps := Time(-1), 0
	for e.Step() {
		if e.Now() < last {
			t.Fatal("time went backwards after interior removals")
		}
		last = e.Now()
		steps++
	}
	if steps != 100-removed {
		t.Fatalf("%d timers fired, want %d", steps, 100-removed)
	}
}

func TestSameInstantInsertDuringDrain(t *testing.T) {
	// Events scheduled for the current instant while its batch drains
	// must join the batch in tie-break position — under salts too. The
	// parent (seq 0) and its sibling (seq 1) fire in key order; the 24
	// children the parent schedules mid-batch (seqs 2..25) then fire
	// with whatever of the sibling is left, again in key order.
	for salt := uint64(0); salt < 8; salt++ {
		e := NewEngine(1)
		e.PerturbTiebreaks(salt)
		var order []uint64 // seqs in dispatch order
		parent := -1
		e.Schedule(5, func() {
			parent = len(order)
			order = append(order, 0)
			for i := uint64(2); i < 26; i++ {
				e.Schedule(5, func() { order = append(order, i) })
			}
		})
		e.Schedule(5, func() { order = append(order, 1) })
		e.RunAll()
		if len(order) != 26 {
			t.Fatalf("salt %d: fired %d same-instant events, want 26", salt, len(order))
		}
		if e.Now() != 5 {
			t.Fatalf("salt %d: clock at %v after same-instant batch, want 5", salt, e.Now())
		}
		key := func(seq uint64) uint64 { return e.ord.key(&eventNode{seq: seq}) }
		for i := 1; i < len(order); i++ {
			if i != parent+1 && key(order[i]) <= key(order[i-1]) {
				t.Fatalf("salt %d: dispatch %d (seq %d) out of tie-break order after seq %d: %v",
					salt, i, order[i], order[i-1], order)
			}
		}
	}
}

func BenchmarkScheduleDispatch(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Duration(i%64), func() {})
		e.Step()
	}
}

// BenchmarkTimerDispatchPinned covers the pinned-arbitration path (only
// Timers are pinned) plus the sanitizer hooks on the hot arm/fire
// sequence. In the default (untagged) build sanState is a zero-size
// no-op whose methods compile away, so this bench doubles as the guard
// that enabling the simsan plumbing costs nothing unless `-tags simsan`
// asks for it: compare `go test -bench Dispatch ./internal/sim` against
// the same with `-tags simsan` to see the (opt-in) overhead.
func BenchmarkTimerDispatchPinned(b *testing.B) {
	e := NewEngine(1)
	var tm Timer
	tm.Init(EventTag{}, true, func() {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.ArmTimer(&tm, e.Now().Add(Duration(i%64)))
		e.Step()
	}
}

// BenchmarkScheduleDispatchSalted measures the perturbed tie-break
// path: key() mixes the sequence through splitmix64 instead of using
// it raw, which is the only per-event cost -perturb adds.
func BenchmarkScheduleDispatchSalted(b *testing.B) {
	e := NewEngine(1)
	e.PerturbTiebreaks(0x5eed)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Duration(i%64), func() {})
		e.Step()
	}
}
