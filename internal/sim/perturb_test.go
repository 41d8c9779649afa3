package sim

import (
	"slices"
	"testing"
)

// tieOrder schedules n same-instant events (or, when pinned, arms n
// pinned timers) under the given salt and returns the dispatch order as
// the original schedule indices.
func tieOrder(t *testing.T, n int, salt uint64, pinned bool) []int {
	t.Helper()
	e := NewEngine(1)
	e.PerturbTiebreaks(salt)
	var order []int
	timers := make([]Timer, n)
	for i := 0; i < n; i++ {
		i := i
		fn := func() { order = append(order, i) }
		if pinned {
			timers[i].Init(EventTag{}, true, fn)
			e.ArmTimer(&timers[i], 5)
		} else {
			e.Schedule(5, fn)
		}
	}
	e.RunAll()
	if len(order) != n {
		t.Fatalf("fired %d events, want %d", len(order), n)
	}
	return order
}

func isFIFO(order []int) bool {
	for i, v := range order {
		if v != i {
			return false
		}
	}
	return true
}

func TestPerturbSaltZeroIsFIFO(t *testing.T) {
	if got := tieOrder(t, 16, 0, false); !isFIFO(got) {
		t.Fatalf("salt 0 order = %v, want FIFO", got)
	}
}

func TestPerturbPermutesUnpinnedTies(t *testing.T) {
	// The mix is a bijection, so every salt yields *a* permutation; the
	// point of the knob is that some salts yield a different one. All of
	// salts 1..8 reordering 16 ties back to FIFO would mean the
	// perturbation does nothing.
	permuted := false
	for salt := uint64(1); salt <= 8; salt++ {
		order := tieOrder(t, 16, salt, false)
		seen := map[int]bool{}
		for _, v := range order {
			if seen[v] {
				t.Fatalf("salt %d: index %d dispatched twice (order %v)", salt, v, order)
			}
			seen[v] = true
		}
		if !isFIFO(order) {
			permuted = true
		}
	}
	if !permuted {
		t.Fatal("no salt in 1..8 permuted same-instant dispatch order")
	}
}

func TestPerturbIsDeterministicPerSalt(t *testing.T) {
	a := tieOrder(t, 16, 0xdeadbeef, false)
	b := tieOrder(t, 16, 0xdeadbeef, false)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same salt gave different orders: %v vs %v", a, b)
		}
	}
}

func TestPerturbPinnedTiesStayFIFO(t *testing.T) {
	for salt := uint64(1); salt <= 8; salt++ {
		if got := tieOrder(t, 16, salt, true); !isFIFO(got) {
			t.Fatalf("salt %d: pinned order = %v, want FIFO", salt, got)
		}
	}
}

// Mixed pinned timers and unpinned events at one instant: the pinned
// timers must keep their relative FIFO order among themselves
// regardless of where the perturbed unpinned events land between them.
func TestPerturbMixedTiesKeepPinnedSubsequence(t *testing.T) {
	for salt := uint64(1); salt <= 8; salt++ {
		e := NewEngine(1)
		e.PerturbTiebreaks(salt)
		var pinnedOrder []int
		var timers [20]Timer
		for i := 0; i < 20; i++ {
			i := i
			if i%2 == 0 {
				timers[i].Init(EventTag{}, true, func() { pinnedOrder = append(pinnedOrder, i) })
				e.ArmTimer(&timers[i], 5)
			} else {
				e.Schedule(5, func() {})
			}
		}
		e.RunAll()
		for j := 1; j < len(pinnedOrder); j++ {
			if pinnedOrder[j] < pinnedOrder[j-1] {
				t.Fatalf("salt %d: pinned events dispatched out of FIFO order: %v", salt, pinnedOrder)
			}
		}
	}
}

func TestPerturbKeepsTimeOrdering(t *testing.T) {
	// Perturbation only touches ties: events at distinct times still fire
	// in time order, and the virtual clock stays monotone.
	e := NewEngine(1)
	e.PerturbTiebreaks(0x5eed)
	last := Time(-1)
	for _, at := range []Time{30, 10, 10, 20, 20, 20, 10, 30} {
		e.Schedule(at, func() {
			if e.Now() < last {
				t.Fatalf("time went backwards: %v after %v", e.Now(), last)
			}
			last = e.Now()
		})
	}
	e.RunAll()
	if last != 30 {
		t.Fatalf("last event fired at %v, want 30", last)
	}
}

func TestPerturbAfterScheduleArmsPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("PerturbTiebreaks with queued events did not panic")
		}
	}()
	e.PerturbTiebreaks(1)
}

// Re-arming a timer keeps the arbitration class Init bound: a re-armed
// pinned timer still dispatches FIFO against other pinned timers under
// a salt, behind one armed before the re-arm.
func TestReschedulePreservesPinned(t *testing.T) {
	for salt := uint64(1); salt <= 8; salt++ {
		e := NewEngine(1)
		e.PerturbTiebreaks(salt)
		var order []int
		var timers [8]Timer
		for i := range timers {
			i := i
			timers[i].Init(EventTag{}, true, func() { order = append(order, i) })
			e.ArmTimer(&timers[i], 10)
		}
		e.ArmTimer(&timers[0], 20)
		e.ArmTimer(&timers[0], 10) // re-armed last: fires last
		e.RunAll()
		if want := []int{1, 2, 3, 4, 5, 6, 7, 0}; !slices.Equal(order, want) {
			t.Fatalf("salt %d: order %v, want %v", salt, order, want)
		}
	}
}

func TestTiebreakMixIsInjectiveOnSmallRange(t *testing.T) {
	// The permutation is total only because the mix keeps distinct seqs
	// distinct; spot-check a contiguous seq range under a few salts.
	for _, salt := range []uint64{1, 2, 0xdeadbeef} {
		seen := map[uint64]uint64{}
		for seq := uint64(0); seq < 4096; seq++ {
			k := tiebreakMix(salt, seq)
			if prev, dup := seen[k]; dup {
				t.Fatalf("salt %#x: seqs %d and %d collide on key %#x", salt, prev, seq, k)
			}
			seen[k] = seq
		}
	}
}

// perturbedScheduleRun drives an engine from an op list and returns an
// order-independent fingerprint: the fire time of each op slot (parent
// and child), the total dispatch count, and the final clock. Callbacks
// only write to their own slot, so the fingerprint is identical under
// any same-instant dispatch order — which is exactly what the fuzz
// target below asserts for arbitrary salts.
func perturbedScheduleRun(ops []byte, salt uint64) ([]Time, uint64, Time) {
	e := NewEngine(7)
	e.PerturbTiebreaks(salt)
	times := make([]Time, 2*len(ops))
	for i := range times {
		times[i] = -1
	}
	timers := make([]Timer, len(ops))
	for i, op := range ops {
		i, op := i, op
		at := Time(op&0x0f) * Time(Microsecond)
		if op&0x10 != 0 {
			timers[i].Init(EventTag{}, true, func() { times[i] = e.Now() })
			e.ArmTimer(&timers[i], at)
			continue
		}
		e.Schedule(at, func() {
			times[i] = e.Now()
			// A child event, possibly at the same instant (op>>5 == 0):
			// slot-keyed recording keeps it commutative with its siblings.
			e.After(Duration(op>>5)*Microsecond, func() {
				times[len(ops)+i] = e.Now()
			})
		})
	}
	end := e.RunAll()
	return times, e.Fired(), end
}

// FuzzPerturbedSchedule checks the perturbation's core soundness
// property: for a model with no tie-break races (every callback touches
// only its own state), any salt produces bit-identical results to FIFO.
// A failure here would mean PerturbTiebreaks itself injects
// nondeterminism — losing or reordering work rather than merely
// re-arbitrating ties — which would make every -perturb verdict
// meaningless.
func FuzzPerturbedSchedule(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x00}, uint64(1))
	f.Add([]byte{0x01, 0x11, 0x01, 0x11, 0x01}, uint64(0xdeadbeef))
	f.Add([]byte{0xff, 0x0f, 0x2f, 0x4f, 0x8f, 0x0f}, uint64(42))
	f.Add([]byte{0x10, 0x30, 0x50, 0x00, 0x20}, uint64(0))
	f.Fuzz(func(t *testing.T, ops []byte, salt uint64) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		baseTimes, baseFired, baseEnd := perturbedScheduleRun(ops, 0)
		times, fired, end := perturbedScheduleRun(ops, salt)
		if fired != baseFired {
			t.Fatalf("salt %#x: fired %d events, FIFO fired %d", salt, fired, baseFired)
		}
		if end != baseEnd {
			t.Fatalf("salt %#x: final clock %v, FIFO ended at %v", salt, end, baseEnd)
		}
		for i := range times {
			if times[i] != baseTimes[i] {
				t.Fatalf("salt %#x: slot %d fired at %v, FIFO fired it at %v", salt, i, times[i], baseTimes[i])
			}
		}
	})
}
