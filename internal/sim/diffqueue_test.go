package sim

import (
	"fmt"
	"strings"
	"testing"
)

// Differential harness: a Timer and its reference model, refTimer,
// must produce word-for-word identical dispatch sequences for ANY
// operation stream — that equivalence is what lets the kernel own
// re-armable timers without any golden hash moving. Two engines
// execute the same interpreted op stream in lockstep, one running its
// timers as Timers (ArmTimer/DisarmTimer, the timer heap), the other as
// refTimers, which remove a queued one-shot occurrence and schedule a
// new one. After every op the clocks and pending counts must agree, and
// at the end the full (slot, fire time) dispatch traces must be
// identical.
//
// Both sides run on the same heap type (nodeHeap), so agreement alone
// cannot catch a heap defect both share. After every op each machine's
// one-shot queue and timer heap are therefore also checked by a linear
// scan that does not use the heap code: every back-index names its
// own position, and the root is the eventOrder minimum.
//
// Callbacks are a pure function of the slot number they were created
// with, so both machines generate the same nested work: some slots
// schedule children at the same instant (joining the live batch in
// tie-break order), some schedule delayed children, and some arm or
// disarm a timer mid-dispatch. Timer bodies re-arm and disarm timers
// themselves, so arm, re-arm, disarm and fire also happen mid-dispatch.

// fireRec is one dispatched event in a machine's trace.
type fireRec struct {
	slot int
	at   Time
}

// diffTimers is how many timers each diff machine owns.
const diffTimers = 3

// diffMachine drives one engine through the interpreted op stream.
type diffMachine struct {
	e     *Engine
	fires []fireRec
	slots int
	// plain runs the timers as refTimers (the reference side);
	// otherwise they are Timers.
	plain  bool
	timers [diffTimers]Timer
	refs   [diffTimers]refTimer
	// tfires counts each timer's firings, bounding self re-arms.
	tfires [diffTimers]int
	// bodyErr is the first heap defect a scan inside a timer body found.
	bodyErr string
}

// newDiffMachine builds a machine with real timers, or with refTimers
// when plain is set.
func newDiffMachine(plain bool, salt uint64) *diffMachine {
	m := &diffMachine{e: NewEngine(7), plain: plain}
	for i := range m.timers {
		i := i
		m.timers[i].Init(EventTag{}, diffTimerPinned(i), func() { m.timerFired(i) })
		m.refs[i].init(EventTag{}, diffTimerPinned(i), func() { m.timerFired(i) })
	}
	if salt != 0 {
		m.e.PerturbTiebreaks(salt)
	}
	return m
}

// diffTimerPinned gives the timers mixed arbitration classes.
func diffTimerPinned(i int) bool { return i != 1 }

// armTimer arms (or re-arms) timer i at at.
func (m *diffMachine) armTimer(i int, at Time) {
	if m.plain {
		m.refs[i].arm(m.e, at)
	} else {
		m.e.ArmTimer(&m.timers[i], at)
	}
}

func (m *diffMachine) disarmTimer(i int) {
	if m.plain {
		m.refs[i].disarm(m.e)
	} else {
		m.e.DisarmTimer(&m.timers[i])
	}
}

func (m *diffMachine) timerArmed(i int) bool {
	if m.plain {
		return m.refs[i].armed()
	}
	return m.timers[i].Armed()
}

// timerFired is timer i's body; fires are recorded as slot -1-i. The
// bodies cover what a body can do to the slot its timer fires from:
//
//   - timer 0 is a periodic tick that re-arms itself, and on some fires
//     first disarms itself (a no-op on a firing timer) or re-arms and
//     then disarms itself, leaving it disarmed;
//   - timer 1 re-arms timer 2 for the current instant and, on odd
//     fires, itself for the current instant;
//   - timer 2 disarms timer 0, spawns a same-instant plain event and on
//     every third fire arms the unpinned timer 1 for the current
//     instant, which under a salt may sift above its own firing slot.
//
// Each body ends with a scan of the heaps, so a slot corrupted while a
// body runs is caught there and not only after the op.
func (m *diffMachine) timerFired(i int) {
	m.fires = append(m.fires, fireRec{slot: -1 - i, at: m.e.Now()})
	m.tfires[i]++
	now := m.e.Now()
	switch k := m.tfires[i]; i {
	case 0:
		if k < 64 {
			if k%4 == 2 {
				m.disarmTimer(0)
			}
			m.armTimer(0, now.Add(Duration(3+k%5)*Microsecond))
			if k%8 == 5 {
				m.disarmTimer(0)
			}
		}
	case 1:
		if k < 64 {
			m.armTimer(2, now)
			if k%2 == 1 {
				m.armTimer(1, now)
			}
		}
	case 2:
		m.disarmTimer(0)
		if m.slots < 4096 {
			m.schedule(now)
		}
		if k < 64 && k%3 == 0 {
			m.armTimer(1, now)
		}
	}
	if msg := m.scan(); msg != "" && m.bodyErr == "" {
		m.bodyErr = fmt.Sprintf("in timer %d's body at %v: %s", i, now, msg)
	}
}

// fn builds the callback for a new slot. Behaviour depends only on the
// slot number, so the two machines stay in lockstep.
func (m *diffMachine) fn(slot int) func() {
	return func() {
		m.fires = append(m.fires, fireRec{slot: slot, at: m.e.Now()})
		switch {
		case slot%5 == 3 && m.slots < 4096:
			// Same-instant child: joins the currently draining batch at
			// its tie-break position.
			m.schedule(m.e.Now())
		case slot%7 == 4 && m.slots < 4096:
			m.schedule(m.e.Now().Add(Duration(slot%11) * Microsecond))
		case slot%13 == 9:
			// Timer op during dispatch: arm, re-arm or disarm a timer
			// that may be pending, already fired, or tied with this
			// very batch.
			m.timerOp(slot % 16)
		}
	}
}

func (m *diffMachine) schedule(at Time) {
	slot := m.slots
	m.slots++
	m.e.Schedule(at, m.fn(slot))
}

// exec interprets one op byte.
func (m *diffMachine) exec(op byte) {
	arg := int(op >> 3)
	switch op % 8 {
	case 0: // near-future schedule
		m.schedule(m.e.Now().Add(Duration(arg) * Microsecond))
	case 1: // spread up to ~22 ms ahead
		m.schedule(m.e.Now().Add(Duration(arg) * 700 * Microsecond))
	case 2: // ties at a handful of instants
		m.schedule(m.e.Now().Add(Duration(arg%4) * Microsecond))
	case 3: // same-instant burst: one-shots tied with the pinned timers
		for i := 0; i <= arg%5; i++ {
			if i%2 == 1 {
				m.armTimer(i%4-1, m.e.Now()) // timers 0 and 2
			} else {
				m.schedule(m.e.Now())
			}
		}
	case 4: // disarm (double disarms and fired timers included)
		m.disarmTimer(arg % diffTimers)
	case 5: // arm or re-arm, keeping the timer's arbitration class
		m.armTimer(arg%diffTimers, m.e.Now().Add(Duration(arg)*Microsecond))
	case 6:
		if arg >= 16 {
			m.timerOp(arg - 16)
			return
		}
		// dispatch a few events
		for i := 0; i < arg%4; i++ {
			if !m.e.Step() {
				break
			}
		}
	case 7: // bounded run; can advance the clock idly, so later
		// schedules land behind events already queued further out
		m.e.Run(m.e.Now().Add(Duration(arg) * 600 * Microsecond))
	}
}

// timerOp interprets a timer op: a in [0, 16) picks timer a%3 and one
// of arm now (a same-instant tie), arm near, arm far (tens of ms out),
// disarm, re-arm near if armed, or disarm every timer.
func (m *diffMachine) timerOp(a int) {
	i := a % diffTimers
	now := m.e.Now()
	switch a / diffTimers {
	case 0:
		m.armTimer(i, now)
	case 1:
		m.armTimer(i, now.Add(Duration(i+1)*Microsecond))
	case 2:
		m.armTimer(i, now.Add(Duration(i+1)*20*Millisecond))
	case 3:
		m.disarmTimer(i)
	case 4:
		if m.timerArmed(i) {
			m.armTimer(i, now.Add(Duration(2*i+1)*Microsecond))
		}
	default:
		for j := range m.timers {
			m.disarmTimer(j)
		}
	}
}

// scanHeap checks h by linear scan, without the heap code: every
// slot's hidx is its position, every inline key is its node's (At,
// tie-break key), and the root is the (At, key, seq) minimum. It
// returns a description of the first defect, or "".
func scanHeap(o eventOrder, h *nodeHeap) string {
	precedes := func(a, b *eventNode) bool {
		if a.At != b.At {
			return a.At < b.At
		}
		if ka, kb := o.key(a), o.key(b); ka != kb {
			return ka < kb
		}
		return a.seq < b.seq
	}
	for i, it := range h.items {
		n := it.n
		if n.hidx != i {
			return fmt.Sprintf("node at position %d (seq %d) has hidx %d", i, n.seq, n.hidx)
		}
		if it.at != n.At || it.key != o.key(n) {
			return fmt.Sprintf("slot %d holds key (%v, %d) for node (%v, %d)", i, it.at, it.key, n.At, o.key(n))
		}
		if root := h.items[0].n; i > 0 && precedes(n, root) {
			return fmt.Sprintf("node at position %d (%v, seq %d) precedes the root (%v, seq %d)",
				i, n.At, n.seq, root.At, root.seq)
		}
	}
	return ""
}

// scan runs scanHeap over both of the machine's heaps.
func (m *diffMachine) scan() string {
	if msg := scanHeap(m.e.ord, &m.e.q); msg != "" {
		return "event queue: " + msg
	}
	if msg := scanHeap(m.e.ord, &m.e.timers); msg != "" {
		return "timer heap: " + msg
	}
	return ""
}

// diffRun drives both machines, asserts lockstep equivalence and heap
// shape, and returns the common dispatch trace.
func diffRun(t *testing.T, ops []byte, salt uint64) []fireRec {
	t.Helper()
	ref := newDiffMachine(true, salt)
	tim := newDiffMachine(false, salt)
	for i, op := range ops {
		ref.exec(op)
		tim.exec(op)
		if ref.e.Now() != tim.e.Now() {
			t.Fatalf("op %d (%#x): clocks diverged: refTimer %v, Timer %v", i, op, ref.e.Now(), tim.e.Now())
		}
		if ref.e.Pending() != tim.e.Pending() {
			t.Fatalf("op %d (%#x): pending diverged: refTimer %d, Timer %d", i, op, ref.e.Pending(), tim.e.Pending())
		}
		if msg := ref.scan(); msg != "" {
			t.Fatalf("op %d (%#x): refTimer machine: %s", i, op, msg)
		}
		if msg := tim.scan(); msg != "" {
			t.Fatalf("op %d (%#x): Timer machine: %s", i, op, msg)
		}
	}
	ref.e.RunAll()
	tim.e.RunAll()
	for _, m := range []*diffMachine{ref, tim} {
		if m.bodyErr != "" {
			t.Fatalf("plain=%v machine: %s", m.plain, m.bodyErr)
		}
	}
	if ref.e.Fired() != tim.e.Fired() {
		t.Fatalf("fired diverged: refTimer %d, Timer %d", ref.e.Fired(), tim.e.Fired())
	}
	if ref.e.Now() != tim.e.Now() {
		t.Fatalf("final clocks diverged: refTimer %v, Timer %v", ref.e.Now(), tim.e.Now())
	}
	if len(ref.fires) != len(tim.fires) {
		t.Fatalf("trace length diverged: refTimer %d, Timer %d", len(ref.fires), len(tim.fires))
	}
	for i := range ref.fires {
		if ref.fires[i] != tim.fires[i] {
			t.Fatalf("dispatch %d diverged: refTimer fired slot %d at %v, Timer slot %d at %v",
				i, ref.fires[i].slot, ref.fires[i].at, tim.fires[i].slot, tim.fires[i].at)
		}
	}
	return tim.fires
}

// FuzzDiffQueue is the differential fuzz target: arbitrary op streams
// under arbitrary tie-break salts, refTimers vs Timers, identical
// dispatch order and scan-checked heaps required. The seeded corpus
// (testdata/fuzz/FuzzDiffQueue) pins the structurally interesting
// paths: equal-At pinned/unpinned mixes, schedules tens of ms out,
// schedules behind far events after an idle Run, double disarm, timer
// ops during dispatch, and timer arm/re-arm/disarm/fire against
// same-instant ties, and timer bodies that disarm, re-arm or leave
// their own timer while it holds its firing slot.
func FuzzDiffQueue(f *testing.F) {
	f.Add([]byte{0x00, 0x08, 0x10, 0x18}, uint64(0))
	// Same-instant bursts (op 3) mixing pinned and unpinned, salted.
	f.Add([]byte{0x23, 0x23, 0x23, 0x06}, uint64(0xdeadbeef))
	// Far schedules: large op-1 deltas, then drain.
	f.Add([]byte{0xf9, 0xf1, 0xe9, 0x01, 0x1e}, uint64(3))
	// Idle run towards a far event, then near schedules behind it.
	f.Add([]byte{0xf9, 0xff, 0x00, 0x08, 0x1e}, uint64(0))
	// Disarm/re-arm churn, double disarms included.
	f.Add([]byte{0x00, 0x04, 0x04, 0x0c, 0x05, 0x0d, 0x16}, uint64(42))
	// Timers: arm now and near, re-arm, disarm, amid same-instant bursts.
	f.Add([]byte{0x86, 0x8e, 0x96, 0x23, 0xa6, 0x06, 0xde, 0x1e, 0xe6, 0x1e}, uint64(0x71e))
	// Timer bodies that disarm, re-arm or leave their own timer, and arm
	// another for the current instant under a salt.
	f.Add([]byte{0x9e, 0xff, 0x9e, 0xff, 0x8e, 0x96, 0x1e, 0xff}, uint64(0x5a17))
	f.Fuzz(func(t *testing.T, ops []byte, salt uint64) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		diffRun(t, ops, salt)
	})
}

// TestDiffQueueScenarios replays the corpus-style scenarios as plain
// tests so `go test` covers them without the fuzz engine.
func TestDiffQueueScenarios(t *testing.T) {
	scenarios := []struct {
		name string
		ops  []byte
		salt uint64
	}{
		{"near_schedules", []byte{0x00, 0x08, 0x10, 0x18, 0x1e}, 0},
		{"equal_instant_pinned_mix", []byte{0x23, 0x2b, 0x23, 0x1a, 0x06}, 0xdeadbeef},
		{"far_schedules", []byte{0xf9, 0xf1, 0xe9, 0xd9, 0x01, 0x1e}, 3},
		{"schedule_after_idle_run", []byte{0xf9, 0xff, 0x00, 0x08, 0x1e}, 0},
		{"cancel_churn", []byte{0x00, 0x04, 0x04, 0x0c, 0x05, 0x0d, 0x16, 0x1e}, 42},
		{"kitchen_sink_salted", []byte{0x23, 0xf9, 0x0c, 0x2b, 0xff, 0x08, 0x05, 0x16, 0x1e, 0x23}, 0x5eed},
		// Timers armed now, near and far, then re-armed, disarmed and
		// fired through bursts, bounded runs and an idle run.
		{"timer_arm_rearm_fire", []byte{0x86, 0x8e, 0x96, 0x9e, 0xa6, 0xae, 0x23, 0xce, 0xd6, 0x1e, 0x1e, 0xff, 0x86, 0x1e}, 0},
		{"timer_disarm_salted", []byte{0x8e, 0x96, 0xb6, 0x23, 0xbe, 0xc6, 0x2b, 0xf6, 0x8e, 0x1e, 0x3f}, 0xfeed},
		// Timer 0's periodic body, re-armed between long runs: its fires
		// re-arm, disarm-then-re-arm and re-arm-then-disarm itself.
		{"timer_body_self_disarm", []byte{0x9e, 0xff, 0x9e, 0xff, 0x9e, 0x1e, 0xff, 0x9e, 0xff}, 0},
		// Timers 1 and 2 arm each other for the current instant under a
		// salt, so an armed timer can sift above the firing slot.
		{"timer_body_sift_above_salted", []byte{0x8e, 0x96, 0x1e, 0x8e, 0x23, 0x96, 0x1e, 0xff, 0x8e, 0x86, 0x96, 0xff}, 0x5a17},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			fires := diffRun(t, sc.ops, sc.salt)
			if strings.HasPrefix(sc.name, "timer_") {
				timerFires := 0
				for _, f := range fires {
					if f.slot < 0 {
						timerFires++
					}
				}
				if timerFires == 0 {
					t.Fatalf("timer scenario fired no timer (%d dispatches)", len(fires))
				}
				t.Logf("%d dispatches, %d timer fires", len(fires), timerFires)
			}
		})
	}
}

// TestDiffQueueSaltSweep pushes one dense op stream through a sweep of
// salts: every salt permutes ties differently, and Timers and refTimers
// must agree on every permutation.
func TestDiffQueueSaltSweep(t *testing.T) {
	ops := []byte{0x23, 0x00, 0x23, 0x08, 0x2b, 0x06, 0x23, 0x1e}
	for salt := uint64(0); salt < 16; salt++ {
		diffRun(t, ops, salt)
	}
}

// TestDiffQueueDenseRandomStream feeds a long RNG-generated stream
// (fixed seed) through the harness — a cheap standing approximation of
// a fuzz session inside the regular test suite.
func TestDiffQueueDenseRandomStream(t *testing.T) {
	rng := NewRNG(0xd1ff)
	ops := make([]byte, 2000)
	for i := range ops {
		ops[i] = byte(rng.Uint64())
	}
	diffRun(t, ops, 0)
	diffRun(t, ops, 0x9e3779b9)
}
