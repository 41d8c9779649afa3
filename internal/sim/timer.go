package sim

import "fmt"

// Timer is a re-armable, single-owner event. Its owner binds the
// timer's identity once — snapshot tag, same-instant arbitration class
// and body — and then arms, re-arms and disarms it for the rest of the
// run. It is the engine's only owned, cancellable or pinned kind of
// event: one-shot events (Schedule/After) are fire-and-forget. A Timer
// embeds its own node, so it never touches the event pool or the
// one-shot queue: armed timers' nodes sit in the Engine's timer heap (a
// few per simulated CPU, plus the machine's global tick), and the
// dispatch loop takes whichever of the one-shot head and the timer head
// comes first in eventOrder.
//
// Arming takes a fresh sequence number exactly as Schedule does, and
// disarming takes none. So arm, re-arm and disarm realise the same
// (At, key, seq) total order as removing a queued event and scheduling
// a new one would, under any tie-break salt: a timer is an event whose
// owner holds it. A timer fires in place (see fireTimer), which keeps
// that order and makes a periodic re-arm one heap sift. The tests hold
// Timer to exactly that model, a
// one-shot in the engine's queue (refTimer in diffqueue_test.go and
// snapshot_test.go). See DESIGN.md §5 "Event queue internals".
//
// The zero Timer is disarmed and has no body; Init must run before the
// first ArmTimer. A Timer must not be copied once initialised.
type Timer struct {
	// n is the timer's node: At and seq are the armed occurrence, tag,
	// pinned and fn are bound by Init. state is nodePending while armed
	// and nodeFree while disarmed; the node is never on a pool free
	// list. While armed, and while its body runs (Engine.firing), n.hidx
	// is its slot in Engine.timers.
	n eventNode
}

// Init binds the timer's snapshot tag, arbitration class and body. A
// pinned timer keeps FIFO order against other pinned events at the same
// instant under a tie-break perturbation (see PerturbTiebreaks); pin
// only a timer that models a concrete hardware arbitration, and say
// which at the Init site. It panics on an armed timer or a nil body;
// it must not run from the timer's own body, whose node still holds its
// heap slot.
func (t *Timer) Init(tag EventTag, pinned bool, fn func()) {
	if t.Armed() {
		panic("sim: Timer.Init on an armed timer")
	}
	if fn == nil {
		panic("sim: Timer.Init with nil callback")
	}
	t.n = eventNode{tag: tag, pinned: pinned, fn: fn}
}

// Armed reports whether the timer is waiting to fire. A timer is
// disarmed while its body runs, so the body may re-arm it; its node
// only keeps its heap slot so that the re-arm is one sift (fireTimer).
func (t *Timer) Armed() bool { return t.n.state == nodePending }

// ArmTimer arms t to fire at at, re-arming it if it is already armed.
// Like schedule, it takes the next sequence number, so the timer's
// place among same-instant events is that of an event scheduled now.
// Arming in the past panics.
//
//simlint:hotpath
func (e *Engine) ArmTimer(t *Timer, at Time) {
	if at < e.now {
		panic(fmt.Sprintf("sim: ArmTimer at %v before now %v", at, e.now))
	}
	if t.n.fn == nil {
		panic("sim: ArmTimer on a timer without a body (Init not called)")
	}
	t.n.At = at
	t.n.seq = e.nextSeq
	e.nextSeq++
	switch {
	case t.Armed():
		e.timers.fix(t.n.hidx, e.ord.item(&t.n))
	case e.firing == &t.n:
		// Re-armed from its own body: re-key its slot in place.
		e.firing = nil
		t.n.state = nodePending
		e.timers.fix(t.n.hidx, e.ord.item(&t.n))
	default:
		t.n.state = nodePending
		e.timers.push(e.ord.item(&t.n))
	}
	e.sanOnSchedule(&t.n)
}

// DisarmTimer stops t from firing. Disarming a disarmed timer is a
// no-op. The timer keeps its body and tag for the next ArmTimer.
//
//simlint:hotpath
func (e *Engine) DisarmTimer(t *Timer) {
	if !t.Armed() {
		return
	}
	e.timers.remove(t.n.hidx)
	t.n.state = nodeFree
	e.sanOnDisarm(t)
}

// fireTimer dispatches n, the timer-heap head, which the dispatch loop
// picked as the next pending event. The timer is disarmed while its
// body runs, but its node stays at its heap slot, recorded in
// e.firing: a body that re-arms its own timer (a periodic tick) re-keys
// that slot in one sift. If the body leaves the timer disarmed, the
// slot is removed after the body returns — by its hidx, not as the
// root, because under a salt a timer the body arms for the current
// instant can sift above it.
func (e *Engine) fireTimer(n *eventNode) {
	e.sanOnPop(n)
	n.state = nodeFree
	e.firing = n
	e.fired++
	n.fn()
	if e.firing == n {
		e.firing = nil
		e.timers.remove(n.hidx)
	}
}

// RestoreTimer re-arms a timer from a snapshot's pending event, keeping
// the occurrence's original fire time and sequence number, like
// RestoreEvent. The event must be the timer's own: same kind, arguments
// and arbitration class, and the timer must be disarmed (a decoding Visit
// disarms every timer); a mismatch is an error naming both.
func (e *Engine) RestoreTimer(t *Timer, rev RestoredEvent) error {
	if t.n.fn == nil {
		panic(fmt.Sprintf("sim: RestoreTimer %q on a timer without a body", rev.Kind))
	}
	if rev.At < e.now {
		panic(fmt.Sprintf("sim: RestoreTimer %q at %v before now %v", rev.Kind, rev.At, e.now))
	}
	if rev.Seq >= e.nextSeq {
		panic(fmt.Sprintf("sim: RestoreTimer %q seq %d not below next sequence %d", rev.Kind, rev.Seq, e.nextSeq))
	}
	tag := t.n.tag
	if tag.Kind.String() != rev.Kind || tag.A0 != rev.A0 || tag.A1 != rev.A1 || tag.A2 != rev.A2 || t.n.pinned != rev.Pinned {
		return fmt.Errorf("sim: restore: event %s(%d,%d,%d) pinned=%v does not match its timer %s(%d,%d,%d) pinned=%v",
			rev.Kind, rev.A0, rev.A1, rev.A2, rev.Pinned, tag.Kind, tag.A0, tag.A1, tag.A2, t.n.pinned)
	}
	if t.Armed() {
		return fmt.Errorf("sim: restore: timer %s(%d,%d,%d) has two pending events", rev.Kind, rev.A0, rev.A1, rev.A2)
	}
	t.n.At = rev.At
	t.n.seq = rev.Seq
	t.n.state = nodePending
	e.timers.push(e.ord.item(&t.n))
	e.sanOnSchedule(&t.n)
	return nil
}
