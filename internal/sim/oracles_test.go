package sim

import "fmt"

// Test-only oracles for the engine's production mechanisms: the
// no-recycle pool the free-list pool is benchmarked against, and the
// remove-plus-schedule model of a Timer (refTimer) that the timer heap
// is diffed against. withAllocPool installs the first on a fresh
// engine.

// withAllocPool swaps e's pool for one in reference (no-recycle) mode:
// every event allocates a fresh node. Call it before anything is
// scheduled.
func withAllocPool(e *Engine) *Engine {
	if e.Pending() > 0 {
		panic("sim: withAllocPool on a used engine")
	}
	e.pool = newAllocPool()
	return e
}

// newAllocPool returns a pool in reference (no-recycle) mode.
func newAllocPool() *EventPool { return &EventPool{disabled: true} }

// refTimer is the reference model of a Timer: an owner-held one-shot in
// the engine's one-shot queue. Arming removes the pending occurrence,
// if any, and queues a fresh one with the next sequence number;
// disarming only removes. That is the order argument behind Timer, so
// a Timer and a refTimer driven by the same calls must dispatch
// identically (the diff and snapshot harnesses hold them to it). Unlike
// production one-shots, a refTimer's occurrence may be pinned.
type refTimer struct {
	tag    EventTag
	pinned bool
	// fire is the occurrence callback: it clears n, then runs the body,
	// so n never points at a recycled pool node.
	fire func()
	// n is the pending occurrence, nil when disarmed.
	n *eventNode
}

// init binds the timer's tag, arbitration class and body, like
// Timer.Init.
func (t *refTimer) init(tag EventTag, pinned bool, fn func()) {
	t.tag, t.pinned = tag, pinned
	t.fire = func() {
		t.n = nil
		fn()
	}
}

// arm queues the timer's occurrence at at, replacing a pending one.
func (t *refTimer) arm(e *Engine, at Time) {
	t.disarm(e)
	t.restore(e, at, e.nextSeq)
	e.nextSeq++
}

// restore queues the occurrence with an explicit sequence number, the
// model of RestoreTimer.
func (t *refTimer) restore(e *Engine, at Time, seq uint64) {
	if at < e.now {
		panic(fmt.Sprintf("sim: refTimer armed at %v before now %v", at, e.now))
	}
	n := e.pool.get()
	n.At, n.seq, n.fn, n.pinned, n.tag = at, seq, t.fire, t.pinned, t.tag
	t.n = n
	e.q.push(e.ord.item(n))
	e.sanOnSchedule(n)
}

// disarm removes the pending occurrence, if any, from e's one-shot
// queue and recycles its node.
func (t *refTimer) disarm(e *Engine) {
	if t.n == nil {
		return
	}
	if i := t.n.hidx; i >= len(e.q.items) || e.q.items[i].n != t.n {
		panic("sim: refTimer occurrence missing from the event queue")
	}
	e.q.remove(t.n.hidx)
	e.pool.put(t.n)
	t.n = nil
}

func (t *refTimer) armed() bool { return t.n != nil }
