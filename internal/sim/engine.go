package sim

import "fmt"

// Engine runs a discrete-event simulation. It is not safe for concurrent
// use: the whole simulation is single-threaded and deterministic by design
// (real SMP hardware is modelled, not exploited).
//
// The hot path is allocation-free: event storage comes from a free-list
// pool (EventPool) and the queue is a two-level ladder (ladderQueue)
// with O(1) amortised push/pop. Both are invisible in results — the
// dispatch order is the eventOrder total order regardless of node
// recycling, and the in-package tests hold the ladder to a reference
// heap to prove it.
type Engine struct {
	now Time
	// q holds pending (and lazily-cancelled) events.
	q eventQueue
	// timers is the min-heap of armed Timers, ordered by ord; each
	// timer's hidx is its position. Dispatch merges its head with q's.
	timers []*Timer
	// pool recycles event nodes; possibly shared with other engines on
	// the same goroutine (see runner.MapSeededPooled).
	pool *EventPool
	// ord is the dispatch total order, duplicated from the queue so the
	// sanitizer can compute tie-break keys.
	ord     eventOrder
	nextSeq uint64
	// live counts queued events that are still pending (not cancelled)
	// plus armed timers.
	live int
	rng  *RNG
	// Stopped is set by Stop and checked by Run.
	stopped bool
	// fired counts events dispatched, for diagnostics and budget checks.
	fired uint64
	// san is the build-tag-gated sanitizer state: a zero-size no-op
	// under the default build, shadow-check state under -tags simsan.
	san sanState
}

// NewEngine returns an engine at time 0 with an RNG seeded from seed
// and a private event pool.
func NewEngine(seed uint64) *Engine {
	return NewEngineWithPool(seed, nil)
}

// NewEngineWithPool is NewEngine drawing event nodes from pool; nil
// means a private pool. Sharing a pool across engines is safe only when
// the engines run on the same goroutine (the replication runner owns
// one pool per worker); pooling never affects results.
func NewEngineWithPool(seed uint64, pool *EventPool) *Engine {
	if pool == nil {
		pool = NewEventPool()
	}
	return &Engine{q: newLadderQueue(), pool: pool, rng: NewRNG(seed)}
}

// NextEventTime returns the fire time of the earliest pending event or
// armed timer, or ok == false when nothing is pending. It drains lazily-cancelled
// queue heads like any dispatch would, but never advances the clock.
func (e *Engine) NextEventTime() (Time, bool) {
	n := e.peekLive()
	if n == nil {
		return 0, false
	}
	return n.At, true
}

// PoolStats returns a snapshot of the engine's event-pool counters.
func (e *Engine) PoolStats() PoolStats { return e.pool.Stats() }

// PerturbTiebreaks installs a tie-break perturbation: same-instant
// events whose arbitration order is not pinned (Schedule/After) dispatch
// in a seeded pseudo-random permutation of their FIFO order instead of
// FIFO. salt == 0 restores plain FIFO. A perturbation-invariant model
// produces bit-identical results for every salt; a divergence under some
// salt is a tie-break race — a result that silently depends on the
// processing order of simultaneous events. The harness around this knob
// lives in internal/runner (Perturb) and cmd/reprocheck (-perturb).
//
// The perturbation must be installed before anything is scheduled (the
// queue is ordered by the tie-break key, so changing the key under queued
// events would corrupt it); installing it later panics.
func (e *Engine) PerturbTiebreaks(salt uint64) {
	if e.q.len() > 0 || len(e.timers) > 0 {
		panic("sim: PerturbTiebreaks after events were scheduled")
	}
	e.ord.salt = salt
	e.q.setSalt(salt)
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic random source.
func (e *Engine) RNG() *RNG { return e.rng }

// Fired returns the number of events dispatched so far, timer firings
// included.
func (e *Engine) Fired() uint64 { return e.fired }

// Schedule queues fn to run at time at. Scheduling in the past panics:
// it always indicates a model bug, never valid input.
//
// If another event is already queued for the same instant, the two fire
// in FIFO order by default — but that order is NOT part of the model's
// contract: under a tie-break perturbation (PerturbTiebreaks) it is
// permuted, and results must not change. A schedule site whose
// same-instant ordering is semantically meaningful (it models a concrete
// hardware arbitration) must use SchedulePinned instead.
func (e *Engine) Schedule(at Time, fn func()) Event {
	return e.schedule(at, fn, false, EventTag{})
}

// ScheduleTagged is Schedule with a registered event kind and its
// constructor arguments attached. Tagged events survive
// snapshot/restore: SnapshotTo serialises (kind name, args) and the
// restore side rebuilds the callback through the kind's registered
// constructor. Production schedule sites that can be live at a
// checkpoint must use the tagged variants; anonymous closures are for
// tests and run-to-completion tooling only.
func (e *Engine) ScheduleTagged(at Time, tag EventTag, fn func()) Event {
	return e.schedule(at, fn, false, tag)
}

// SchedulePinned is Schedule for events whose same-instant FIFO
// arbitration is a declared part of the model: tie-break perturbation
// leaves the relative order of pinned events untouched. Use it
// sparingly, and document at the call site which hardware arbitration
// the FIFO order stands in for — pinned sites are exactly the schedule
// points the tie-break race detector cannot check.
func (e *Engine) SchedulePinned(at Time, fn func()) Event {
	return e.schedule(at, fn, true, EventTag{})
}

// SchedulePinnedTagged is SchedulePinned with a snapshot tag; see
// ScheduleTagged.
func (e *Engine) SchedulePinnedTagged(at Time, tag EventTag, fn func()) Event {
	return e.schedule(at, fn, true, tag)
}

// schedule is the common push path behind Schedule/After and their
// Pinned variants: pool node out, fields in, queue push. It is a
// hot-path root for the hotalloc analyzer — everything reachable from
// here must be allocation-free in steady state.
//
//simlint:hotpath
func (e *Engine) schedule(at Time, fn func(), pinned bool, tag EventTag) Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: schedule nil callback")
	}
	n := e.pool.get()
	n.At = at
	n.seq = e.nextSeq
	n.fn = fn
	n.pinned = pinned
	n.tag = tag
	e.nextSeq++
	e.q.push(n)
	e.live++
	e.sanOnSchedule(n)
	return Event{n: n, gen: n.gen}
}

// After queues fn to run d from now (d < 0 is clamped to now).
func (e *Engine) After(d Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now.Add(d), fn)
}

// AfterTagged is After with a snapshot tag; see ScheduleTagged.
func (e *Engine) AfterTagged(d Duration, tag EventTag, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.ScheduleTagged(e.now.Add(d), tag, fn)
}

// AfterPinned is After with pinned same-instant arbitration; see
// SchedulePinned.
func (e *Engine) AfterPinned(d Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.SchedulePinned(e.now.Add(d), fn)
}

// AfterPinnedTagged is AfterPinned with a snapshot tag; see
// ScheduleTagged.
func (e *Engine) AfterPinnedTagged(d Duration, tag EventTag, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.SchedulePinnedTagged(e.now.Add(d), tag, fn)
}

// checkGen panics if a handle claims a generation its node has not
// reached. That can only happen through handle forgery or memory
// corruption — a real stale handle is always *behind* the node, because
// the pool bumps the generation on every recycle.
func checkGen(ev Event) {
	if ev.n != nil && ev.gen > ev.n.gen {
		panic(fmt.Sprintf(
			"sim: event handle generation mismatch: handle gen %d ahead of node gen %d",
			ev.gen, ev.n.gen))
	}
}

// Cancel removes a pending event.
//
// The contract is explicit: Cancel is a no-op unless the handle is
// still Pending. In particular (a) the zero Event, (b) a handle whose
// event already fired, (c) a handle cancelled before — including a
// cancel issued by a callback running in the same dispatch batch — and
// (d) a handle whose node was recycled for an unrelated event are all
// safe no-ops, detected by the generation check, never by pointer
// comparison or queue-position conventions. Callers can therefore
// cancel unconditionally. Cancellation is lazy: the node stays queued
// until the queue surfaces it, at which point it is skipped and
// recycled.
func (e *Engine) Cancel(ev Event) {
	checkGen(ev)
	if !ev.Pending() {
		return
	}
	ev.n.state = nodeCancelled
	ev.n.fn = nil
	e.live--
	e.sanOnCancel(ev.n)
}

// Reschedule moves a pending event to a new time, preserving its
// callback, its pinned/unpinned arbitration class and its snapshot tag.
// If the event already fired or was cancelled it returns the zero
// Event; otherwise it returns the new handle.
func (e *Engine) Reschedule(ev Event, at Time) Event {
	checkGen(ev)
	if !ev.Pending() {
		return Event{}
	}
	fn, pinned, tag := ev.n.fn, ev.n.pinned, ev.n.tag
	e.Cancel(ev)
	return e.schedule(at, fn, pinned, tag)
}

// peekLive returns the next pending node without removing it: the
// lesser in eventOrder of the ladder head and the timer-heap head. It
// drains and recycles lazily-cancelled ladder nodes on the way, but
// only once they are the overall minimum, so every removal — cancelled
// or fired, from either structure — leaves nothing smaller behind.
// Cancelled nodes still route through the sanitizer's pop-order check:
// their removal position is part of the total order too.
func (e *Engine) peekLive() *eventNode {
	for {
		n := e.q.peek()
		if len(e.timers) > 0 {
			if t := &e.timers[0].n; n == nil || e.ord.less(t, n) {
				return t
			}
		}
		if n == nil || n.state != nodeCancelled {
			return n
		}
		e.q.pop()
		e.sanOnPop(n)
		e.pool.put(n)
	}
}

// fireHead dispatches n, the pending node peekLive just returned: the
// timer-heap head or the ladder head. A ladder node is recycled
// *before* the callback runs, so every outstanding handle to it is
// already stale inside the callback — a callback that cancels its own
// event is a detected no-op, not a heap corruption.
func (e *Engine) fireHead(n *eventNode) {
	if len(e.timers) > 0 && n == &e.timers[0].n {
		e.fireTimer()
		return
	}
	e.q.pop()
	e.live--
	e.sanOnPop(n)
	fn := n.fn
	e.fired++
	e.pool.put(n)
	fn()
}

// runBatch sets the clock to at and dispatches every event at exactly
// that instant in one pass — including events the callbacks themselves
// schedule for the current instant, which join the batch in tie-break
// order. Stop interrupts the batch after the current event. It is a
// hot-path root for the hotalloc analyzer (the dispatch loop itself;
// user callbacks are not pulled in — they resolve through the node's
// fn field, which the call graph deliberately leaves opaque).
//
//simlint:hotpath
func (e *Engine) runBatch(at Time) {
	e.sanOnAdvance(at)
	e.now = at
	for !e.stopped {
		n := e.peekLive()
		if n == nil || n.At != at {
			return
		}
		e.fireHead(n)
	}
}

// Step dispatches the next event. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	n := e.peekLive()
	if n == nil {
		return false
	}
	e.sanOnAdvance(n.At)
	e.now = n.At
	e.fireHead(n)
	return true
}

// Run dispatches events until the queue is empty, until is reached, or
// Stop is called. Events at exactly until still fire. It returns the time
// the engine stopped at.
func (e *Engine) Run(until Time) Time {
	e.stopped = false
	for !e.stopped {
		next := e.peekLive()
		if next == nil || next.At > until {
			break
		}
		e.runBatch(next.At)
	}
	if e.now < until && !e.stopped {
		e.now = until
	}
	return e.now
}

// RunAll dispatches events until the queue drains or Stop is called.
func (e *Engine) RunAll() Time {
	e.stopped = false
	for !e.stopped {
		next := e.peekLive()
		if next == nil {
			break
		}
		e.runBatch(next.At)
	}
	return e.now
}

// Stop makes the current Run/RunAll return after the current event.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop interrupted the last Run/RunAll (and the
// stop has not been cleared by a subsequent Run). The bisection replayer
// uses it to tell "budget exhausted" from "queue drained".
func (e *Engine) Stopped() bool { return e.stopped }

// Pending returns the number of queued events that are still pending,
// armed timers included (cancelled-but-not-yet-drained events are not
// counted).
func (e *Engine) Pending() int { return e.live }
