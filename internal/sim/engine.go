package sim

import "fmt"

// Engine runs a discrete-event simulation. It is not safe for concurrent
// use: the whole simulation is single-threaded and deterministic by design
// (real SMP hardware is modelled, not exploited).
//
// The hot path is allocation-free: one-shot event storage comes from a
// free-list pool (EventPool), Timers embed their own node, and both
// kinds wait in indexed binary heaps (nodeHeap) with O(log n) push and
// pop. Each dispatched event costs one heap pass: one peek picks it, a
// one-shot is popped, and a timer fires in place (see fireTimer). None
// of it is visible in results — the dispatch order is the eventOrder
// total order regardless of node recycling or heap layout.
type Engine struct {
	now Time
	// q holds the pending one-shot events, ordered by ord.
	q nodeHeap
	// timers holds the armed Timers' embedded nodes, ordered by ord.
	// Dispatch merges its head with q's.
	timers nodeHeap
	// firing is the node of the Timer whose body is running, left at
	// its timer-heap slot so that a re-arm from the body is one fix
	// there; nil when no timer body runs or once the body re-armed it.
	firing *eventNode
	// pool recycles event nodes; possibly shared with other engines on
	// the same goroutine (see runner.MapSeededPooled).
	pool *EventPool
	// ord is the dispatch total order, duplicated from the queue so the
	// sanitizer can compute tie-break keys.
	ord     eventOrder
	nextSeq uint64
	rng     *RNG
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
	return &Engine{pool: pool, rng: NewRNG(seed)}
}

// NextEventTime returns the fire time of the earliest pending event or
// armed timer, or ok == false when nothing is pending. It never
// advances the clock.
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
// events whose arbitration order is not pinned (every one-shot event,
// and every Timer not initialised as pinned) dispatch in a seeded
// pseudo-random permutation of their FIFO order instead of FIFO.
// salt == 0 restores plain FIFO. A perturbation-invariant model
// produces bit-identical results for every salt; a divergence under some
// salt is a tie-break race — a result that silently depends on the
// processing order of simultaneous events. The harness around this knob
// lives in internal/runner (Perturb) and cmd/reprocheck (-perturb).
//
// The perturbation must be installed before anything is scheduled (the
// queue is ordered by the tie-break key, so changing the key under queued
// events would corrupt it); installing it later panics.
func (e *Engine) PerturbTiebreaks(salt uint64) {
	if e.Pending() > 0 {
		panic("sim: PerturbTiebreaks after events were scheduled")
	}
	e.ord.salt = salt
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic random source.
func (e *Engine) RNG() *RNG { return e.rng }

// Fired returns the number of events dispatched so far, timer firings
// included.
func (e *Engine) Fired() uint64 { return e.fired }

// Schedule queues fn to run at time at. Scheduling in the past panics:
// it always indicates a model bug, never valid input. A scheduled event
// is fire-and-forget: nothing can cancel or move it. An event its owner
// re-arms or disarms is a Timer.
//
// If another event is already queued for the same instant, the two fire
// in FIFO order by default — but that order is NOT part of the model's
// contract: under a tie-break perturbation (PerturbTiebreaks) it is
// permuted, and results must not change. An event whose same-instant
// ordering is semantically meaningful (it models a concrete hardware
// arbitration) must be a pinned Timer instead.
func (e *Engine) Schedule(at Time, fn func()) {
	e.schedule(at, fn, EventTag{})
}

// ScheduleTagged is Schedule with a registered event kind and its
// constructor arguments attached. Tagged events survive
// snapshot/restore: Engine.Visit serialises (kind name, args) and the
// restore side rebuilds the callback through the kind's registered
// constructor. Production schedule sites that can be live at a
// checkpoint must use the tagged variants; anonymous closures are for
// tests and run-to-completion tooling only.
func (e *Engine) ScheduleTagged(at Time, tag EventTag, fn func()) {
	e.schedule(at, fn, tag)
}

// schedule is the common push path behind Schedule/After: pool node
// out, fields in, queue push. It is a hot-path root for the hotalloc
// analyzer — everything reachable from here must be allocation-free in
// steady state.
//
//simlint:hotpath
func (e *Engine) schedule(at Time, fn func(), tag EventTag) {
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
	n.tag = tag
	e.nextSeq++
	e.q.push(e.ord.item(n))
	e.sanOnSchedule(n)
}

// After queues fn to run d from now (d < 0 is clamped to now).
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.Schedule(e.now.Add(d), fn)
}

// AfterTagged is After with a snapshot tag; see ScheduleTagged.
func (e *Engine) AfterTagged(d Duration, tag EventTag, fn func()) {
	if d < 0 {
		d = 0
	}
	e.ScheduleTagged(e.now.Add(d), tag, fn)
}

// next returns the next pending node without removing it — the lesser
// in eventOrder of the one-shot head and the timer-heap head — and
// whether it is the timer head. It is the dispatch loop's one peek per
// event, so it does not skip a firing timer's slot: the loop calls it
// only between events, when no body is running.
func (e *Engine) next() (n *eventNode, timer bool) {
	q, t := e.q.items, e.timers.items
	if len(t) > 0 && (len(q) == 0 || t[0].before(&q[0])) {
		return t[0].n, true
	}
	if len(q) > 0 {
		return q[0].n, false
	}
	return nil, false
}

// peekLive returns the next pending node, like next, but also from
// inside a timer body, where the firing timer's slot is in the heap but
// not pending. That slot keeps heap order, so the least other timer is
// the root or, when the firing slot is the root, one of its children.
func (e *Engine) peekLive() *eventNode {
	var best *heapItem
	if len(e.q.items) > 0 {
		best = &e.q.items[0]
	}
	for i := range min(3, len(e.timers.items)) {
		if it := &e.timers.items[i]; it.n != e.firing && (best == nil || it.before(best)) {
			best = it
		}
	}
	if best == nil {
		return nil
	}
	return best.n
}

// maxTime is the last representable instant: Step and RunAll dispatch
// with no time bound.
const maxTime = Time(1<<63 - 1)

// dispatch fires pending events in eventOrder while the next one is due
// at or before until, moving the clock to each event's instant — so
// events that callbacks schedule for the current instant join it in
// tie-break order. With one set it returns after the first event;
// otherwise Stop ends it after the current event. It reports whether
// anything fired. Run, RunAll and Step share it, and it is the hot-path
// root for the hotalloc analyzer (user callbacks are not pulled in: they
// resolve through the node's fn field, which the call graph deliberately
// leaves opaque).
//
//simlint:hotpath
func (e *Engine) dispatch(until Time, one bool) bool {
	if e.firing != nil {
		panic("sim: Run, RunAll or Step called from a timer body")
	}
	for fired := false; ; fired = true {
		n, timer := e.next()
		if n == nil || n.At > until {
			return fired
		}
		e.sanOnAdvance(n.At)
		e.now = n.At
		if timer {
			e.fireTimer(n)
		} else {
			e.fireOneShot(n)
		}
		if one || e.stopped {
			return true
		}
	}
}

// fireOneShot dispatches n, the one-shot queue's head. The node is
// recycled *before* the callback runs, so the callback may schedule
// into the node it came from.
func (e *Engine) fireOneShot(n *eventNode) {
	e.q.remove(0)
	e.sanOnPop(n)
	fn := n.fn
	e.fired++
	e.pool.put(n)
	fn()
}

// Step dispatches the next event. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	return e.dispatch(maxTime, true)
}

// Run dispatches events until the queue is empty, until is reached, or
// Stop is called. Events at exactly until still fire. It returns the time
// the engine stopped at.
func (e *Engine) Run(until Time) Time {
	e.stopped = false
	e.dispatch(until, false)
	if e.now < until && !e.stopped {
		e.now = until
	}
	return e.now
}

// RunAll dispatches events until the queue drains or Stop is called.
func (e *Engine) RunAll() Time {
	e.stopped = false
	e.dispatch(maxTime, false)
	return e.now
}

// Stop makes the current Run/RunAll return after the current event.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop interrupted the last Run/RunAll (and the
// stop has not been cleared by a subsequent Run). The bisection replayer
// uses it to tell "budget exhausted" from "queue drained".
func (e *Engine) Stopped() bool { return e.stopped }

// Pending returns the number of queued events, armed timers included.
// A timer whose body is running is not pending unless the body re-armed
// it.
func (e *Engine) Pending() int {
	n := len(e.q.items) + len(e.timers.items)
	if e.firing != nil {
		n--
	}
	return n
}
