//go:build simsan

package sim

import "fmt"

// sanState is the simsan shadow checker (-tags simsan): a second,
// independent bookkeeper of the engine's ordering contract. The event
// heaps and the pooled allocator sit on the hottest path, so the
// sanitizer re-checks their externally visible guarantees on every
// operation instead of trusting them:
//
//   - virtual time is monotone: no event fires before the clock,
//   - pops are globally ordered: every queue minimum removed is >= the
//     previous one in (At, tie-break key), and nothing smaller is left
//     behind in either the one-shot queue or the timer heap,
//   - both heaps stay valid — order, back-indices, inline keys that
//     match their nodes, and every node pending with a callback except
//     a firing timer's slot (checked in full periodically, so
//     corruption is caught near its cause rather than at the end),
//   - the event pool stays consistent: free-list nodes are actually
//     free and callback-less.
//
// A violation panics with the evidence; simsan is a test configuration
// (CI's sanitize job runs `go test -tags simsan ./...`), so failing loud
// and early is the point.
type sanState struct {
	popped  bool
	lastAt  Time
	lastKey uint64
	pops    uint64
}

// sanValidateEvery is how many pops pass between full O(n) queue and
// pool validations. Power of two so the modulo folds to a mask.
const sanValidateEvery = 1024

func (e *Engine) sanOnSchedule(n *eventNode) {
	if n.At < e.now {
		panic(fmt.Sprintf("simsan: event scheduled at %v, before now %v", n.At, e.now))
	}
	if n.state != nodePending {
		panic(fmt.Sprintf("simsan: scheduled node (seq %d) in state %s, want pending", n.seq, n.state))
	}
	if n.fn == nil {
		panic(fmt.Sprintf("simsan: scheduled node (seq %d) has no callback", n.seq))
	}
	// A callback may legally schedule a new event for the current
	// instant whose perturbed tie-break key sorts below the event just
	// popped; lower the pop-order floor so that is not misreported.
	// (With salt == 0 keys are sequence numbers, which only grow, so the
	// floor never moves.)
	if e.san.popped && n.At == e.san.lastAt {
		if k := e.ord.key(n); k < e.san.lastKey {
			e.san.lastKey = k
		}
	}
}

// sanOnDisarm checks a disarmed timer: it keeps its body for the next
// arm, and it must have left the timer heap.
func (e *Engine) sanOnDisarm(t *Timer) {
	if t.Armed() {
		panic(fmt.Sprintf("simsan: disarmed timer %s still in state %s", t.n.tag.Kind, t.n.state))
	}
	if t.n.fn == nil {
		panic(fmt.Sprintf("simsan: disarmed timer %s lost its callback", t.n.tag.Kind))
	}
	if i := t.n.hidx; i < len(e.timers.items) && e.timers.items[i].n == &t.n {
		panic(fmt.Sprintf("simsan: disarmed timer %s still in the timer heap at %d", t.n.tag.Kind, i))
	}
	if e.firing == &t.n {
		panic(fmt.Sprintf("simsan: disarmed timer %s still holds the firing slot", t.n.tag.Kind))
	}
}

// sanOnAdvance guards the clock before the dispatch loop moves it to
// the next event's instant.
func (e *Engine) sanOnAdvance(at Time) {
	if at < e.now {
		panic(fmt.Sprintf("simsan: dispatch at %v, before now %v — virtual clock would regress", at, e.now))
	}
}

func (e *Engine) sanOnPop(n *eventNode) {
	if n.At < e.now {
		panic(fmt.Sprintf("simsan: popped event at %v, before now %v — virtual clock would regress", n.At, e.now))
	}
	if n.state == nodeFree {
		panic(fmt.Sprintf("simsan: popped node (seq %d) is on the free list", n.seq))
	}
	// Local minimality: a pop must never leave a smaller node behind in
	// either heap. This holds for every pop — one-shot or timer —
	// because the engine only removes the lesser of the two heads.
	if m := e.q.peek(); m != nil && e.ord.less(m, n) {
		panic(fmt.Sprintf("simsan: pop order violation: (%v, key %d) popped while (%v, key %d) still queued",
			n.At, e.ord.key(n), m.At, e.ord.key(m)))
	}
	if m := e.timers.peek(); m != nil && e.ord.less(m, n) {
		panic(fmt.Sprintf("simsan: pop order violation: (%v, key %d) popped while timer %s (%v, key %d) still armed",
			n.At, e.ord.key(n), m.tag.Kind, m.At, e.ord.key(m)))
	}
	key := e.ord.key(n)
	if e.san.popped && (n.At < e.san.lastAt || (n.At == e.san.lastAt && key < e.san.lastKey)) {
		panic(fmt.Sprintf("simsan: pop order violation: (%v, key %d) after (%v, key %d)",
			n.At, key, e.san.lastAt, e.san.lastKey))
	}
	e.san.popped = true
	e.san.lastAt = n.At
	e.san.lastKey = key
	e.sanCountPop()
}

// sanOnRestore resets the pop-order watermark after a snapshot restore:
// restore drains the freshly-constructed machine's boot events (whose
// pops can push the (At, key) watermark arbitrarily far ahead) and then
// re-seeds the queue with the checkpoint's pending events, which may
// legitimately fire earlier than the drained boot tail.
func (e *Engine) sanOnRestore() {
	e.san.popped = false
	e.san.lastAt = 0
	e.san.lastKey = 0
}

// sanCountPop ticks the pop counter and runs the periodic full audit.
func (e *Engine) sanCountPop() {
	e.san.pops++
	if e.san.pops%sanValidateEvery == 0 {
		e.sanValidate()
	}
}

// sanValidate runs the full O(n) structural audit: both heaps' order,
// back-indices and node states, and pool free-list consistency.
func (e *Engine) sanValidate() {
	fail := func(msg string) { panic("simsan: " + msg) }
	e.q.validate(e.ord, nil, "event queue", fail)
	e.timers.validate(e.ord, e.firing, "timer heap", fail)
	e.pool.validate(fail)
}

// SanitizerEnabled reports whether this binary was built with the
// simsan shadow checker (-tags simsan).
func SanitizerEnabled() bool { return true }
