package sim

import "fmt"

// Test-only oracles for the engine's three production mechanisms: the
// reference binary heap the ladder queue is diffed against, the
// no-recycle pool the free-list pool is benchmarked against, and the
// remove-plus-schedule model of a Timer on the reference heap (refTimer)
// that the timer heap is diffed against. withRefHeap and withAllocPool
// install the first two on a fresh engine.

// withRefHeap swaps e's ladder queue for the reference heap. It must be
// called before anything is scheduled (or a salt is installed).
func withRefHeap(e *Engine) *Engine {
	if e.q.len() > 0 || e.ord.salt != 0 {
		panic("sim: withRefHeap on a used engine")
	}
	e.q = newRefHeap()
	return e
}

// withAllocPool swaps e's pool for one in reference (no-recycle) mode:
// every event allocates a fresh node. Call it before anything is
// scheduled.
func withAllocPool(e *Engine) *Engine {
	if e.q.len() > 0 {
		panic("sim: withAllocPool on a used engine")
	}
	e.pool = newAllocPool()
	return e
}

// newAllocPool returns a pool in reference (no-recycle) mode.
func newAllocPool() *EventPool { return &EventPool{disabled: true} }

// refHeap is the reference binary min-heap over eventOrder. It is the
// straightforward implementation the original engine shipped with,
// kept as the ground truth the ladder queue is diffed against. Its
// remove (a linear search) exists only for refTimer.
type refHeap struct {
	ord   eventOrder
	items []*eventNode
}

func newRefHeap() *refHeap { return &refHeap{} }

func (h *refHeap) setSalt(salt uint64) { h.ord.salt = salt }

func (h *refHeap) len() int { return len(h.items) }

func (h *refHeap) push(n *eventNode) {
	h.items = append(h.items, n)
	h.up(len(h.items) - 1)
}

func (h *refHeap) peek() *eventNode {
	if len(h.items) == 0 {
		return nil
	}
	return h.items[0]
}

func (h *refHeap) pop() *eventNode {
	if len(h.items) == 0 {
		return nil
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items[last] = nil
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

// remove takes n out of the heap, reporting whether it was queued.
func (h *refHeap) remove(n *eventNode) bool {
	for i, m := range h.items {
		if m != n {
			continue
		}
		last := len(h.items) - 1
		h.items[i] = h.items[last]
		h.items[last] = nil
		h.items = h.items[:last]
		if i < last {
			h.up(i)
			h.down(i)
		}
		return true
	}
	return false
}

func (h *refHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.ord.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *refHeap) down(i int) {
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		min := left
		if right := left + 1; right < n && h.ord.less(h.items[right], h.items[left]) {
			min = right
		}
		if !h.ord.less(h.items[min], h.items[i]) {
			return
		}
		h.items[i], h.items[min] = h.items[min], h.items[i]
		i = min
	}
}

func (h *refHeap) each(fn func(*eventNode)) {
	for _, n := range h.items {
		fn(n)
	}
}

func (h *refHeap) validate(fail func(string)) {
	for i := 1; i < len(h.items); i++ {
		parent := (i - 1) / 2
		if h.ord.less(h.items[i], h.items[parent]) {
			fail(fmt.Sprintf("refheap: heap property violated at index %d (parent %d)", i, parent))
			return
		}
	}
}

// refTimer is the reference model of a Timer: an owner-held one-shot on
// the reference heap. Arming removes the pending occurrence, if any, and
// queues a fresh one with the next sequence number; disarming only
// removes. That is the order argument behind Timer, so a Timer and a
// refTimer driven by the same calls must dispatch identically (the
// diff and snapshot harnesses hold them to it). Unlike production
// one-shots, a refTimer's occurrence may be pinned.
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
	e.q.push(n)
	e.sanOnSchedule(n)
}

// disarm removes the pending occurrence, if any, from e's reference
// heap and recycles its node.
func (t *refTimer) disarm(e *Engine) {
	if t.n == nil {
		return
	}
	if !e.q.(*refHeap).remove(t.n) {
		panic("sim: refTimer occurrence missing from the reference heap")
	}
	e.pool.put(t.n)
	t.n = nil
}

func (t *refTimer) armed() bool { return t.n != nil }
