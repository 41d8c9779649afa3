package sim

import "fmt"

// Test-only oracles for the engine's two production mechanisms: the
// reference binary heap the ladder queue is diffed against, and the
// no-recycle pool the free-list pool is benchmarked against. withRefHeap
// and withAllocPool install them on a fresh engine.

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
// straightforward implementation the original engine shipped with
// (minus index back-pointers, which lazy cancellation made
// unnecessary), kept as the ground truth the ladder queue is diffed
// against.
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
