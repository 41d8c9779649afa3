package sim

import "fmt"

// nodeHeap is an indexed binary min-heap of pending event nodes ordered
// by eventOrder. Each node's hidx is its position in items, so a node
// can be moved (fix) or taken out (remove) from anywhere in O(log n).
// The engine keeps two: the one-shot queue, which only ever removes its
// head, and the armed timers' embedded nodes, which re-arm and disarm
// in place. eventOrder is total (seq is unique), so the pop sequence is
// fully determined by the pushed nodes and the salt — never by the
// heap's internal layout.
type nodeHeap struct {
	items []*eventNode
}

// push inserts n.
//
//simlint:hotpath
func (h *nodeHeap) push(o eventOrder, n *eventNode) {
	n.hidx = len(h.items)
	//simlint:allow hotalloc amortised heap growth; capacity persists once the queue reaches its working depth
	h.items = append(h.items, n)
	h.up(o, n.hidx)
}

// peek returns the minimum node without removing it, or nil when empty.
//
//simlint:hotpath
func (h *nodeHeap) peek() *eventNode {
	if len(h.items) == 0 {
		return nil
	}
	return h.items[0]
}

// remove takes the node at position i out of the heap.
//
//simlint:hotpath
func (h *nodeHeap) remove(o eventOrder, i int) {
	last := len(h.items) - 1
	if i != last {
		h.swap(i, last)
	}
	h.items[last] = nil
	h.items = h.items[:last]
	if i != last {
		h.fix(o, i)
	}
}

// fix restores heap order after the key of the node at position i
// changed.
//
//simlint:hotpath
func (h *nodeHeap) fix(o eventOrder, i int) {
	if !h.up(o, i) {
		h.down(o, i)
	}
}

// up sifts position i towards the root, reporting whether it moved.
//
//simlint:hotpath
func (h *nodeHeap) up(o eventOrder, i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !o.less(h.items[i], h.items[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

// down sifts position i towards the leaves.
//
//simlint:hotpath
func (h *nodeHeap) down(o eventOrder, i int) {
	n := len(h.items)
	for {
		min := 2*i + 1
		if min >= n {
			return
		}
		if right := min + 1; right < n && o.less(h.items[right], h.items[min]) {
			min = right
		}
		if !o.less(h.items[min], h.items[i]) {
			return
		}
		h.swap(i, min)
		i = min
	}
}

// swap exchanges positions i and j and their back-indices.
func (h *nodeHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].hidx = i
	h.items[j].hidx = j
}

// validate checks back-indices, heap order and that every node is
// pending with a callback, reporting the first violation through fail
// with name as its prefix. Wired to the simsan periodic audit.
func (h *nodeHeap) validate(o eventOrder, name string, fail func(string)) {
	for i, n := range h.items {
		if n.hidx != i {
			fail(fmt.Sprintf("%s: node at position %d (seq %d) has hidx %d", name, i, n.seq, n.hidx))
			return
		}
		if n.state != nodePending || n.fn == nil {
			fail(fmt.Sprintf("%s: queued node at %v (seq %d) is %s (callback %v)", name, n.At, n.seq, n.state, n.fn != nil))
			return
		}
		if i > 0 && o.less(n, h.items[(i-1)/2]) {
			fail(fmt.Sprintf("%s: heap property violated at position %d (parent %d)", name, i, (i-1)/2))
			return
		}
	}
}
