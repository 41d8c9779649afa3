package sim

import "fmt"

// heapItem is one heap slot: a pending node with its dispatch key
// copied inline. at is the node's At and key its eventOrder tie-break
// key, both fixed when the node is pushed or re-armed, so a sift
// compares slice memory and never re-derives a salted key.
type heapItem struct {
	at  Time
	key uint64
	n   *eventNode
}

// before is the strict (At, key, seq) dispatch order over heap slots —
// eventOrder.less is defined through it. The node's seq is read only
// when two keys tie, which happens only between a pinned event (raw
// seq key) and an unpinned one (mixed key) under a salt.
func (a *heapItem) before(b *heapItem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.n.seq < b.n.seq
}

// nodeHeap is an indexed binary min-heap of pending event nodes ordered
// by eventOrder. Each node's hidx is its slot in items, so a node can
// be moved (fix) or taken out (remove) from anywhere in O(log n). The
// engine keeps two: the one-shot queue, which only ever pops its head,
// and the armed timers' embedded nodes, which re-arm and disarm in
// place. eventOrder is total (seq is unique), so the pop sequence is
// fully determined by the pushed nodes and the salt — never by the
// heap's internal layout.
//
// Sifts move the displaced items into a hole instead of swapping, so
// each move is one slot write and one hidx write.
type nodeHeap struct {
	items []heapItem
}

// push inserts it (see eventOrder.item).
//
//simlint:hotpath
func (h *nodeHeap) push(it heapItem) {
	//simlint:allow hotalloc amortised heap growth; capacity persists once the queue reaches its working depth
	h.items = append(h.items, heapItem{})
	h.up(len(h.items)-1, it)
}

// peek returns the head node without removing it, or nil when empty.
func (h *nodeHeap) peek() *eventNode {
	if len(h.items) == 0 {
		return nil
	}
	return h.items[0].n
}

// remove takes the item at slot i out of the heap: the last item fills
// the hole and is sifted from there.
//
//simlint:hotpath
func (h *nodeHeap) remove(i int) {
	last := len(h.items) - 1
	it := h.items[last]
	h.items[last] = heapItem{}
	h.items = h.items[:last]
	if i != last {
		h.fix(i, it)
	}
}

// fix places it, the new contents of slot i, restoring heap order:
// the node at slot i was re-keyed, or the slot is a hole to fill.
//
//simlint:hotpath
func (h *nodeHeap) fix(i int, it heapItem) {
	if i > 0 && it.before(&h.items[(i-1)/2]) {
		h.up(i, it)
	} else {
		h.down(i, it)
	}
}

// up places it at hole i or above, moving each parent it precedes
// down into the hole.
//
//simlint:hotpath
func (h *nodeHeap) up(i int, it heapItem) {
	for i > 0 {
		parent := (i - 1) / 2
		if !it.before(&h.items[parent]) {
			break
		}
		h.items[i] = h.items[parent]
		h.items[i].n.hidx = i
		i = parent
	}
	h.items[i] = it
	it.n.hidx = i
}

// down places it at hole i or below, moving the lesser child up into
// the hole while that child precedes it.
//
//simlint:hotpath
func (h *nodeHeap) down(i int, it heapItem) {
	n := len(h.items)
	for {
		min := 2*i + 1
		if min >= n {
			break
		}
		if right := min + 1; right < n && h.items[right].before(&h.items[min]) {
			min = right
		}
		if !h.items[min].before(&it) {
			break
		}
		h.items[i] = h.items[min]
		h.items[i].n.hidx = i
		i = min
	}
	h.items[i] = it
	it.n.hidx = i
}

// validate checks back-indices, inline keys, heap order and that every
// node is pending with a callback, reporting the first violation
// through fail with name as its prefix. firing is the timer whose body
// is running (nil if none): its node keeps its slot but is not pending.
// Wired to the simsan periodic audit.
func (h *nodeHeap) validate(o eventOrder, firing *eventNode, name string, fail func(string)) {
	for i := range h.items {
		it := &h.items[i]
		n := it.n
		if n.hidx != i {
			fail(fmt.Sprintf("%s: node at position %d (seq %d) has hidx %d", name, i, n.seq, n.hidx))
			return
		}
		if it.at != n.At || it.key != o.key(n) {
			fail(fmt.Sprintf("%s: slot %d holds key (%v, %d) for node (%v, %d)", name, i, it.at, it.key, n.At, o.key(n)))
			return
		}
		if (n.state != nodePending && n != firing) || n.fn == nil {
			fail(fmt.Sprintf("%s: queued node at %v (seq %d) is %s (callback %v)", name, n.At, n.seq, n.state, n.fn != nil))
			return
		}
		if i > 0 && it.before(&h.items[(i-1)/2]) {
			fail(fmt.Sprintf("%s: heap property violated at position %d (parent %d)", name, i, (i-1)/2))
			return
		}
	}
}
