package sim

import "fmt"

// Ladder/calendar queue: a two-level timer structure shaped like the
// kernel timer wheel it simulates.
//
// Near future — a circular array of ladderBuckets buckets, each
// covering a slot of 2^ladderSlotBits ns (~65.5 µs; the whole window is
// ~16.8 ms, comfortably wider than the simulated kernel's jiffy and
// local-tick periods). A push inside the window is O(1): append to
// buckets[slot%ladderBuckets], unsorted.
//
// Far future — pushes beyond the window go to an overflow binary heap
// ordered by At alone. As the window slides forward, far nodes whose
// slot has entered the window migrate into their buckets (pullFar).
// Tie order inside the far heap is irrelevant: same-At nodes always
// land in the same bucket and are totally ordered by the bucket sort.
//
// Dispatch — when the current run is exhausted, the next non-empty
// bucket is located (O(1) amortised: each bucket is visited once per
// window lap), copied into the reusable run slice, and sorted by the
// full eventOrder. Sorting per-bucket instead of globally is the win:
// the heap paid O(log n) per operation on the *total* queue size, the
// ladder pays O(k log k) per *bucket* of k co-located events, and
// buckets are small because simulated timers cluster by period. seq
// numbers make eventOrder total, so the sort has exactly one result and
// the pop sequence is bit-identical to the reference heap's — the
// differential fuzz harness (FuzzDiffQueue) holds the two
// implementations to that word for word.
//
// Pushes that land on the slot currently being drained are
// sorted-inserted into the un-popped tail of the run, so an event
// scheduled during dispatch at the same instant still fires in exact
// eventOrder position — identical to the heap, where such a push
// becomes the new minimum.
//
// Rewind — Run(until) can advance the clock into the middle of the
// window, or peek can slide the window past a gap, and a later push may
// then target a slot behind the window start. That push would be
// mis-ordered if forced into the circular array, so the queue rewinds:
// dump the run remnant and every bucket into the far heap, restart the
// window at the push's slot, and re-migrate. It is O(n log n) but rare
// (only externally-driven clock patterns trigger it); the fuzz corpus
// seeds this path explicitly.
const (
	ladderSlotBits = 16 // slot width 2^16 ns ≈ 65.5 µs
	ladderBuckets  = 256
	ladderSlotMask = ladderBuckets - 1
)

func ladderSlotOf(at Time) uint64 { return uint64(at) >> ladderSlotBits }

type ladderQueue struct {
	ord eventOrder

	// slot is the window start: every node at a smaller slot has been
	// drained (except the sorted run remnant, which is exactly at slot).
	slot      uint64
	buckets   [ladderBuckets][]*eventNode
	inBuckets int

	// run is the current slot's nodes in eventOrder; run[runHead:] is
	// the un-popped remainder. The slice is reused across refills.
	run     []*eventNode
	runHead int

	far  farHeap
	size int
}

// ladderBucketCap is each bucket's initial capacity. All buckets are
// carved from one slab, so a fresh engine's window starts warm with a
// single allocation instead of growing 256 buckets from empty; a bucket
// that outgrows its share reallocates on its own.
const ladderBucketCap = 2

func newLadderQueue() *ladderQueue {
	q := &ladderQueue{}
	const c = ladderBucketCap
	slab := make([]*eventNode, ladderBuckets*c)
	for i := range q.buckets {
		q.buckets[i] = slab[i*c : i*c : (i+1)*c]
	}
	return q
}

func (q *ladderQueue) setSalt(salt uint64) {
	q.ord.salt = salt
	q.far.resort()
}

func (q *ladderQueue) len() int { return q.size }

func (q *ladderQueue) runActive() bool { return q.runHead < len(q.run) }

// push files n into the active run, its bucket, or the far heap.
//
//simlint:hotpath
func (q *ladderQueue) push(n *eventNode) {
	s := ladderSlotOf(n.At)
	if s < q.slot {
		q.rewind(s)
	}
	q.size++
	switch {
	case s == q.slot && q.runActive():
		q.insertRun(n)
	case s < q.slot+ladderBuckets:
		//simlint:allow hotalloc bucket append is amortized O(1); capacity persists across windows
		q.buckets[s&ladderSlotMask] = append(q.buckets[s&ladderSlotMask], n)
		q.inBuckets++
	default:
		q.far.push(n)
	}
}

// peek surfaces the head without removing it.
//
//simlint:hotpath
func (q *ladderQueue) peek() *eventNode {
	if !q.runActive() && !q.refill() {
		return nil
	}
	return q.run[q.runHead]
}

// pop removes and returns the head.
//
//simlint:hotpath
func (q *ladderQueue) pop() *eventNode {
	if !q.runActive() && !q.refill() {
		return nil
	}
	n := q.run[q.runHead]
	q.run[q.runHead] = nil
	q.runHead++
	q.size--
	return n
}

// insertRun places n into the un-popped tail of the active run at its
// eventOrder position (binary search + shift). The position can be the
// current head: a node scheduled mid-dispatch for the current instant
// fires next, exactly as it would after becoming the heap minimum.
func (q *ladderQueue) insertRun(n *eventNode) {
	lo, hi := q.runHead, len(q.run)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.ord.less(q.run[mid], n) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	//simlint:allow hotalloc run append is amortized; the run slice is reused every bucket sort
	q.run = append(q.run, nil)
	copy(q.run[lo+1:], q.run[lo:len(q.run)-1])
	q.run[lo] = n
}

// refill locates the next non-empty slot, migrates newly in-window far
// nodes, and sorts that slot's bucket into the run slice. Returns false
// when the queue is empty.
func (q *ladderQueue) refill() bool {
	q.run = q.run[:0]
	q.runHead = 0
	if q.size == 0 {
		return false
	}
	for {
		if q.inBuckets > 0 {
			for i := uint64(0); i < ladderBuckets; i++ {
				s := q.slot + i
				idx := s & ladderSlotMask
				if len(q.buckets[idx]) == 0 {
					continue
				}
				if s != q.slot {
					// The window start slides to s; far nodes whose slot
					// just entered [s, s+ladderBuckets) move in.
					q.slot = s
					q.pullFar()
				}
				b := q.buckets[idx]
				//simlint:allow hotalloc refill reuses q.run's capacity; grows only on a record bucket
				q.run = append(q.run[:0], b...)
				for j := range b {
					b[j] = nil
				}
				q.buckets[idx] = b[:0]
				q.inBuckets -= len(q.run)
				sortNodes(q.ord, q.run)
				return true
			}
			panic("sim: ladder queue inBuckets > 0 but no bucket in window")
		}
		// Window is empty; jump straight to the earliest far slot.
		top := q.far.peek()
		if top == nil {
			panic("sim: ladder queue size > 0 but buckets and far are empty")
		}
		q.slot = ladderSlotOf(top.At)
		q.pullFar()
	}
}

// pullFar migrates far-heap nodes whose slot has entered the current
// window into their buckets.
func (q *ladderQueue) pullFar() {
	limit := q.slot + ladderBuckets
	for {
		top := q.far.peek()
		if top == nil || ladderSlotOf(top.At) >= limit {
			return
		}
		n := q.far.pop()
		idx := ladderSlotOf(n.At) & ladderSlotMask
		//simlint:allow hotalloc far-to-bucket drain is the rewind slow path, not steady state
		q.buckets[idx] = append(q.buckets[idx], n)
		q.inBuckets++
	}
}

// rewind restarts the window at slot s < q.slot. Everything queued is
// parked in the far heap, then re-migrated against the new window.
func (q *ladderQueue) rewind(s uint64) {
	for _, n := range q.run[q.runHead:] {
		q.far.push(n)
	}
	q.run = q.run[:0]
	q.runHead = 0
	for i := range q.buckets {
		for j, n := range q.buckets[i] {
			q.far.push(n)
			q.buckets[i][j] = nil
		}
		q.buckets[i] = q.buckets[i][:0]
	}
	q.inBuckets = 0
	q.slot = s
	q.pullFar()
}

func (q *ladderQueue) each(fn func(*eventNode)) {
	for _, n := range q.run[q.runHead:] {
		fn(n)
	}
	for i := range q.buckets {
		for _, n := range q.buckets[i] {
			fn(n)
		}
	}
	for _, n := range q.far.items {
		fn(n)
	}
}

func (q *ladderQueue) validate(fail func(string)) {
	counted := (len(q.run) - q.runHead) + q.inBuckets + q.far.len()
	if counted != q.size {
		fail(fmt.Sprintf("ladder: size %d != counted %d (run %d + buckets %d + far %d)",
			q.size, counted, len(q.run)-q.runHead, q.inBuckets, q.far.len()))
		return
	}
	for i := q.runHead; i < len(q.run); i++ {
		n := q.run[i]
		if ladderSlotOf(n.At) != q.slot {
			fail(fmt.Sprintf("ladder: run node at %d has slot %d, want current slot %d",
				n.At, ladderSlotOf(n.At), q.slot))
			return
		}
		if i > q.runHead && !q.ord.less(q.run[i-1], n) {
			fail(fmt.Sprintf("ladder: run not strictly sorted at position %d", i))
			return
		}
	}
	total := 0
	for i := range q.buckets {
		for _, n := range q.buckets[i] {
			s := ladderSlotOf(n.At)
			if s < q.slot || s >= q.slot+ladderBuckets {
				fail(fmt.Sprintf("ladder: bucket node at %d (slot %d) outside window [%d,%d)",
					n.At, s, q.slot, q.slot+ladderBuckets))
				return
			}
			if s&ladderSlotMask != uint64(i) {
				fail(fmt.Sprintf("ladder: node with slot %d filed in bucket %d", s, i))
				return
			}
			total++
		}
	}
	if total != q.inBuckets {
		fail(fmt.Sprintf("ladder: inBuckets %d != actual %d", q.inBuckets, total))
		return
	}
	for i, n := range q.far.items {
		if ladderSlotOf(n.At) < q.slot+ladderBuckets {
			fail(fmt.Sprintf("ladder: far node at %d (slot %d) is inside window starting at %d",
				n.At, ladderSlotOf(n.At), q.slot))
			return
		}
		if i > 0 {
			parent := (i - 1) / 2
			if n.At < q.far.items[parent].At {
				fail(fmt.Sprintf("ladder: far heap property violated at index %d", i))
				return
			}
		}
	}
}

// farHeap is a binary min-heap over At alone. Full eventOrder is not
// needed here: ties migrate to the same bucket and are totally ordered
// by the refill sort, so any At-consistent internal order yields the
// same pop sequence.
type farHeap struct {
	items []*eventNode
}

func (h *farHeap) len() int { return len(h.items) }

func (h *farHeap) peek() *eventNode {
	if len(h.items) == 0 {
		return nil
	}
	return h.items[0]
}

func (h *farHeap) push(n *eventNode) {
	//simlint:allow hotalloc far-heap growth is amortized; steady state reuses capacity
	h.items = append(h.items, n)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].At <= h.items[i].At {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *farHeap) pop() *eventNode {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items[last] = nil
	h.items = h.items[:last]
	i, n := 0, len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && h.items[right].At < h.items[left].At {
			min = right
		}
		if h.items[min].At >= h.items[i].At {
			break
		}
		h.items[i], h.items[min] = h.items[min], h.items[i]
		i = min
	}
	return top
}

// resort rebuilds the heap; a no-op for ordering (the heap ignores the
// salt) but kept so setSalt has a single obvious contract.
func (h *farHeap) resort() {}

// sortNodes sorts nodes ascending by ord. eventOrder is total (seq is
// unique), so every comparison sort produces the same permutation; the
// hybrid below exists only to keep refill allocation-free (sort.Slice
// allocates) and fast on the small buckets the ladder produces.
func sortNodes(ord eventOrder, nodes []*eventNode) {
	if len(nodes) <= 32 {
		for i := 1; i < len(nodes); i++ {
			n := nodes[i]
			j := i - 1
			for j >= 0 && ord.less(n, nodes[j]) {
				nodes[j+1] = nodes[j]
				j--
			}
			nodes[j+1] = n
		}
		return
	}
	// In-place heapsort for the rare large bucket (e.g. a far-heap dump
	// of many co-scheduled timers).
	for i := len(nodes)/2 - 1; i >= 0; i-- {
		siftNodes(ord, nodes, i, len(nodes))
	}
	for end := len(nodes) - 1; end > 0; end-- {
		nodes[0], nodes[end] = nodes[end], nodes[0]
		siftNodes(ord, nodes, 0, end)
	}
}

// siftNodes sifts a max-heap (by ord) rooted at i within nodes[:n].
func siftNodes(ord eventOrder, nodes []*eventNode, i, n int) {
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		max := left
		if right := left + 1; right < n && ord.less(nodes[left], nodes[right]) {
			max = right
		}
		if !ord.less(nodes[i], nodes[max]) {
			return
		}
		nodes[i], nodes[max] = nodes[max], nodes[i]
		i = max
	}
}
