package sim

// eventQueue is the priority-queue contract behind the engine. The
// ladder queue (ladderQueue) is the only production implementation; the
// interface exists so tests can install the reference binary heap
// (refheap_test.go) in its place and hold the two to bit-identical pop
// sequences (diffqueue_test.go), while the golden figure hashes hold
// whole-system results to the same bar.
//
// Queued events are fire-and-forget, so implementations never need
// random-access removal: a node leaves the queue only by pop, or by
// RestoreState draining it. Events an owner re-arms or disarms are
// Timers, which live in the engine's own timer heap instead.
type eventQueue interface {
	// push inserts a pending node. Nodes pushed while a batch at the
	// same instant is draining must still surface in eventOrder position.
	push(n *eventNode)
	// peek returns the minimum node without removing it, or nil when
	// empty.
	peek() *eventNode
	// pop removes and returns the minimum node, or nil when empty.
	pop() *eventNode
	// len is the number of queued nodes.
	len() int
	// setSalt installs the tie-break salt. Only legal while empty
	// (Engine.PerturbTiebreaks enforces this).
	setSalt(salt uint64)
	// each visits every queued node, in no particular order.
	each(fn func(*eventNode))
	// validate checks implementation invariants, reporting the first
	// violation through fail. Wired to the simsan periodic check.
	validate(fail func(string))
}
