package sim

import "fmt"

// EventPool is a free list of eventNodes. The engine's hot path
// (schedule → fire) would otherwise allocate one node per event; with a
// pool, steady-state simulation runs at zero allocations per event
// because every fired node is recycled.
//
// A pool is single-goroutine state, exactly like the Engine that uses
// it. The parallel replication runner gives each worker its own pool
// (runner.MapSeededPooled) so replications on the same worker share
// warm nodes while workers never share anything — the same ownership
// discipline the runner already applies to engines and RNGs.
//
// One-shot events are fire-and-forget, so nothing outside the engine
// ever holds a node: a node is owned by the queue from schedule until
// dispatch, and by the pool afterwards. The pool still checks that
// ownership by node state and panics loudly (all messages start with
// "sim: event pool:") on a double free or on a free-list node mutated
// after release. Determinism is unaffected by pooling: node identity is
// never part of the dispatch order (see eventOrder), so pooled and
// fresh allocations produce bit-identical results — a property the
// workers=1 vs workers=N golden tests exercise directly.
type EventPool struct {
	free []*eventNode
	// disabled makes put recycle nothing (the state checks behave
	// identically) and get always allocate. Only the in-package tests set it: it is
	// the alloc-per-event reference for the pooled-vs-alloc benchmarks.
	disabled bool

	allocs uint64 // nodes created fresh
	reuses uint64 // nodes served from the free list
	puts   uint64 // nodes returned
}

// NewEventPool returns an empty pool.
func NewEventPool() *EventPool { return &EventPool{} }

// PoolStats is a snapshot of pool traffic, exposed for benchmarks and
// tests. Reuses/(Allocs+Reuses) is the hit rate.
type PoolStats struct {
	Allocs uint64 `json:"allocs"`
	Reuses uint64 `json:"reuses"`
	Puts   uint64 `json:"puts"`
	Free   int    `json:"free"`
}

// Stats returns a snapshot of pool counters.
func (p *EventPool) Stats() PoolStats {
	return PoolStats{Allocs: p.allocs, Reuses: p.reuses, Puts: p.puts, Free: len(p.free)}
}

// get hands out a node in nodePending state. Free-list nodes are
// verified to actually be free: a non-free node on the list means some
// caller kept using a node after putting it, and continuing would
// silently hand two owners the same storage.
//
//simlint:hotpath
func (p *EventPool) get() *eventNode {
	if n := len(p.free); n > 0 {
		nd := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		if nd.state != nodeFree {
			panic(fmt.Sprintf(
				"sim: event pool: free-list node (seq %d) is %s, not free — node mutated after release",
				nd.seq, nd.state))
		}
		nd.state = nodePending
		p.reuses++
		return nd
	}
	p.allocs++
	//simlint:allow hotalloc pool miss is the cold path; steady state recycles via the free list
	return &eventNode{state: nodePending}
}

// put returns a node to the pool. The node must be in nodePending state
// (i.e. currently owned by an engine); putting a free node is a
// double-free and panics.
//
//simlint:hotpath
func (p *EventPool) put(nd *eventNode) {
	if nd.state == nodeFree {
		panic(fmt.Sprintf(
			"sim: event pool: double free of event node (seq %d)", nd.seq))
	}
	nd.fn = nil
	nd.state = nodeFree
	nd.pinned = false
	nd.tag = EventTag{}
	p.puts++
	if !p.disabled {
		//simlint:allow hotalloc free-list growth is amortized; put reuses capacity at steady state
		p.free = append(p.free, nd)
	}
}

// validate checks pool invariants; fail is called with a description of
// the first violation. Used by the simsan periodic check.
func (p *EventPool) validate(fail func(string)) {
	for i, nd := range p.free {
		if nd == nil {
			fail(fmt.Sprintf("event pool: nil node at free[%d]", i))
			return
		}
		if nd.state != nodeFree {
			fail(fmt.Sprintf("event pool: free[%d] (seq %d) has state %s, want free", i, nd.seq, nd.state))
			return
		}
		if nd.fn != nil {
			fail(fmt.Sprintf("event pool: free[%d] (seq %d) retains a callback", i, nd.seq))
			return
		}
	}
}
