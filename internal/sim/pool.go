package sim

import "fmt"

// EventPool is a free list of eventNodes. The engine's hot path
// (schedule → fire) would otherwise allocate one node per event; with a
// pool, steady-state simulation runs at zero allocations per event
// because every fired or cancelled node is recycled.
//
// A pool is single-goroutine state, exactly like the Engine that uses
// it. The parallel replication runner gives each worker its own pool
// (runner.MapSeededPooled) so replications on the same worker share
// warm nodes while workers never share anything — the same ownership
// discipline the runner already applies to engines and RNGs.
//
// Recycling is only safe because it is *checked*: every put bumps the
// node's generation so outstanding Event handles go stale, and the pool
// panics loudly (all messages contain "generation mismatch") on any
// double-free or free of a node the pool does not own. Determinism is
// unaffected by pooling: node identity and generation numbers are never
// part of the dispatch order (see eventOrder), so pooled and fresh
// allocations produce bit-identical results — a property the workers=1
// vs workers=N golden tests exercise directly.
type EventPool struct {
	free []*eventNode
	// disabled makes put recycle nothing (nodes still have their
	// generation bumped, so handle staleness checks behave identically)
	// and get always allocate. Only the in-package tests set it: it is
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
				"sim: event pool generation mismatch: free-list node (gen %d) is %s, not free — node mutated after release",
				nd.gen, nd.state))
		}
		nd.state = nodePending
		p.reuses++
		return nd
	}
	p.allocs++
	//simlint:allow hotalloc pool miss is the cold path; steady state recycles via the free list
	return &eventNode{state: nodePending}
}

// put returns a node to the pool. The node must be in nodePending or
// nodeCancelled state (i.e. currently owned by an engine); putting a
// free node is a double-free and panics. The generation bump is what
// invalidates every outstanding handle to this occurrence.
//
//simlint:hotpath
func (p *EventPool) put(nd *eventNode) {
	if nd.state == nodeFree {
		panic(fmt.Sprintf(
			"sim: event pool generation mismatch: double free of event node (gen %d, seq %d)",
			nd.gen, nd.seq))
	}
	nd.gen++
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
			fail(fmt.Sprintf("event pool: free[%d] (gen %d) has state %s, want free", i, nd.gen, nd.state))
			return
		}
		if nd.fn != nil {
			fail(fmt.Sprintf("event pool: free[%d] (gen %d) retains a callback", i, nd.gen))
			return
		}
	}
}
