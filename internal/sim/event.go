package sim

// nodeState tracks an eventNode through its pool lifecycle.
type nodeState uint8

const (
	// nodeFree: on the pool free list, owned by nobody (or a disarmed
	// Timer's node).
	nodeFree nodeState = iota
	// nodePending: queued (or an armed Timer), waiting to fire.
	nodePending
)

func (s nodeState) String() string {
	if s == nodeFree {
		return "free"
	}
	return "pending"
}

// eventNode is the storage behind one pending event: a pooled node for
// a one-shot event, or the node a Timer embeds.
type eventNode struct {
	// At is the virtual time the event fires.
	At Time
	// seq breaks ties between events scheduled for the same instant:
	// earlier-scheduled events fire first (FIFO at equal time) unless a
	// tie-break perturbation re-keys them.
	seq uint64
	// fn is the callback; nil on a free pool node.
	fn func()
	// state is the pool lifecycle state.
	state nodeState
	// pinned declares that this event's same-instant arbitration order
	// (FIFO) is part of the model, not an accident: under a tie-break
	// perturbation (Engine.PerturbTiebreaks) pinned events keep their
	// FIFO order among themselves while unpinned ties are permuted. Only
	// Timers are pinned (Timer.Init); the few pinned timers in
	// internal/kernel are the dynamic analogue of a //simlint:allow
	// directive — each one documents the hardware arbitration it models.
	pinned bool
	// hidx is the node's slot in the engine heap holding it (the
	// one-shot queue or the timer heap) while pending, and while its
	// Timer's body runs (Engine.firing).
	hidx int
	// tag is the event's registered kind plus its constructor arguments
	// (ScheduleTagged and friends). A tagged event can be serialised and
	// rebuilt across a snapshot/restore boundary; an untagged one (zero
	// tag) cannot, and Engine.Visit refuses it loudly. The tag is
	// never part of eventOrder.
	tag EventTag
}

// eventOrder is the total dispatch order the engine realises: (At,
// tie-break key, seq). seq is unique per engine, so the order is total —
// which is what makes the pop sequence independent of the heaps' internal
// layout, and a Timer dispatch identically to its remove-plus-schedule
// model (the differential harness in diffqueue_test.go enforces it
// mechanically).
//
// With salt == 0 (the default) the tie-break key is the scheduling
// sequence number, i.e. FIFO at equal time. With salt != 0 the key of an
// unpinned event is a splitmix64 mix of (salt, seq) — a seeded
// pseudo-random permutation of same-instant dispatch order — while
// pinned events keep their raw seq. The perturbation harness
// (cmd/reprocheck -perturb) uses this to detect tie-break races: results
// that depend on the arbitrary FIFO order of simultaneous events.
type eventOrder struct {
	salt uint64
}

// tiebreakMix is the splitmix64 output function over salt ^ seq. It is a
// bijection on uint64 for a fixed salt, so distinct seqs keep distinct
// keys and the permuted order is total.
func tiebreakMix(salt, seq uint64) uint64 {
	z := (salt ^ seq) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// key returns the tie-break key used at equal At.
func (o eventOrder) key(n *eventNode) uint64 {
	if o.salt == 0 || n.pinned {
		return n.seq
	}
	return tiebreakMix(o.salt, n.seq)
}

// item returns n's heap slot: its fire time and tie-break key inline.
func (o eventOrder) item(n *eventNode) heapItem {
	return heapItem{at: n.At, key: o.key(n), n: n}
}

// less is the strict total dispatch order (heapItem.before).
func (o eventOrder) less(a, b *eventNode) bool {
	x, y := o.item(a), o.item(b)
	return x.before(&y)
}
