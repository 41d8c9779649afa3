package sim

import (
	"fmt"
	"sort"
	"sync" //simlint:allow nondeterminism guards only the process-global kind intern table below; nothing on a simulation path locks

	"repro/internal/snapshot"
)

// EventKind identifies a registered, snapshot-restorable event
// callback constructor. Kind values are process-local (assigned in
// registration order); only the kind *name* is ever serialised, so two
// processes agree on kinds by name, never by number. The zero kind
// means "untagged": a plain closure that cannot cross a snapshot
// boundary.
type EventKind uint32

// EventTag is the serialisable identity of a scheduled callback: which
// registered kind rebuilds it, plus up to three constructor arguments
// (object ids, CPU numbers, PIDs — whatever the kind's rebuilder
// documents). It is a plain value, so tagging an event allocates
// nothing.
type EventTag struct {
	Kind       EventKind
	A0, A1, A2 uint64
}

var (
	eventKindsMu sync.Mutex
	//simlint:allow globalstate process-wide intern table, mutex-guarded and append-only; snapshots store names, never ids, so registration order is unobservable
	eventKindNames []string
	//simlint:allow globalstate name-to-kind intern map, mutex-guarded and idempotent; written only at registration time
	eventKindByNam map[string]EventKind
)

// RegisterEventKind interns an event-kind name and returns its
// process-local id. Registration is idempotent — the same name always
// returns the same kind — and normally happens in package inits, but a
// restore may also intern names lazily. Empty names panic.
func RegisterEventKind(name string) EventKind {
	if name == "" {
		panic("sim: RegisterEventKind with empty name")
	}
	eventKindsMu.Lock()
	defer eventKindsMu.Unlock()
	if eventKindByNam == nil {
		eventKindByNam = make(map[string]EventKind)
	}
	if k, ok := eventKindByNam[name]; ok {
		return k
	}
	eventKindNames = append(eventKindNames, name)
	k := EventKind(len(eventKindNames)) // ids start at 1; 0 = untagged
	eventKindByNam[name] = k
	return k
}

// EventKindNameOf returns the event-kind name spelled by b: the
// registered string when b names a registered kind, so restore reads
// kind names out of an image without allocating, and a copy of b
// otherwise.
func EventKindNameOf(b []byte) string {
	eventKindsMu.Lock()
	defer eventKindsMu.Unlock()
	if k, ok := eventKindByNam[string(b)]; ok {
		return eventKindNames[k-1]
	}
	return string(b)
}

// String returns the kind's registered name ("" for the zero kind).
func (k EventKind) String() string {
	if k == 0 {
		return ""
	}
	eventKindsMu.Lock()
	defer eventKindsMu.Unlock()
	if int(k) > len(eventKindNames) {
		return fmt.Sprintf("eventkind(%d)", uint32(k))
	}
	return eventKindNames[k-1]
}

// Tag builds an EventTag for a registered kind with its arguments.
func (k EventKind) Tag(a0, a1, a2 uint64) EventTag {
	return EventTag{Kind: k, A0: a0, A1: a1, A2: a2}
}

// RestoredEvent is one pending event read back from a snapshot:
// everything about the occurrence except its callback, which the caller
// rebuilds from (Kind, A0..A2) through its registered constructor and
// hands to RestoreEvent.
type RestoredEvent struct {
	At         Time
	Seq        uint64
	Pinned     bool
	Kind       string
	A0, A1, A2 uint64
}

// Visit codes the tag as four fields from tag on: the kind's name, then
// A0..A2. The empty name is the untagged zero kind.
func (t *EventTag) Visit(c *snapshot.Codec, tag uint8) {
	name := c.Name(tag, t.Kind.String())
	if c.Decoding() {
		t.Kind = 0
		if len(name) != 0 {
			t.Kind = RegisterEventKind(EventKindNameOf(name))
		}
	}
	c.U64(tag+1, &t.A0)
	c.U64(tag+2, &t.A1)
	c.U64(tag+3, &t.A2)
}

// Visit codes the generator's state as one snapshot field: restoring it
// makes the RNG produce the identical continuation.
func (r *RNG) Visit(c *snapshot.Codec, tag uint8) { c.U64(tag, &r.state) }

// engineSection is the engine's section name in a snapshot image.
const engineSection = "sim.engine"

// Visit codes the engine — clock, sequence counter, dispatch
// statistics, tie-break salt, RNG stream, and every pending event — as
// one "sim.engine" section.
//
// Encoding writes pending events sorted by the eventOrder dispatch
// order, which makes the bytes canonical: heap layout is never
// serialised — restore re-pushes the events, and any layout realises
// the same total order. Armed timers are pending events like any other:
// an image does not record whether an occurrence was a timer or a plain
// event. Every pending event must carry a tag (ScheduleTagged and
// friends); an anonymous closure in flight is an error naming the
// offending instant, because no process can rebuild it.
//
// Decoding first disarms every timer and recycles everything queued
// (the boot events of a freshly reconstructed machine), then overwrites
// the engine's state from the image. The image's pending events are
// returned, not queued: the caller rebuilds each callback from its kind
// and pushes it back with RestoreEvent, or re-arms the owning timer with
// RestoreTimer. Until then the queue is empty, so a warm-start caller
// may install a different tie-break salt with PerturbTiebreaks.
func (e *Engine) Visit(c *snapshot.Codec) ([]RestoredEvent, error) {
	var pending []*eventNode
	var names []string
	var kindIdx map[EventKind]uint64
	if c.Decoding() {
		e.resetForRestore()
	} else {
		pending = make([]*eventNode, 0, e.Pending())
		for _, it := range e.q.items {
			pending = append(pending, it.n)
		}
		for _, it := range e.timers.items {
			if it.n != e.firing {
				pending = append(pending, it.n)
			}
		}
		sort.Slice(pending, func(i, j int) bool { return e.ord.less(pending[i], pending[j]) })
		// Intern kind names in first-appearance order (deterministic: the
		// event list is sorted).
		kindIdx = make(map[EventKind]uint64)
		for _, n := range pending {
			if n.tag.Kind == 0 {
				return nil, fmt.Errorf("sim: snapshot: untagged event in flight at %v (seq %d): scheduled by a plain closure, not a registered kind", n.At, n.seq)
			}
			if _, ok := kindIdx[n.tag.Kind]; !ok {
				kindIdx[n.tag.Kind] = uint64(len(names))
				names = append(names, n.tag.Kind.String())
			}
		}
	}

	if !c.Section(engineSection) {
		return nil, c.Err()
	}
	snapshot.Int(c, 1, &e.now)
	c.U64(2, &e.nextSeq)
	c.U64(3, &e.fired)
	c.U64(4, &e.ord.salt)
	e.rng.Visit(c, 6)
	snapshot.Slice(c, 7, &names)
	for i := range names {
		if b := c.Name(8, names[i]); c.Decoding() {
			names[i] = EventKindNameOf(b)
		}
	}
	n := len(pending)
	c.Len(9, &n)
	var evs []RestoredEvent
	if c.Decoding() && n > 0 {
		evs = make([]RestoredEvent, n)
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		var ev RestoredEvent
		var ki uint64
		if !c.Decoding() {
			p := pending[i]
			ev = RestoredEvent{At: p.At, Seq: p.seq, Pinned: p.pinned, A0: p.tag.A0, A1: p.tag.A1, A2: p.tag.A2}
			ki = kindIdx[p.tag.Kind]
		}
		snapshot.Int(c, 10, &ev.At)
		c.U64(11, &ev.Seq)
		c.Bool(12, &ev.Pinned)
		c.U64(14, &ki)
		c.U64(15, &ev.A0)
		c.U64(16, &ev.A1)
		c.U64(17, &ev.A2)
		if !c.Decoding() || c.Err() != nil {
			continue
		}
		switch {
		case ki >= uint64(len(names)):
			c.Failf("sim: restore: event kind index %d out of range (%d names)", ki, len(names))
		case names[ki] == "":
			c.Failf("sim: restore: event %d has an empty kind name", i)
		case ev.At < e.now:
			c.Failf("sim: restore: event %q at %v before snapshot clock %v", names[ki], ev.At, e.now)
		case ev.Seq >= e.nextSeq:
			c.Failf("sim: restore: event %q seq %d not below next sequence %d", names[ki], ev.Seq, e.nextSeq)
		default:
			ev.Kind = names[ki]
			evs[i] = ev
		}
	}
	c.End()
	return evs, c.Err()
}

// resetForRestore disarms every timer and recycles every queued event,
// leaving an empty engine for Visit to overwrite.
func (e *Engine) resetForRestore() {
	for _, it := range e.timers.items {
		it.n.state = nodeFree
	}
	clear(e.timers.items)
	e.timers.items = e.timers.items[:0]
	e.firing = nil
	for _, it := range e.q.items {
		e.pool.put(it.n)
	}
	clear(e.q.items)
	e.q.items = e.q.items[:0]
	e.sanOnRestore()
	e.stopped = false
}

// RestoreEvent re-queues one snapshot event with its rebuilt callback.
// The occurrence keeps its original sequence number, fire time and tag
// — so the restored engine dispatches the identical (At, key, seq)
// total order the snapshotted one would have. Only Timers are pinned,
// so a pinned event belongs to a timer and goes through RestoreTimer;
// RestoreEvent refuses one with an error naming its kind, since images
// reach a restore from outside the process.
func (e *Engine) RestoreEvent(rev RestoredEvent, fn func()) error {
	if rev.Pinned {
		return fmt.Errorf("sim: restore: pinned event %s(%d,%d,%d) at %v has no owning timer",
			rev.Kind, rev.A0, rev.A1, rev.A2, rev.At)
	}
	if fn == nil {
		panic(fmt.Sprintf("sim: RestoreEvent %q with nil callback", rev.Kind))
	}
	if rev.At < e.now {
		panic(fmt.Sprintf("sim: RestoreEvent %q at %v before now %v", rev.Kind, rev.At, e.now))
	}
	if rev.Seq >= e.nextSeq {
		panic(fmt.Sprintf("sim: RestoreEvent %q seq %d not below next sequence %d", rev.Kind, rev.Seq, e.nextSeq))
	}
	n := e.pool.get()
	n.At = rev.At
	n.seq = rev.Seq
	n.fn = fn
	n.tag = EventTag{Kind: RegisterEventKind(rev.Kind), A0: rev.A0, A1: rev.A1, A2: rev.A2}
	e.q.push(e.ord.item(n))
	e.sanOnSchedule(n)
	return nil
}

// NextEventInfo returns the identity of the next pending event — fire
// time, sequence number and registered kind name ("" when untagged) —
// without dispatching it. The time-travel bisector drives two restored
// replicas in lockstep on this.
func (e *Engine) NextEventInfo() (at Time, seq uint64, kind string, ok bool) {
	n := e.peekLive()
	if n == nil {
		return 0, 0, "", false
	}
	return n.At, n.seq, n.tag.Kind.String(), true
}

func init() {
	snapshot.RegisterState(Engine{}, snapshot.Manifest{
		"now":     "codec",
		"firing":  "skip: set only while a timer body runs, and a snapshot is taken between events; a decoding Visit clears it",
		"timers":  "skip: armed timers are serialised as pending events in the sorted event list; a decoding Visit disarms every timer and owners re-arm theirs with RestoreTimer",
		"q":       "skip: heap layout is never serialised — pending events are written in eventOrder and restore re-pushes them, so any layout realises the same total order",
		"pool":    "skip: free-list contents and traffic stats never enter eventOrder; pooled vs fresh nodes are proven result-identical by the workers-pool golden tests",
		"ord":     "codec",
		"nextSeq": "codec",
		"rng":     "codec",
		"stopped": "skip: transient run-loop flag; restore clears it (a snapshot is taken between events, never inside Stop handling)",
		"fired":   "codec",
		"san":     "skip: build-tag-gated shadow checker state; sanOnRestore resets its watermark because it re-derives everything else from live traffic",
	})
	snapshot.RegisterState(RNG{}, snapshot.Manifest{
		"state": "codec",
	})
	snapshot.RegisterState(Timer{}, snapshot.Manifest{
		"n": "codec", // an armed timer is one pending event in the sim.engine section; tag, pinned and fn are bound by Init
	})
	snapshot.RegisterState(eventNode{}, snapshot.Manifest{
		"At":     "codec",
		"seq":    "codec",
		"fn":     "codec", // rebuilt via the tag's registered kind constructor
		"state":  "skip: only pending nodes are serialised; free nodes are pool storage or disarmed timers",
		"pinned": "codec",
		"hidx":   "skip: heap slot, rebuilt when restore pushes the node",
		"tag":    "codec",
	})
}
