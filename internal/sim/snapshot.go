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

// engineSection is the engine's section name in a snapshot image.
const engineSection = "sim.engine"

// SnapshotTo serialises the engine — clock, sequence counter, dispatch
// statistics, tie-break salt, RNG stream, and every pending event — into
// one "sim.engine" section.
//
// Pending events are written sorted by the eventOrder dispatch order,
// which makes the bytes canonical: heap layout is never serialised —
// restore re-pushes the events, and any layout realises the same total
// order. Armed timers are pending events like any other: an image does
// not record whether an occurrence was a timer or a plain event.
//
// Every pending event must carry a tag (ScheduleTagged and friends);
// an anonymous closure in flight is an error naming the offending
// instant, because no process can rebuild it.
func (e *Engine) SnapshotTo(w *snapshot.Writer) error {
	pending := make([]*eventNode, 0, e.Pending())
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
	var names []string
	idx := make(map[EventKind]uint64)
	for _, n := range pending {
		if n.tag.Kind == 0 {
			return fmt.Errorf("sim: snapshot: untagged event in flight at %v (seq %d): scheduled by a plain closure, not a registered kind", n.At, n.seq)
		}
		if _, ok := idx[n.tag.Kind]; !ok {
			idx[n.tag.Kind] = uint64(len(names))
			names = append(names, n.tag.Kind.String())
		}
	}

	w.Begin(engineSection)
	w.I64(1, int64(e.now))
	w.U64(2, e.nextSeq)
	w.U64(3, e.fired)
	w.U64(4, e.ord.salt)
	w.U64(6, e.rng.State())
	w.U64(7, uint64(len(names)))
	for _, name := range names {
		w.Str(8, name)
	}
	w.U64(9, uint64(len(pending)))
	for _, n := range pending {
		w.I64(10, int64(n.At))
		w.U64(11, n.seq)
		w.Bool(12, n.pinned)
		w.U64(14, idx[n.tag.Kind])
		w.U64(15, n.tag.A0)
		w.U64(16, n.tag.A1)
		w.U64(17, n.tag.A2)
	}
	w.End()
	return nil
}

// RestoreState rewrites the engine to a snapshot's state: it disarms
// every timer, recycles everything currently queued (the boot events
// of a freshly reconstructed machine), then overwrites the clock,
// sequence counter, salt and RNG stream from the image. The snapshot's
// pending events are returned, not queued — the caller rebuilds each
// callback from its kind and pushes it back with RestoreEvent, or
// re-arms the owning timer with RestoreTimer. Between RestoreState and
// the first RestoreEvent or RestoreTimer the queue is empty, so a
// warm-start caller may install a different tie-break salt with
// PerturbTiebreaks.
func (e *Engine) RestoreState(r *snapshot.Reader) ([]RestoredEvent, error) {
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

	r.Section(engineSection)
	e.now = Time(r.I64(1))
	e.nextSeq = r.U64(2)
	e.fired = r.U64(3)
	e.ord.salt = r.U64(4)
	e.rng.SetState(r.U64(6))
	names := make([]string, r.U64(7))
	for i := range names {
		names[i] = EventKindNameOf(r.Bytes(8))
	}
	evs := make([]RestoredEvent, 0, r.U64(9))
	for i := 0; i < cap(evs); i++ {
		ev := RestoredEvent{
			At:     Time(r.I64(10)),
			Seq:    r.U64(11),
			Pinned: r.Bool(12),
		}
		ki := r.U64(14)
		ev.A0, ev.A1, ev.A2 = r.U64(15), r.U64(16), r.U64(17)
		if r.Err() != nil {
			break
		}
		if ki >= uint64(len(names)) {
			return nil, fmt.Errorf("sim: restore: event kind index %d out of range (%d names)", ki, len(names))
		}
		ev.Kind = names[ki]
		if ev.At < e.now {
			return nil, fmt.Errorf("sim: restore: event %q at %v before snapshot clock %v", ev.Kind, ev.At, e.now)
		}
		if ev.Seq >= e.nextSeq {
			return nil, fmt.Errorf("sim: restore: event %q seq %d not below next sequence %d", ev.Kind, ev.Seq, e.nextSeq)
		}
		evs = append(evs, ev)
	}
	r.EndSection()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return evs, nil
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
		"firing":  "skip: set only while a timer body runs, and a snapshot is taken between events; RestoreState clears it",
		"timers":  "skip: armed timers are serialised as pending events in the sorted event list; RestoreState disarms every timer and owners re-arm theirs with RestoreTimer",
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
