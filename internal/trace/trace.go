// Package trace is the simulator's typed tracepoint layer, the moral
// equivalent of the kernel's trace ring. The kernel model emits
// fixed-size typed records — a kind plus small integer arguments (pid,
// irq line, lock id, priority, target CPU) — into per-CPU ring buffers.
// Nothing is formatted at emit time: records are rendered to strings
// lazily, only when a reader asks, and task/lock/irq names are interned
// into a table so a record is four ints and a timestamp.
//
// A nil *Buffer is valid and inert, so the kernel hot paths carry
// tracing at the cost of a nil check: the disabled path performs no
// formatting and no allocation (bench_test.go proves 0 allocs/op).
//
// Records carry a global sequence number assigned at emit. The
// simulator is single-threaded, so sequence order is chronological and
// is the deterministic merge order across the per-CPU rings.
package trace

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sim"
)

// Kind classifies a trace record.
type Kind uint8

// Record kinds emitted by the kernel model.
const (
	KindIRQRaise Kind = iota
	KindIRQEnter
	KindIRQExit
	KindSoftirqEnter
	KindSoftirqExit
	KindSwitch
	KindPreempt
	KindWakeup
	KindMigrate
	KindSyscallEnter
	KindSyscallExit
	KindLockContend
	KindLockAcquire
	KindLockRelease
	KindShield
	KindTimerTick
	KindTimerExpire
	KindUser
	numKinds
)

var kindNames = [numKinds]string{
	"irq-raise", "irq-enter", "irq-exit", "softirq-enter", "softirq-exit",
	"switch", "preempt", "wakeup", "migrate", "sys-enter", "sys-exit",
	"lock-contend", "lock-acquire", "lock-release", "shield", "tick",
	"timer-expire", "user",
}

// String returns a short name for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// NameID indexes the buffer's interning table. 0 is the empty string.
type NameID int32

// Record is one fixed-size trace entry. The meaning of A..D depends on
// Kind:
//
//	irq-raise     A=irq num  B=name      C=target cpu
//	irq-enter     A=irq num  B=name
//	irq-exit      A=irq num  B=name
//	softirq-enter A=work ns
//	softirq-exit  A=ran ns
//	switch        A=pid      B=name      C=prio
//	preempt       A=pid      B=name      C=1 at an action boundary
//	wakeup        A=pid      B=name      C=target cpu
//	migrate       A=pid      B=name      C=from cpu   D=to cpu (-1 unknown)
//	sys-enter     A=pid      B=task name C=call name
//	sys-exit      A=pid      B=task name C=call name
//	lock-contend  A=lock     B=holder cpu
//	lock-acquire  A=lock     B=spin ns
//	lock-release  A=lock     B=hold ns
//	shield        A=dim name B=old mask  C=new mask (low 32 bits)
//	tick          (none)
//	timer-expire  A=count    B=jiffies (low 32 bits)
//
// Name-valued fields hold NameIDs into the owning buffer's intern
// table. Msg is non-zero only for records emitted through the legacy
// string API (Emit/Emitf); Format then renders the interned message
// instead of the typed arguments.
type Record struct {
	Seq  uint64
	At   sim.Time
	Kind Kind
	CPU  int32
	A    int32
	B    int32
	C    int32
	D    int32
	Msg  NameID
}

// ring is one per-CPU record ring: fixed capacity, overwrite-oldest.
type ring struct {
	recs    []Record
	next    int
	wrapped bool
	dropped uint64
}

func (rg *ring) put(r Record, capacity int) {
	if rg.recs == nil {
		//simlint:allow hotalloc one-time ring arming on first record; the ring then recycles in place
		rg.recs = make([]Record, 0, capacity)
	}
	if len(rg.recs) < cap(rg.recs) {
		//simlint:allow hotalloc fills preallocated ring capacity; never grows past it
		rg.recs = append(rg.recs, r)
		return
	}
	rg.recs[rg.next] = r
	rg.next++
	if rg.next == len(rg.recs) {
		rg.next = 0
	}
	rg.wrapped = true
	rg.dropped++
}

// at returns the i-th record in logical order, oldest first. Until the
// ring wraps next is 0, so logical and physical order coincide.
func (rg *ring) at(i int) *Record {
	i += rg.next
	if i >= len(rg.recs) {
		i -= len(rg.recs)
	}
	return &rg.recs[i]
}

// firstAfter returns the logical index of the oldest record with
// Seq > since, or len(rg.recs) if there is none.
func (rg *ring) firstAfter(since uint64) int {
	lo, hi := 0, len(rg.recs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rg.at(mid).Seq > since {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Buffer holds per-CPU rings of typed Records plus the name-interning
// table they index. A nil *Buffer is valid and discards everything;
// so is a zero-capacity one.
type Buffer struct {
	perCPU   int
	seq      uint64
	filtered bool
	filter   [numKinds]bool
	// rings[0] is the global (cpu = -1) ring; rings[i+1] is CPU i's.
	rings []ring

	names   []string
	nameIDs map[string]NameID
	// nameCache is a direct-mapped front for nameIDs: a hit costs a
	// slot index and a string compare (a pointer compare when the
	// caller passes the same string again) instead of a map hash. Only
	// the map assigns ids, so the cache never changes which id a name
	// gets.
	nameCache [nameCacheSlots]nameSlot
}

// nameCacheBits sizes a buffer's name cache at 128 slots. A machine
// interns a few dozen distinct names; one whose slot another name holds
// falls back to the map and takes the slot over.
const (
	nameCacheBits  = 7
	nameCacheSlots = 1 << nameCacheBits
)

type nameSlot struct {
	s  string
	id NameID
}

// nameSlotOf picks s's cache slot: its length and four of its bytes
// (first, middle, three-quarters, last — the last tells apart per-CPU
// variants such as "ksoftirqd/0" and "ksoftirqd/1"), mixed by a
// Fibonacci multiply whose top bits index the cache. s must be
// non-empty.
func nameSlotOf(s string) int {
	n := len(s)
	x := uint64(n) | uint64(s[0])<<8 | uint64(s[n>>1])<<16 | uint64(s[3*n>>2])<<24 | uint64(s[n-1])<<32
	return int(x * 0x9e3779b97f4a7c15 >> (64 - nameCacheBits))
}

// NewBuffer returns a buffer whose per-CPU rings hold at most capacity
// records each. capacity <= 0 yields a disabled buffer that records
// nothing (but is still safe to emit into).
func NewBuffer(capacity int) *Buffer {
	if capacity < 0 {
		capacity = 0
	}
	return &Buffer{perCPU: capacity}
}

// SetFilter restricts recording to the given kinds. Passing none clears
// the filter.
func (b *Buffer) SetFilter(kinds ...Kind) {
	if b == nil {
		return
	}
	b.filter = [numKinds]bool{}
	b.filtered = len(kinds) > 0
	for _, k := range kinds {
		b.filter[k] = true
	}
}

// Enabled reports whether a record of this kind would be retained. This
// is the zero-cost fast path: nil buffer, zero capacity and filtered
// kinds all answer false before any argument is materialized.
func (b *Buffer) Enabled(k Kind) bool {
	return b != nil && b.perCPU > 0 && (!b.filtered || b.filter[k])
}

// Intern returns the id for s, adding it to the table on first use.
// Steady-state interning of an already-seen name allocates nothing and,
// on a cache hit, hashes nothing.
func (b *Buffer) Intern(s string) NameID {
	if b == nil || s == "" {
		return 0
	}
	slot := &b.nameCache[nameSlotOf(s)]
	if slot.s == s {
		return slot.id
	}
	id, ok := b.nameIDs[s]
	if !ok {
		id = b.addName(s)
	}
	*slot = nameSlot{s: s, id: id}
	return id
}

// addName appends s to the intern table under the next id.
func (b *Buffer) addName(s string) NameID {
	if b.nameIDs == nil {
		//simlint:allow hotalloc intern table built once on first name; steady state is a map hit
		b.nameIDs = make(map[string]NameID)
	}
	if len(b.names) == 0 {
		//simlint:allow hotalloc intern table seeding happens once per buffer
		b.names = append(b.names, "")
	}
	id := NameID(len(b.names))
	//simlint:allow hotalloc interning allocates once per distinct name, not per event
	b.names = append(b.names, s)
	b.nameIDs[s] = id
	return id
}

// Name resolves an interned id back to its string.
func (b *Buffer) Name(id NameID) string {
	if b == nil || id <= 0 || int(id) >= len(b.names) {
		return ""
	}
	return b.names[id]
}

// emit assigns the next sequence number and stores r in its CPU's ring.
// Callers must have checked Enabled.
//
//simlint:hotpath
func (b *Buffer) emit(r Record) {
	b.seq++
	r.Seq = b.seq
	idx := int(r.CPU) + 1
	if idx < 0 {
		idx = 0
	}
	for len(b.rings) <= idx {
		//simlint:allow hotalloc per-CPU ring table grows to the max CPU index once, then stays
		b.rings = append(b.rings, ring{})
	}
	b.rings[idx].put(r, b.perCPU)
}

// clampNS stores a duration as int32 nanoseconds (saturating); record
// args are 32-bit and no single traced section approaches 2s.
func clampNS(d sim.Duration) int32 {
	if d < 0 {
		return 0
	}
	if d > math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(d)
}

// --- typed emitters (the kernel hot-path API) ---

// IRQRaise records an interrupt occurrence being routed to target.
//
//simlint:hotpath
func (b *Buffer) IRQRaise(at sim.Time, cpu, line int, name string, target int) {
	if !b.Enabled(KindIRQRaise) {
		return
	}
	b.emit(Record{At: at, Kind: KindIRQRaise, CPU: int32(cpu),
		A: int32(line), B: int32(b.Intern(name)), C: int32(target)})
}

// IRQEnter records a hardware interrupt handler starting.
//
//simlint:hotpath
func (b *Buffer) IRQEnter(at sim.Time, cpu, line int, name string) {
	if !b.Enabled(KindIRQEnter) {
		return
	}
	b.emit(Record{At: at, Kind: KindIRQEnter, CPU: int32(cpu),
		A: int32(line), B: int32(b.Intern(name))})
}

// IRQExit records a hardware interrupt handler completing.
//
//simlint:hotpath
func (b *Buffer) IRQExit(at sim.Time, cpu, line int, name string) {
	if !b.Enabled(KindIRQExit) {
		return
	}
	b.emit(Record{At: at, Kind: KindIRQExit, CPU: int32(cpu),
		A: int32(line), B: int32(b.Intern(name))})
}

// SoftirqEnter records a bottom-half pass starting with `work` queued.
//
//simlint:hotpath
func (b *Buffer) SoftirqEnter(at sim.Time, cpu int, work sim.Duration) {
	if !b.Enabled(KindSoftirqEnter) {
		return
	}
	b.emit(Record{At: at, Kind: KindSoftirqEnter, CPU: int32(cpu), A: clampNS(work)})
}

// SoftirqExit records a bottom-half pass completing after `ran`.
//
//simlint:hotpath
func (b *Buffer) SoftirqExit(at sim.Time, cpu int, ran sim.Duration) {
	if !b.Enabled(KindSoftirqExit) {
		return
	}
	b.emit(Record{At: at, Kind: KindSoftirqExit, CPU: int32(cpu), A: clampNS(ran)})
}

// Switch records a task being context-switched onto cpu.
//
//simlint:hotpath
func (b *Buffer) Switch(at sim.Time, cpu, pid int, name string, prio int) {
	if !b.Enabled(KindSwitch) {
		return
	}
	b.emit(Record{At: at, Kind: KindSwitch, CPU: int32(cpu),
		A: int32(pid), B: int32(b.Intern(name)), C: int32(prio)})
}

// Preempt records a task being descheduled in favor of a higher-
// priority one. boundary marks a preemption at an action/segment
// boundary rather than mid-frame.
//
//simlint:hotpath
func (b *Buffer) Preempt(at sim.Time, cpu, pid int, name string, boundary bool) {
	if !b.Enabled(KindPreempt) {
		return
	}
	var bnd int32
	if boundary {
		bnd = 1
	}
	b.emit(Record{At: at, Kind: KindPreempt, CPU: int32(cpu),
		A: int32(pid), B: int32(b.Intern(name)), C: bnd})
}

// Wakeup records a task becoming runnable, placed on target.
//
//simlint:hotpath
func (b *Buffer) Wakeup(at sim.Time, cpu, pid int, name string, target int) {
	if !b.Enabled(KindWakeup) {
		return
	}
	b.emit(Record{At: at, Kind: KindWakeup, CPU: int32(cpu),
		A: int32(pid), B: int32(b.Intern(name)), C: int32(target)})
}

// Migrate records a task moving between CPUs; to is -1 when the new
// CPU is not yet decided (pushed off by a shield/affinity change).
//
//simlint:hotpath
func (b *Buffer) Migrate(at sim.Time, cpu, pid int, name string, from, to int) {
	if !b.Enabled(KindMigrate) {
		return
	}
	b.emit(Record{At: at, Kind: KindMigrate, CPU: int32(cpu),
		A: int32(pid), B: int32(b.Intern(name)), C: int32(from), D: int32(to)})
}

// SyscallEnter records a task entering the kernel.
//
//simlint:hotpath
func (b *Buffer) SyscallEnter(at sim.Time, cpu, pid int, task, call string) {
	if !b.Enabled(KindSyscallEnter) {
		return
	}
	b.emit(Record{At: at, Kind: KindSyscallEnter, CPU: int32(cpu),
		A: int32(pid), B: int32(b.Intern(task)), C: int32(b.Intern(call))})
}

// SyscallExit records a task returning to user mode.
//
//simlint:hotpath
func (b *Buffer) SyscallExit(at sim.Time, cpu, pid int, task, call string) {
	if !b.Enabled(KindSyscallExit) {
		return
	}
	b.emit(Record{At: at, Kind: KindSyscallExit, CPU: int32(cpu),
		A: int32(pid), B: int32(b.Intern(task)), C: int32(b.Intern(call))})
}

// LockContend records a CPU starting to spin on a held lock.
//
//simlint:hotpath
func (b *Buffer) LockContend(at sim.Time, cpu int, lock string, holder int) {
	if !b.Enabled(KindLockContend) {
		return
	}
	b.emit(Record{At: at, Kind: KindLockContend, CPU: int32(cpu),
		A: int32(b.Intern(lock)), B: int32(holder)})
}

// LockAcquire records a contended lock being won after spinning.
//
//simlint:hotpath
func (b *Buffer) LockAcquire(at sim.Time, cpu int, lock string, spin sim.Duration) {
	if !b.Enabled(KindLockAcquire) {
		return
	}
	b.emit(Record{At: at, Kind: KindLockAcquire, CPU: int32(cpu),
		A: int32(b.Intern(lock)), B: clampNS(spin)})
}

// LockRelease records a lock being dropped after holding it for hold.
//
//simlint:hotpath
func (b *Buffer) LockRelease(at sim.Time, cpu int, lock string, hold sim.Duration) {
	if !b.Enabled(KindLockRelease) {
		return
	}
	b.emit(Record{At: at, Kind: KindLockRelease, CPU: int32(cpu),
		A: int32(b.Intern(lock)), B: clampNS(hold)})
}

// Shield records a shield mask transition for one dimension ("procs",
// "irqs" or "ltmr"). Masks are truncated to their low 32 bits.
//
//simlint:hotpath
func (b *Buffer) Shield(at sim.Time, dim string, old, new uint64) {
	if !b.Enabled(KindShield) {
		return
	}
	b.emit(Record{At: at, Kind: KindShield, CPU: -1,
		A: int32(b.Intern(dim)), B: int32(uint32(old)), C: int32(uint32(new))})
}

// TimerTick records a local timer tick being handled.
//
//simlint:hotpath
func (b *Buffer) TimerTick(at sim.Time, cpu int) {
	if !b.Enabled(KindTimerTick) {
		return
	}
	b.emit(Record{At: at, Kind: KindTimerTick, CPU: int32(cpu)})
}

// TimerExpire records the timer wheel expiring count timers on a tick.
//
//simlint:hotpath
func (b *Buffer) TimerExpire(at sim.Time, cpu, count int, jiffies uint64) {
	if !b.Enabled(KindTimerExpire) {
		return
	}
	b.emit(Record{At: at, Kind: KindTimerExpire, CPU: int32(cpu),
		A: int32(count), B: int32(uint32(jiffies))})
}

// --- legacy string API ---

// Emit appends a pre-formatted record. Legacy API: prefer the typed
// emitters; records stored this way render Msg verbatim.
func (b *Buffer) Emit(at sim.Time, cpu int, kind Kind, msg string) {
	if !b.Enabled(kind) {
		return
	}
	b.emit(Record{At: at, Kind: kind, CPU: int32(cpu), Msg: b.Intern(msg)})
}

// Emitf is Emit with fmt.Sprintf formatting. The format cost is paid
// only when the record would actually be retained: a nil, disabled, or
// filtering buffer short-circuits before formatting.
func (b *Buffer) Emitf(at sim.Time, cpu int, kind Kind, format string, args ...interface{}) {
	if !b.Enabled(kind) {
		return
	}
	b.emit(Record{At: at, Kind: kind, CPU: int32(cpu), Msg: b.Intern(fmt.Sprintf(format, args...))})
}

// --- readers ---

// Seq returns the number of records ever emitted (the newest record's
// sequence number).
func (b *Buffer) Seq() uint64 {
	if b == nil {
		return 0
	}
	return b.seq
}

// Len returns the number of retained records across all rings.
func (b *Buffer) Len() int {
	if b == nil {
		return 0
	}
	n := 0
	for i := range b.rings {
		n += len(b.rings[i].recs)
	}
	return n
}

// Dropped returns how many records were overwritten across all rings.
func (b *Buffer) Dropped() uint64 {
	if b == nil {
		return 0
	}
	var n uint64
	for i := range b.rings {
		n += b.rings[i].dropped
	}
	return n
}

// DroppedOn returns how many records were overwritten on one CPU's
// ring (cpu -1 is the global ring).
func (b *Buffer) DroppedOn(cpu int) uint64 {
	if b == nil {
		return 0
	}
	idx := cpu + 1
	if idx < 0 || idx >= len(b.rings) {
		return 0
	}
	return b.rings[idx].dropped
}

// AppendSince appends to dst every retained record with Seq > since,
// merged across the per-CPU rings in sequence (= chronological) order,
// and returns the extended slice plus the number of matching records
// that were already overwritten. Passing the previous call's last Seq
// makes this a cursor over the stream; with a caller-reused dst it is
// allocation-free in steady state.
//
// Seq strictly increases along each ring's logical order, so a ring's
// matching records are a suffix: a binary search finds where it starts,
// and each suffix is merged into the records already collected from the
// back. The cost is O(r·log capacity + r·k) for r rings and k returned
// records, independent of how full the rings are.
//
//simlint:hotpath
func (b *Buffer) AppendSince(dst []Record, since uint64) ([]Record, uint64) {
	if b == nil {
		return dst, 0
	}
	start := len(dst)
	for i := range b.rings {
		rg := &b.rings[i]
		first := rg.firstAfter(since)
		if first == len(rg.recs) {
			continue
		}
		mid := len(dst)
		// Copy the suffix in, in at most two contiguous runs.
		lo := rg.next + first
		if lo < len(rg.recs) {
			dst = append(dst, rg.recs[lo:]...)
			lo = 0
		} else {
			lo -= len(rg.recs)
		}
		dst = append(dst, rg.recs[lo:rg.next]...)
		if mid == start || dst[mid-1].Seq < dst[mid].Seq {
			continue
		}
		// Interleaved with earlier rings: merge from the back, reading
		// the suffix from the ring since its copy in dst is overwritten.
		a, w := mid-1, len(dst)-1
		for j := len(rg.recs) - 1; j >= first; j-- {
			r := rg.at(j)
			for a >= start && dst[a].Seq > r.Seq {
				dst[w] = dst[a]
				a--
				w--
			}
			dst[w] = *r
			w--
		}
	}
	var lost uint64
	if b.seq > since {
		lost = b.seq - since - uint64(len(dst)-start)
	}
	return dst, lost
}

// Records returns all retained records in chronological order.
func (b *Buffer) Records() []Record {
	if b == nil {
		return nil
	}
	out, _ := b.AppendSince(nil, 0)
	return out
}

// --- lazy rendering ---

// Format renders the record's message from its typed arguments (or its
// interned legacy message). This is the only place argument semantics
// are turned into text, and it runs on the reader, never at emit.
func (b *Buffer) Format(r Record) string {
	if r.Msg != 0 {
		return b.Name(r.Msg)
	}
	switch r.Kind {
	case KindIRQRaise:
		return fmt.Sprintf("irq %d (%s) -> cpu%d", r.A, b.Name(NameID(r.B)), r.C)
	case KindIRQEnter, KindIRQExit:
		return fmt.Sprintf("irq %d (%s)", r.A, b.Name(NameID(r.B)))
	case KindSoftirqEnter:
		return fmt.Sprintf("run %v", sim.Duration(r.A))
	case KindSoftirqExit:
		return fmt.Sprintf("ran %v", sim.Duration(r.A))
	case KindSwitch:
		return fmt.Sprintf("switch to %s/%d prio %d", b.Name(NameID(r.B)), r.A, r.C)
	case KindPreempt:
		if r.C != 0 {
			return fmt.Sprintf("boundary preempt %s/%d", b.Name(NameID(r.B)), r.A)
		}
		return fmt.Sprintf("preempt %s/%d", b.Name(NameID(r.B)), r.A)
	case KindWakeup:
		return fmt.Sprintf("%s/%d -> cpu%d", b.Name(NameID(r.B)), r.A, r.C)
	case KindMigrate:
		if r.D < 0 {
			return fmt.Sprintf("%s/%d off cpu%d", b.Name(NameID(r.B)), r.A, r.C)
		}
		return fmt.Sprintf("%s/%d cpu%d -> cpu%d", b.Name(NameID(r.B)), r.A, r.C, r.D)
	case KindSyscallEnter, KindSyscallExit:
		return fmt.Sprintf("%s/%d %s", b.Name(NameID(r.B)), r.A, b.Name(NameID(r.C)))
	case KindLockContend:
		return fmt.Sprintf("spin on %s (holder cpu%d)", b.Name(NameID(r.A)), r.B)
	case KindLockAcquire:
		return fmt.Sprintf("acquired %s after %v", b.Name(NameID(r.A)), sim.Duration(r.B))
	case KindLockRelease:
		return fmt.Sprintf("released %s held %v", b.Name(NameID(r.A)), sim.Duration(r.B))
	case KindShield:
		return fmt.Sprintf("%s %#x -> %#x", b.Name(NameID(r.A)), uint32(r.B), uint32(r.C))
	case KindTimerTick:
		return "tick"
	case KindTimerExpire:
		return fmt.Sprintf("%d timers expired (jiffies %d)", r.A, uint32(r.B))
	default:
		return ""
	}
}

// Line renders the record as a dmesg-like single line.
func (b *Buffer) Line(r Record) string {
	return fmt.Sprintf("[%12.6f] cpu%d %-12s %s", r.At.Seconds(), r.CPU, r.Kind, b.Format(r))
}

// Dump renders all retained records, one per line.
func (b *Buffer) Dump() string {
	var s strings.Builder
	for _, r := range b.Records() {
		s.WriteString(b.Line(r))
		s.WriteByte('\n')
	}
	return s.String()
}
