package trace

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/snapshot"
)

func TestEmitAndRecords(t *testing.T) {
	b := NewBuffer(10)
	b.IRQEnter(100, 0, 8, "rtc")
	b.Wakeup(200, 1, 42, "worker", 1)
	recs := b.Records()
	if len(recs) != 2 {
		t.Fatalf("len = %d", len(recs))
	}
	if recs[0].At != 100 || recs[0].Kind != KindIRQEnter || recs[1].CPU != 1 {
		t.Fatalf("records = %+v", recs)
	}
	if recs[0].Seq != 1 || recs[1].Seq != 2 {
		t.Fatalf("Seq = %d, %d", recs[0].Seq, recs[1].Seq)
	}
	if got := b.Format(recs[1]); got != "worker/42 -> cpu1" {
		t.Fatalf("Format = %q", got)
	}
}

func TestRingWrapAndDropped(t *testing.T) {
	b := NewBuffer(3)
	for i := 0; i < 5; i++ {
		b.TimerTick(sim.Time(i), 0)
	}
	recs := b.Records()
	if len(recs) != 3 {
		t.Fatalf("len = %d, want 3", len(recs))
	}
	want := []sim.Time{2, 3, 4}
	for i, r := range recs {
		if r.At != want[i] {
			t.Fatalf("recs[%d].At = %v, want %v (chronological after wrap)", i, r.At, want[i])
		}
	}
	if b.Dropped() != 2 {
		t.Fatalf("Dropped = %d", b.Dropped())
	}
	if b.DroppedOn(0) != 2 || b.DroppedOn(1) != 0 {
		t.Fatalf("DroppedOn = %d, %d", b.DroppedOn(0), b.DroppedOn(1))
	}
	// Per-CPU rings fill independently: CPU 1 has its own capacity.
	b.TimerTick(10, 1)
	if b.DroppedOn(1) != 0 || b.Len() != 4 {
		t.Fatalf("cpu1 ring should not share cpu0's capacity")
	}
}

func TestPerCPUMergeOrdering(t *testing.T) {
	b := NewBuffer(16)
	// Interleave emits across three rings (global, cpu0, cpu1); the
	// merged stream must come back in emit (sequence) order even though
	// each ring holds a non-contiguous subsequence.
	cpus := []int{1, 0, -1, 1, 1, 0, -1, 0}
	for i, cpu := range cpus {
		b.TimerTick(sim.Time(100+i), cpu)
	}
	recs := b.Records()
	if len(recs) != len(cpus) {
		t.Fatalf("len = %d", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("recs[%d].Seq = %d, want %d", i, r.Seq, i+1)
		}
		if int(r.CPU) != cpus[i] || r.At != sim.Time(100+i) {
			t.Fatalf("recs[%d] = %+v, want cpu %d at %d", i, r, cpus[i], 100+i)
		}
	}
}

func TestAppendSinceCursor(t *testing.T) {
	b := NewBuffer(2) // tiny rings so the cursor sees overwrites
	for i := 0; i < 3; i++ {
		b.TimerTick(sim.Time(i), 0)
	}
	recs, lost := b.AppendSince(nil, 0)
	if len(recs) != 2 || lost != 1 {
		t.Fatalf("got %d recs, lost %d; want 2 recs, 1 lost", len(recs), lost)
	}
	cursor := recs[len(recs)-1].Seq
	b.TimerTick(10, 0)
	b.TimerTick(11, 1)
	recs, lost = b.AppendSince(recs[:0], cursor)
	if len(recs) != 2 || lost != 0 {
		t.Fatalf("after cursor: %d recs, lost %d", len(recs), lost)
	}
	if recs[0].At != 10 || recs[1].At != 11 {
		t.Fatalf("cursor records = %+v", recs)
	}
	// Nothing new: empty, no loss.
	recs, lost = b.AppendSince(recs[:0], b.Seq())
	if len(recs) != 0 || lost != 0 {
		t.Fatalf("idle cursor: %d recs, lost %d", len(recs), lost)
	}
}

func TestNilBufferSafe(t *testing.T) {
	var b *Buffer
	b.TimerTick(1, 0)
	b.IRQEnter(1, 0, 3, "nic")
	b.Switch(1, 0, 4, "task", 0)
	b.Emit(1, 0, KindUser, "x")
	b.Emitf(1, 0, KindUser, "x %d", 1)
	b.SetFilter(KindUser)
	if b.Records() != nil || b.Len() != 0 || b.Dropped() != 0 || b.Seq() != 0 {
		t.Fatal("nil buffer should be inert")
	}
	if b.Enabled(KindUser) {
		t.Fatal("nil buffer reports Enabled")
	}
	if b.Intern("x") != 0 || b.Name(1) != "" {
		t.Fatal("nil buffer interning should be inert")
	}
}

func TestZeroCapacityDisabled(t *testing.T) {
	b := NewBuffer(0)
	if b.Enabled(KindSwitch) {
		t.Fatal("zero-capacity buffer reports Enabled")
	}
	b.Switch(1, 0, 4, "task", 0)
	b.Emitf(1, 0, KindUser, "msg %d", 1)
	if b.Len() != 0 || b.Seq() != 0 {
		t.Fatal("zero-capacity buffer retained records")
	}
}

func TestFilter(t *testing.T) {
	b := NewBuffer(10)
	b.SetFilter(KindShield)
	b.TimerTick(1, 0)
	b.Shield(2, "procs", 0, 2)
	if b.Len() != 1 || b.Records()[0].Kind != KindShield {
		t.Fatalf("filter failed: %+v", b.Records())
	}
	// Filtered-out records don't consume sequence numbers.
	if b.Seq() != 1 {
		t.Fatalf("Seq = %d", b.Seq())
	}
	b.SetFilter() // clear
	b.TimerTick(3, 0)
	if b.Len() != 2 {
		t.Fatal("clearing filter failed")
	}
}

// formatSpy records whether fmt ever rendered it.
type formatSpy struct{ formatted *bool }

func (s formatSpy) String() string { *s.formatted = true; return "spy" }

func TestEmitfShortCircuits(t *testing.T) {
	// The legacy formatting path must not run Sprintf when the record
	// would be discarded: nil buffer, zero capacity, or filtered kind.
	var formatted bool
	spy := formatSpy{formatted: &formatted}

	var nilBuf *Buffer
	nilBuf.Emitf(1, 0, KindUser, "%s", spy)
	if formatted {
		t.Fatal("nil-buffer Emitf formatted its arguments")
	}
	disabled := NewBuffer(0)
	disabled.Emitf(1, 0, KindUser, "%s", spy)
	if formatted {
		t.Fatal("zero-capacity Emitf formatted its arguments")
	}
	filtered := NewBuffer(8)
	filtered.SetFilter(KindShield)
	filtered.Emitf(1, 0, KindUser, "%s", spy)
	if formatted {
		t.Fatal("filtered Emitf formatted its arguments")
	}
	// Control: a retaining buffer does format.
	live := NewBuffer(8)
	live.Emitf(1, 0, KindUser, "%s", spy)
	if !formatted {
		t.Fatal("live Emitf did not format")
	}
}

func TestEmitf(t *testing.T) {
	b := NewBuffer(4)
	b.Emitf(5, 2, KindMigrate, "pid %d -> cpu%d", 7, 1)
	if got := b.Format(b.Records()[0]); got != "pid 7 -> cpu1" {
		t.Fatalf("Format = %q", got)
	}
}

func TestDisabledTypedEmitZeroAlloc(t *testing.T) {
	// The tentpole contract: with tracing off, a typed tracepoint is a
	// nil check and nothing else.
	var b *Buffer
	if n := testing.AllocsPerRun(1000, func() {
		b.IRQEnter(1, 0, 5, "rcim")
		b.Switch(2, 0, 9, "rcim-response", 90)
		b.Migrate(3, 0, 9, "rcim-response", 0, 1)
		b.LockRelease(4, 0, "BKL", 100)
	}); n != 0 {
		t.Fatalf("disabled typed emit allocates %v/op", n)
	}
}

func TestEnabledSteadyStateZeroAlloc(t *testing.T) {
	// Once the ring and intern table are warm, emitting is copy-only.
	b := NewBuffer(64)
	b.IRQEnter(0, 0, 5, "rcim") // warm the ring and the name
	if n := testing.AllocsPerRun(1000, func() {
		b.IRQEnter(1, 0, 5, "rcim")
		b.IRQExit(2, 0, 5, "rcim")
	}); n != 0 {
		t.Fatalf("steady-state enabled emit allocates %v/op", n)
	}
}

func TestInterning(t *testing.T) {
	b := NewBuffer(8)
	id := b.Intern("dcache")
	if id == 0 || b.Intern("dcache") != id {
		t.Fatalf("interning not stable: %d vs %d", id, b.Intern("dcache"))
	}
	if b.Name(id) != "dcache" {
		t.Fatalf("Name = %q", b.Name(id))
	}
	if b.Intern("") != 0 || b.Name(0) != "" {
		t.Fatal("empty string must map to id 0")
	}
	if b.Name(999) != "" {
		t.Fatal("out-of-range id must render empty")
	}
}

// TestInternCacheSharesIDAcrossCopies: a name passed in a different
// backing array than the one cached hits the same slot and the same id;
// the table holds it once.
func TestInternCacheSharesIDAcrossCopies(t *testing.T) {
	b := NewBuffer(8)
	name := "rcim-response"
	id := b.Intern(name)
	copied := strings.Clone(name) // equal content, its own backing array
	if got := b.Intern(copied); got != id {
		t.Fatalf("copy of %q interned as %d, original as %d", name, got, id)
	}
	if got := b.Intern(name); got != id {
		t.Fatalf("re-interning %q gave %d, want %d", name, got, id)
	}
	if len(b.names) != 2 { // the "" sentinel and the name
		t.Fatalf("names table %q, want one entry after the sentinel", b.names)
	}
}

// TestInternCacheCollision: two names that share a cache slot evict each
// other, and each lookup then falls back to the map, which keeps their
// ids distinct and stable in first-use order.
func TestInternCacheCollision(t *testing.T) {
	first := "lock-0"
	var second string
	for i := 1; second == ""; i++ {
		if s := fmt.Sprintf("lock-%d", i); nameSlotOf(s) == nameSlotOf(first) {
			second = s
		}
	}
	b := NewBuffer(8)
	a1, b1 := b.Intern(first), b.Intern(second)
	if a1 != 1 || b1 != 2 {
		t.Fatalf("ids %d, %d for %q, %q; want 1, 2 in first-use order", a1, b1, first, second)
	}
	for i := 0; i < 4; i++ {
		if a, c := b.Intern(first), b.Intern(second); a != a1 || c != b1 {
			t.Fatalf("round %d: ids %d, %d; want %d, %d", i, a, c, a1, b1)
		}
	}
	if b.Name(a1) != first || b.Name(b1) != second || len(b.names) != 3 {
		t.Fatalf("names table %q", b.names)
	}
}

// TestInternAfterRestore: restore replaces the intern table, so a cache
// warmed before it must not answer with the old table's ids.
func TestInternAfterRestore(t *testing.T) {
	src := NewBuffer(8)
	for _, n := range []string{"BKL", "rcim", "dcache"} {
		src.Intern(n)
	}
	w := snapshot.NewWriter()
	src.Visit(w.Codec())
	r, err := snapshot.OpenReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	dst := NewBuffer(8)
	for _, n := range []string{"dcache", "rcim", "eth0"} { // other ids, cached
		dst.Intern(n)
	}
	if dst.Visit(r.Codec()); r.Err() != nil {
		t.Fatal(r.Err())
	}
	for _, n := range []string{"dcache", "rcim", "BKL", "eth0"} {
		if got, want := dst.Intern(n), src.Intern(n); got != want {
			t.Errorf("after restore %q interns as %d, the image's table says %d", n, got, want)
		}
	}
}

func TestFormatAndLine(t *testing.T) {
	b := NewBuffer(16)
	b.IRQEnter(sim.Time(1500000), 1, 8, "rtc")
	b.LockRelease(2, 0, "BKL", 250)
	b.Shield(3, "procs", 0, 2)
	b.Migrate(4, 0, 12, "stress", 0, -1)
	recs := b.Records()
	line := b.Line(recs[0])
	for _, want := range []string{"cpu1", "irq-enter", "irq 8 (rtc)", "0.001500"} {
		if !strings.Contains(line, want) {
			t.Fatalf("Line() = %q missing %q", line, want)
		}
	}
	if got := b.Format(recs[1]); got != "released BKL held 250ns" {
		t.Fatalf("lock-release Format = %q", got)
	}
	if got := b.Format(recs[2]); got != "procs 0x0 -> 0x2" {
		t.Fatalf("shield Format = %q", got)
	}
	if got := b.Format(recs[3]); got != "stress/12 off cpu0" {
		t.Fatalf("migrate Format = %q", got)
	}
}

func TestDump(t *testing.T) {
	b := NewBuffer(4)
	b.TimerTick(1, 0)
	b.TimerTick(2, 0)
	d := b.Dump()
	if strings.Count(d, "\n") != 2 {
		t.Fatalf("Dump = %q", d)
	}
}

func TestKindString(t *testing.T) {
	if KindSoftirqEnter.String() != "softirq-enter" {
		t.Fatalf("KindSoftirqEnter = %q", KindSoftirqEnter.String())
	}
	if KindLockRelease.String() != "lock-release" {
		t.Fatalf("KindLockRelease = %q", KindLockRelease.String())
	}
	if got := Kind(200).String(); !strings.Contains(got, "200") {
		t.Fatalf("unknown kind = %q", got)
	}
}
