package kernel

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// snapLooper is a snapshot-capable test workload: it cycles through
// compute, a lock-heavy BKL syscall, a sleep and a yield, drawing every
// duration from the task RNG. Its only mutable state is the step
// counter, which crosses the snapshot boundary as one word.
type snapLooper struct {
	step uint64
}

func (b *snapLooper) Next(t *Task) Action {
	step := b.step
	b.step++
	switch step % 4 {
	case 0:
		return Compute(t.rng.Jitter(400*sim.Microsecond, 0.5))
	case 1:
		return Syscall(&SyscallCall{
			Name:                "ioctl",
			TakesBKL:            true,
			ReacquireBKLOnBlock: true,
			Segments: []Segment{
				{Kind: SegWork, D: t.rng.Jitter(60*sim.Microsecond, 0.5), Lock: t.kern.NamedLock("fs")},
				{Kind: SegWork, D: t.rng.Jitter(40*sim.Microsecond, 0.5), Lock: t.kern.NamedLock("io"), IRQsOff: true},
				{Kind: SegWork, D: t.rng.Jitter(30*sim.Microsecond, 0.5), NonPreempt: true, SchedPoint: true},
			},
		})
	case 2:
		return Sleep(t.rng.Jitter(2*sim.Millisecond, 0.5))
	default:
		return Yield()
	}
}

func (b *snapLooper) BehaviorName() string            { return "test.snap-looper" }
func (b *snapLooper) BehaviorState() []uint64         { return []uint64{b.step} }
func (b *snapLooper) SetBehaviorState(words []uint64) { b.step = words[0] }

// buildSnapMachine constructs the reference machine for the resume
// tests: 2 CPUs, a trace buffer, contended SCHED_OTHER loopers plus an
// RT task, all on snapshot-capable behaviors.
func buildSnapMachine(seed uint64) *Kernel {
	k := New(testConfig(2), seed)
	k.Trace = trace.NewBuffer(256)
	for i := 0; i < 3; i++ {
		k.NewTask(fmt.Sprintf("looper-%d", i), SchedOther, 0, 0, &snapLooper{})
	}
	k.NewTask("rt-looper", SchedFIFO, 50, 0, &snapLooper{})
	return k
}

// snapMachineT1Hash and snapMachineT2Hash pin the content hashes of
// buildSnapMachine(42)'s images at T1 and T2. It is the one machine
// whose images carry a trace.buffer section, in-flight syscalls and
// contended locks, so these pins guard the codec's byte layout for all
// of them: a tag renumbered on both the write and the read side would
// still resume, but would move these hashes.
const (
	snapMachineT1Hash uint64 = 0xd970076a8684d2c5
	snapMachineT2Hash uint64 = 0xa4a3d6c4becc446d
)

// TestSnapshotResumeEquivalence is the kernel-layer resume oracle:
// run to T1, snapshot, keep running to T2 and snapshot again; then
// restore the T1 image into a freshly built machine, run it to T2, and
// demand the two T2 images be byte-identical. Any divergence in any
// serialised field — clocks, RNG streams, run queues, lock statistics,
// trace rings — fails the byte compare.
func TestSnapshotResumeEquivalence(t *testing.T) {
	const (
		t1 = sim.Time(50 * sim.Millisecond)
		t2 = sim.Time(130 * sim.Millisecond)
	)
	a := buildSnapMachine(42)
	a.Start()
	a.Eng.Run(t1)
	snapNow := a.Now()
	img, err := a.Snapshot()
	if err != nil {
		t.Fatalf("snapshot at T1: %v", err)
	}
	img2, err := a.Snapshot()
	if err != nil {
		t.Fatalf("second snapshot at T1: %v", err)
	}
	if !bytes.Equal(img, img2) {
		t.Fatal("two snapshots of the same machine state differ")
	}
	if got := snapshot.Hash(img); got != snapMachineT1Hash {
		t.Errorf("T1 image hash %016x, want %016x (the image bytes moved)", got, snapMachineT1Hash)
	}
	a.Eng.Run(t2)
	wantT2, err := a.Snapshot()
	if err != nil {
		t.Fatalf("snapshot at T2: %v", err)
	}
	if got := snapshot.Hash(wantT2); got != snapMachineT2Hash {
		t.Errorf("T2 image hash %016x, want %016x (the image bytes moved)", got, snapMachineT2Hash)
	}

	b := buildSnapMachine(42)
	b.Start()
	if err := b.RestoreImage(img); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if b.Now() != snapNow {
		t.Fatalf("restored clock %v, want %v", b.Now(), snapNow)
	}
	b.Eng.Run(t2)
	gotT2, err := b.Snapshot()
	if err != nil {
		t.Fatalf("re-snapshot at T2: %v", err)
	}
	if !bytes.Equal(wantT2, gotT2) {
		t.Fatalf("restored run diverged: T2 images differ (%d vs %d bytes)", len(wantT2), len(gotT2))
	}
	// And the restored machine must be internally consistent on its own.
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("invariants after resumed run: %v", err)
	}
}

// TestSnapshotRequiresSnapBehavior: a machine running a closure-state
// behavior cannot cross the boundary and must say which task is at
// fault instead of silently dropping state.
func TestSnapshotRequiresSnapBehavior(t *testing.T) {
	k := New(testConfig(1), 42)
	k.NewTask("opaque", SchedOther, 0, 0, &onceBehavior{actions: []Action{Compute(time100ms)}})
	k.Start()
	k.Eng.Run(sim.Time(5 * sim.Millisecond))
	if _, err := k.Snapshot(); err == nil || !strings.Contains(err.Error(), "opaque") {
		t.Fatalf("snapshot error = %v, want one naming task %q", err, "opaque")
	}
}

const time100ms = 100 * sim.Millisecond

// TestSnapshotRefusesUntaggedWheelTimer: a wheel timer armed with a
// plain closure cannot be rebuilt on restore, so the snapshot fails
// naming it instead of writing an image that cannot resume.
func TestSnapshotRefusesUntaggedWheelTimer(t *testing.T) {
	k := buildSnapMachine(42)
	k.Start()
	k.AddTimer(50*sim.Millisecond, func() {})
	k.Eng.Run(sim.Time(5 * sim.Millisecond))
	if img, err := k.Snapshot(); err == nil || !strings.Contains(err.Error(), "untagged wheel timer") {
		t.Fatalf("snapshot = %d bytes, err %v; want an untagged wheel timer error", len(img), err)
	}
}

// TestRestoreRejectsConstructionMismatch: restoring into a machine that
// was not built identically must fail loudly, not corrupt state.
func TestRestoreRejectsConstructionMismatch(t *testing.T) {
	a := buildSnapMachine(42)
	a.Start()
	a.Eng.Run(sim.Time(20 * sim.Millisecond))
	img, err := a.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	b := buildSnapMachine(42)
	b.NewTask("extra", SchedOther, 0, 0, &snapLooper{})
	b.Start()
	if err := b.RestoreImage(img); err == nil {
		t.Fatal("restore into a machine with an extra task succeeded")
	}

	c := buildSnapMachine(42)
	if err := c.RestoreImage(img); err == nil || !strings.Contains(err.Error(), "start") {
		t.Fatalf("restore into an unstarted machine: err = %v, want a 'not started' error", err)
	}
}

// TestRestoreRejectsStrayPinnedEvent: only timers are pinned, so an
// image whose pending list holds a pinned event no timer owns is
// corrupt. Images reach a restore from outside the process, so
// RestoreImage must return an error naming the kind, not panic. The
// stray event here is a pinned timer outside the kernel wearing a
// one-shot kernel kind.
func TestRestoreRejectsStrayPinnedEvent(t *testing.T) {
	a := buildSnapMachine(42)
	a.Start()
	a.Eng.Run(sim.Time(5 * sim.Millisecond))
	var stray sim.Timer
	stray.Init(evBusResample.Tag(0, 0, 0), true, func() {})
	a.Eng.ArmTimer(&stray, a.Now().Add(sim.Millisecond))
	img, err := a.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	b := buildSnapMachine(42)
	b.Start()
	err = b.RestoreImage(img)
	if err == nil || !strings.Contains(err.Error(), "pinned event k.bus-resample") {
		t.Fatalf("restore of a stray pinned event: err = %v, want one naming k.bus-resample", err)
	}
}

// --- timer wheel satellite: restore mid-cascade at a wrap boundary ---

// probeKind identifies the test's wheel timers; the registered
// rebuilder reconstructs the callback on the restored machine.
var probeKind = sim.RegisterEventKind("kt.wheel-probe")

type probeHit struct {
	id uint64
	at sim.Time
}

var (
	probeMu   sync.Mutex
	probeLogs = map[*Kernel][]probeHit{}
)

func recordProbe(k *Kernel, id uint64) {
	probeMu.Lock()
	probeLogs[k] = append(probeLogs[k], probeHit{id: id, at: k.Now()})
	probeMu.Unlock()
}

func probeLog(k *Kernel) []probeHit {
	probeMu.Lock()
	defer probeMu.Unlock()
	return append([]probeHit(nil), probeLogs[k]...)
}

func init() {
	RegisterEventRebuild("kt.wheel-probe", func(k *Kernel, a0, a1, a2 uint64) (func(), error) {
		return func() { recordProbe(k, a0) }, nil
	})
}

// armProbe schedules a probe timer id that expires n jiffies from now
// (armed pre-Start, so at absolute jiffy n).
func armProbe(k *Kernel, id uint64, n uint64) {
	k.wheel.addTimer(n, func() { recordProbe(k, id) }, probeKind.Tag(id, 0, 0))
}

// TestTimerWheelRestoreMidCascade snapshots a machine a few jiffies
// after the tv1 wrap at jiffy 256 — when the first cascade has already
// migrated some timers down into tv1, others still sit in higher
// vectors, and one far timer will not cascade for a long time — and
// checks the restored wheel fires the remaining timers at exactly the
// times the uninterrupted machine does. The positional (level, index)
// encoding is what makes this exact; an expiry-only encoding would
// re-run the cascade and could reorder bucket contents.
func TestTimerWheelRestoreMidCascade(t *testing.T) {
	const seed = 7
	build := func() *Kernel { return New(testConfig(1), seed) }
	jiffy := sim.Duration(int64(sim.Second) / int64(testConfig(1).LocalTimerHz))
	at := func(j uint64) sim.Time { return sim.Time(sim.Duration(j) * jiffy) }

	// Expiry jiffies chosen to straddle the 256 wrap: 5/40/250 fire
	// before the snapshot; 258 fires right at the cascade; 270/300 are
	// cascaded into tv1 by it and pending at snapshot time; 600 is
	// still in tv[0]; 20000 is in tv[1] and outlives the test.
	probes := []uint64{5, 40, 250, 258, 270, 300, 600, 20000}
	arm := func(k *Kernel) {
		for _, j := range probes {
			armProbe(k, j, j)
		}
	}

	a := build()
	arm(a)
	a.Start()
	snapAt := at(262)
	a.Eng.Run(snapAt)
	if j := a.Jiffies(); j < 258 || j >= 270 {
		t.Fatalf("jiffies at snapshot = %d, want within [258, 270) (just past the 256 cascade)", j)
	}
	img, err := a.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	end := at(700)
	a.Eng.Run(end)

	// The restoring machine does NOT re-arm the probes: the wheel's
	// contents come entirely from the image, via the registered
	// rebuilder.
	b := build()
	b.Start()
	if err := b.RestoreImage(img); err != nil {
		t.Fatalf("restore: %v", err)
	}
	b.Eng.Run(end)

	var wantTail []probeHit
	for _, h := range probeLog(a) {
		if h.at > snapAt {
			wantTail = append(wantTail, h)
		}
	}
	gotTail := probeLog(b)
	if len(wantTail) != 3 {
		t.Fatalf("uninterrupted run fired %d probes after the snapshot, want 3 (270, 300, 600): %+v", len(wantTail), wantTail)
	}
	if len(gotTail) != len(wantTail) {
		t.Fatalf("restored run fired %d probes, want %d: got %+v want %+v", len(gotTail), len(wantTail), gotTail, wantTail)
	}
	for i := range wantTail {
		if gotTail[i] != wantTail[i] {
			t.Fatalf("probe %d: restored fired id=%d at %v, uninterrupted id=%d at %v",
				i, gotTail[i].id, gotTail[i].at, wantTail[i].id, wantTail[i].at)
		}
	}

	// The far timer (20000) must have round-tripped positionally: the
	// final images of both runs — including every wheel bucket — agree.
	wantImg, err := a.Snapshot()
	if err != nil {
		t.Fatalf("final snapshot of uninterrupted run: %v", err)
	}
	gotImg, err := b.Snapshot()
	if err != nil {
		t.Fatalf("final snapshot of restored run: %v", err)
	}
	if !bytes.Equal(wantImg, gotImg) {
		t.Fatal("final images differ between uninterrupted and restored runs")
	}
}

// stubComponent and otherComponent are two distinct component types
// for the lookup checks below.
type stubComponent struct{ name string }

func (c *stubComponent) SnapName() string          { return c.name }
func (c *stubComponent) SnapVisit(*snapshot.Codec) {}

type otherComponent struct{ stubComponent }

// TestRestoredComponentChecksIDAndType: a restored event tag names its
// component by id, and the image comes from outside the process. An id
// past the registered components and an id naming a component of
// another type must both come back as errors naming the event kind, not
// panic; a matching id and type returns the component.
func TestRestoredComponentChecksIDAndType(t *testing.T) {
	k := New(testConfig(2), 1)
	want := &stubComponent{name: "test.stub"}
	id := k.RegisterComponent(want)
	other := k.RegisterComponent(&otherComponent{stubComponent{name: "test.other"}})

	got, err := RestoredComponent[*stubComponent](k, id, "test.kind")
	if err != nil || got != want {
		t.Fatalf("RestoredComponent(%d) = %v, %v; want the registered stub", id, got, err)
	}
	for _, tc := range []struct {
		name string
		id   uint64
	}{{"unknown id", other + 1}, {"huge id", ^uint64(0)}, {"wrong type", other}} {
		_, err := RestoredComponent[*stubComponent](k, tc.id, "test.kind")
		if err == nil || !strings.Contains(err.Error(), "test.kind") {
			t.Errorf("%s: err = %v, want an error naming the event kind", tc.name, err)
		}
	}
}
