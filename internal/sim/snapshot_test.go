package sim

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/snapshot"
)

// snapHarness is a miniature restorable simulation: a counter mutated
// by registered event kinds, some of which draw the engine RNG and
// schedule children. It exists to prove the engine's snapshot contract
// end to end without the kernel on top.
type snapHarness struct {
	eng     *Engine
	counter uint64
	log     []string
	// The harness owns two timers ("test.timer", A0 = index; timer 0
	// is pinned). plain runs them as refTimers, the remove-plus-schedule
	// model of a Timer; otherwise they are Timers.
	plain  bool
	timers [2]Timer
	refs   [2]refTimer
	// ticks are pinned periodic timers ("test.tick", A0 = period, A1 =
	// index), Timers in both models.
	ticks []*Timer
}

var (
	kindCount   = RegisterEventKind("test.count")
	kindSpawn   = RegisterEventKind("test.spawn")
	kindTick    = RegisterEventKind("test.tick")
	kindTimer   = RegisterEventKind("test.timer")
	kindTimerOp = RegisterEventKind("test.timer-op")
)

func newSnapHarness(eng *Engine) *snapHarness {
	h := &snapHarness{eng: eng}
	for i := range h.timers {
		i := i
		tag := kindTimer.Tag(uint64(i), 0, 0)
		h.timers[i].Init(tag, i == 0, func() { h.timerFired(i) })
		h.refs[i].init(tag, i == 0, func() { h.timerFired(i) })
	}
	return h
}

// armTimer arms (or re-arms) timer i at at.
func (h *snapHarness) armTimer(i int, at Time) {
	if h.plain {
		h.refs[i].arm(h.eng, at)
	} else {
		h.eng.ArmTimer(&h.timers[i], at)
	}
}

func (h *snapHarness) disarmTimer(i int) {
	if h.plain {
		h.refs[i].disarm(h.eng)
	} else {
		h.eng.DisarmTimer(&h.timers[i])
	}
}

func (h *snapHarness) timerArmed(i int) bool {
	if h.plain {
		return h.refs[i].armed()
	}
	return h.timers[i].Armed()
}

// startTick starts a new tick timer with the given period, first
// firing at at.
func (h *snapHarness) startTick(at Time, period uint64) {
	h.eng.ArmTimer(h.tick(len(h.ticks), period), at)
}

// tick returns tick timer i, binding it on first use. Each firing
// bumps the counter and re-arms the timer one period on.
func (h *snapHarness) tick(i int, period uint64) *Timer {
	for len(h.ticks) <= i {
		h.ticks = append(h.ticks, nil)
	}
	if h.ticks[i] == nil {
		tm := new(Timer)
		tm.Init(kindTick.Tag(period, uint64(i), 0), true, func() {
			h.counter++
			h.log = append(h.log, fmt.Sprintf("tick@%d c=%d", h.eng.Now(), h.counter))
			h.eng.ArmTimer(tm, h.eng.Now().Add(Duration(period)))
		})
		h.ticks[i] = tm
	}
	return h.ticks[i]
}

// timerFired is timer i's body: it draws the RNG, and timer 0 is
// periodic.
func (h *snapHarness) timerFired(i int) {
	h.counter += uint64(1000*(i+1)) + h.eng.RNG().Uint64()%7
	h.log = append(h.log, fmt.Sprintf("timer%d@%d c=%d", i, h.eng.Now(), h.counter))
	if i == 0 {
		h.armTimer(0, h.eng.Now().Add(313))
	}
}

// timerOp is the "test.timer-op" body: code picks timer code%2 and one
// of arm at now+delay, arm now, disarm, or re-arm at now+delay if armed.
func (h *snapHarness) timerOp(code, delay uint64) {
	i := int(code % 2)
	now := h.eng.Now()
	h.log = append(h.log, fmt.Sprintf("timer-op@%d code=%d", now, code))
	switch (code / 2) % 4 {
	case 0:
		h.armTimer(i, now.Add(Duration(delay)))
	case 1:
		h.armTimer(i, now)
	case 2:
		h.disarmTimer(i)
	default:
		if h.timerArmed(i) {
			h.armTimer(i, now.Add(Duration(delay)))
		}
	}
}

// fire implements every test kind; restore rebuilds callbacks by
// binding the same method to the restored tag.
func (h *snapHarness) fire(tag EventTag) func() {
	return func() {
		switch tag.Kind {
		case kindCount:
			h.counter += tag.A0 + h.eng.RNG().Uint64()%97
			h.log = append(h.log, fmt.Sprintf("count@%d a0=%d c=%d", h.eng.Now(), tag.A0, h.counter))
		case kindSpawn:
			h.log = append(h.log, fmt.Sprintf("spawn@%d budget=%d", h.eng.Now(), tag.A0))
			if tag.A0 > 0 {
				d := Duration(1 + h.eng.RNG().Uint64()%1000)
				h.eng.AfterTagged(d, kindSpawn.Tag(tag.A0-1, uint64(d), 0), h.fire(kindSpawn.Tag(tag.A0-1, uint64(d), 0)))
				h.eng.AfterTagged(d/2, kindCount.Tag(tag.A0, 0, 0), h.fire(kindCount.Tag(tag.A0, 0, 0)))
			}
		case kindTimerOp:
			h.timerOp(tag.A0, tag.A1)
		}
	}
}

func (h *snapHarness) schedule(at Time, tag EventTag) {
	h.eng.ScheduleTagged(at, tag, h.fire(tag))
}

// restore re-queues one restored event: timer kinds re-arm their
// timer (a refTimer in the plain model), every other kind is rebuilt
// through fire.
func (h *snapHarness) restore(rev RestoredEvent) error {
	tag := EventTag{Kind: RegisterEventKind(rev.Kind), A0: rev.A0, A1: rev.A1, A2: rev.A2}
	switch tag.Kind {
	case kindTick:
		return h.eng.RestoreTimer(h.tick(int(rev.A1), rev.A0), rev)
	case kindTimer:
		if h.plain {
			h.refs[rev.A0].restore(h.eng, rev.At, rev.Seq)
			return nil
		}
		return h.eng.RestoreTimer(&h.timers[rev.A0], rev)
	}
	return h.eng.RestoreEvent(rev, h.fire(tag))
}

const harnessSection = "test.harness"

func (h *snapHarness) snapshot() []byte {
	w := snapshot.NewWriter()
	w.Begin(harnessSection)
	w.U64(1, h.counter)
	w.End()
	if _, err := h.eng.Visit(w.Codec()); err != nil {
		panic(err)
	}
	return w.Finish()
}

// restoreHarness rebuilds a harness from img on a fresh engine created
// by mkEngine (which may pre-schedule boot noise that restore must
// drain).
func restoreHarness(t *testing.T, img []byte, mkEngine func() *Engine) *snapHarness {
	t.Helper()
	return restoreHarnessPlain(t, img, mkEngine, false)
}

// restoreHarnessPlain is restoreHarness with the restored harness's
// timer model chosen: Timers re-armed by RestoreTimer, or (plain)
// refTimers.
func restoreHarnessPlain(t *testing.T, img []byte, mkEngine func() *Engine, plain bool) *snapHarness {
	t.Helper()
	eng := mkEngine()
	h := newSnapHarness(eng)
	h.plain = plain
	r, err := snapshot.OpenReader(img)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	r.Section(harnessSection)
	h.counter = r.U64(1)
	r.EndSection()
	evs, err := eng.Visit(r.Codec())
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	for _, rev := range evs {
		if err := h.restore(rev); err != nil {
			t.Fatalf("restore %s: %v", rev.Kind, err)
		}
	}
	if err := r.Err(); err != nil {
		t.Fatalf("reader: %v", err)
	}
	return h
}

// seedHarness installs a deterministic mixed workload: a recurring
// pinned tick, a spawn cascade, same-instant unpinned counts, and timer
// ops that arm, tie, re-arm and disarm both timers (timer 0 then ticks
// periodically).
func seedHarness(h *snapHarness) {
	h.startTick(10, 500)
	h.schedule(25, kindSpawn.Tag(6, 0, 0))
	for i := uint64(0); i < 5; i++ {
		h.schedule(300, kindCount.Tag(i, 0, 0)) // same-instant ties
	}
	h.schedule(100_000, kindCount.Tag(99, 0, 0))
	h.schedule(20, kindTimerOp.Tag(0, 280, 0))    // timer 0 at 300, tied with the counts
	h.schedule(20, kindTimerOp.Tag(1, 1200, 0))   // timer 1 at 1220
	h.schedule(290, kindTimerOp.Tag(3, 10, 0))    // timer 1 fires now, in the batch
	h.schedule(300, kindTimerOp.Tag(1, 900, 0))   // timer 1 again at 1200
	h.schedule(700, kindTimerOp.Tag(7, 40, 0))    // re-arm timer 1 to 740
	h.schedule(5_000, kindTimerOp.Tag(4, 0, 0))   // stop the periodic timer 0
	h.schedule(5_100, kindTimerOp.Tag(0, 500, 0)) // and restart it at 5_600
}

func runSnapshotResume(t *testing.T, salt uint64, stopAt Time) {
	t.Helper()
	// Uninterrupted reference run.
	ref := newSnapHarness(NewEngine(1234))
	ref.eng.PerturbTiebreaks(salt)
	seedHarness(ref)
	ref.eng.Run(200_000)

	// Interrupted run: stop at stopAt, snapshot, restore, continue.
	a := newSnapHarness(NewEngine(1234))
	a.eng.PerturbTiebreaks(salt)
	seedHarness(a)
	a.eng.Run(stopAt)
	img := a.snapshot()

	b := restoreHarness(t, img, func() *Engine {
		eng := NewEngine(999) // seed overwritten by restore
		// Boot noise the restore must drain, including a far-future
		// event later than every restored one.
		eng.ScheduleTagged(3, kindCount.Tag(0, 0, 0), func() {})
		eng.ScheduleTagged(10_000_000, kindCount.Tag(0, 0, 0), func() {})
		return eng
	})
	b.log = append([]string{}, a.log...)
	b.eng.Run(200_000)

	if b.eng.Now() != ref.eng.Now() {
		t.Errorf("final clock: resumed %v, reference %v", b.eng.Now(), ref.eng.Now())
	}
	if b.eng.Fired() != ref.eng.Fired() {
		t.Errorf("fired: resumed %d, reference %d", b.eng.Fired(), ref.eng.Fired())
	}
	if b.counter != ref.counter {
		t.Errorf("counter: resumed %d, reference %d", b.counter, ref.counter)
	}
	if b.eng.RNG().state != ref.eng.RNG().state {
		t.Errorf("rng state diverged")
	}
	if !slices.Equal(b.log, ref.log) {
		t.Errorf("dispatch log diverged:\nresumed  %d entries\nreference %d entries", len(b.log), len(ref.log))
		for i := range ref.log {
			if i >= len(b.log) || b.log[i] != ref.log[i] {
				t.Errorf("first divergence at %d: resumed %q, reference %q", i, at(b.log, i), ref.log[i])
				break
			}
		}
	}
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<missing>"
}

func TestSnapshotResume(t *testing.T) {
	for _, tc := range []struct {
		name  string
		salts []uint64
	}{
		{"heap", []uint64{0}},
		{"heap-salted", []uint64{0xfeed, 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, salt := range tc.salts {
				for _, stop := range []Time{0, 26, 300, 1500} {
					runSnapshotResume(t, salt, stop)
				}
			}
		})
	}
}

// TestSnapshotBytesQueueKindInvariant pins the canonical-bytes claim:
// the engine section depends only on simulation state, never on the
// pool mode that supplied its nodes.
func TestSnapshotBytesQueueKindInvariant(t *testing.T) {
	build := func(e *Engine) []byte {
		h := newSnapHarness(e)
		seedHarness(h)
		h.eng.Run(400)
		return h.snapshot()
	}
	pooled := build(NewEngine(42))
	if got := build(withAllocPool(NewEngine(42))); !reflect.DeepEqual(got, pooled) {
		t.Errorf("snapshot bytes differ on alloc-pool (hash %016x vs pooled %016x)",
			snapshot.Hash(got), snapshot.Hash(pooled))
	}
}

func TestSnapshotUntaggedEventErrors(t *testing.T) {
	eng := NewEngine(1)
	eng.Schedule(10, func() {})
	w := snapshot.NewWriter()
	if _, err := eng.Visit(w.Codec()); err == nil {
		t.Fatalf("snapshot of untagged event succeeded")
	}
}

// TestSnapshotSkipsCancelled: a disarmed timer has no observable
// future, so it is not in the image — not even an untagged one, which
// could not be serialised.
func TestSnapshotSkipsCancelled(t *testing.T) {
	h := newSnapHarness(NewEngine(7))
	h.schedule(50, kindCount.Tag(1, 0, 0))
	var untagged Timer
	untagged.Init(EventTag{}, false, func() {})
	h.eng.ArmTimer(&untagged, 20)
	h.eng.DisarmTimer(&untagged)
	h.armTimer(1, 30)
	h.disarmTimer(1)
	img := h.snapshot()
	b := restoreHarness(t, img, func() *Engine { return NewEngine(0) })
	if got := b.eng.Pending(); got != 1 {
		t.Fatalf("restored %d pending events, want 1", got)
	}
	b.eng.RunAll()
	if len(b.log) != 1 {
		t.Fatalf("restored run dispatched %d events, want 1", len(b.log))
	}
}

// TestRestoreAfterFarBootNoise: a restoring engine whose boot noise
// reaches far past the checkpoint — drained by the decoding Visit — resumes
// the snapshot's near- and far-future events exactly as an engine with
// no boot noise does.
func TestRestoreAfterFarBootNoise(t *testing.T) {
	h := newSnapHarness(NewEngine(3))
	// Near-future cluster plus events tens of ms out.
	for i := uint64(0); i < 8; i++ {
		h.schedule(Time(1000+i*10), kindCount.Tag(i, 0, 0))
	}
	h.schedule(40_000_000, kindCount.Tag(100, 0, 0))
	h.schedule(90_000_000, kindSpawn.Tag(3, 0, 0))
	h.eng.Run(500) // fires nothing; clock at 500
	img := h.snapshot()

	ref := restoreHarness(t, img, func() *Engine { return NewEngine(0) })
	ref.eng.Run(100_000_000)

	noisy := restoreHarness(t, img, func() *Engine {
		eng := NewEngine(0)
		// Boot event far past every checkpoint event.
		eng.Schedule(500_000_000, func() {})
		return eng
	})
	noisy.eng.Run(100_000_000)

	if !reflect.DeepEqual(ref.log, noisy.log) {
		t.Fatalf("restore after far boot noise diverged:\nref   %v\nnoisy %v", ref.log, noisy.log)
	}
	if len(ref.log) < 10 {
		t.Fatalf("fixture too small: %d dispatches", len(ref.log))
	}
}

// TestRestoreWarmSaltOverride proves the warm-start identity at the
// engine level: restoring a checkpoint and then installing a different
// tie-break salt dispatches the same-instant unpinned ties exactly as a
// cold run under that salt would.
func TestRestoreWarmSaltOverride(t *testing.T) {
	const salt = 0xabcdef
	seed := func(h *snapHarness) {
		for i := uint64(0); i < 6; i++ {
			h.schedule(777, kindCount.Tag(i, 0, 0))
		}
		h.startTick(777, 100_000)
	}

	cold := newSnapHarness(NewEngine(11))
	cold.eng.PerturbTiebreaks(salt)
	seed(cold)
	cold.eng.Run(800)

	base := newSnapHarness(NewEngine(11)) // salt 0
	seed(base)
	img := base.snapshot()

	// Restore by hand so the salt can be swapped in the legal window:
	// after the decoding Visit (queue empty) and before the first RestoreEvent.
	warm := newSnapHarness(NewEngine(0))
	r, err := snapshot.OpenReader(img)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	r.Section(harnessSection)
	warm.counter = r.U64(1)
	r.EndSection()
	evs, err := warm.eng.Visit(r.Codec())
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	warm.eng.PerturbTiebreaks(salt)
	for _, rev := range evs {
		if err := warm.restore(rev); err != nil {
			t.Fatalf("restore %s: %v", rev.Kind, err)
		}
	}
	warm.eng.Run(800)

	if !reflect.DeepEqual(warm.log, cold.log) {
		t.Fatalf("warm start under salt %#x diverged from cold run:\ncold %v\nwarm %v", salt, cold.log, warm.log)
	}
	if warm.counter != cold.counter {
		t.Fatalf("warm counter %d, cold %d", warm.counter, cold.counter)
	}
}

// TestRestoreEventValidation: the restore push rejects impossible
// occurrences loudly instead of corrupting the order.
func TestRestoreEventValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	h := newSnapHarness(NewEngine(5))
	h.schedule(100, kindCount.Tag(0, 0, 0))
	img := h.snapshot()
	b := restoreHarness(t, img, func() *Engine { return NewEngine(0) })
	mustPanic("seq >= nextSeq", func() {
		b.eng.RestoreEvent(RestoredEvent{At: 200, Seq: 1 << 40, Kind: "test.count"}, func() {})
	})
	mustPanic("at < now", func() {
		b.eng.Run(150)
		b.eng.RestoreEvent(RestoredEvent{At: 10, Seq: 0, Kind: "test.count"}, func() {})
	})
}

// TestRestoreEventRejectsPinned: only Timers are pinned, so a pinned
// event in an image belongs to a timer. RestoreEvent refuses one with
// an error naming its kind — images come from outside the process, so
// a stray one must not panic or be queued.
func TestRestoreEventRejectsPinned(t *testing.T) {
	h := newSnapHarness(NewEngine(5))
	h.armTimer(0, 100) // timer 0 is pinned
	img := h.snapshot()
	eng := NewEngine(0)
	evs, err := eng.Visit(harnessReader(t, img).Codec())
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || !evs[0].Pinned {
		t.Fatalf("restored events %+v, want one pinned timer event", evs)
	}
	err = eng.RestoreEvent(evs[0], func() {})
	if err == nil || !strings.Contains(err.Error(), "pinned event test.timer") {
		t.Fatalf("RestoreEvent of a pinned event: err %v, want one naming test.timer", err)
	}
	if eng.Pending() != 0 {
		t.Fatalf("rejected event was queued (%d pending)", eng.Pending())
	}
}

// TestRestoredHandleLifecycle: timers re-armed by RestoreTimer are
// first-class — disarm and re-arm keep their contracts, and a moved
// timer keeps its tag, so it still snapshots.
func TestRestoredHandleLifecycle(t *testing.T) {
	h := newSnapHarness(NewEngine(5))
	h.armTimer(0, 100)
	h.armTimer(1, 120)
	img := h.snapshot()

	b := restoreHarness(t, img, func() *Engine { return NewEngine(0) })
	b.disarmTimer(0)
	b.armTimer(1, 500)
	if !b.timerArmed(1) || b.eng.Pending() != 1 {
		t.Fatalf("re-armed restored timer: armed=%v pending=%d", b.timerArmed(1), b.eng.Pending())
	}
	// The moved timer kept its tag: snapshotting again must succeed.
	w := snapshot.NewWriter()
	if _, err := b.eng.Visit(w.Codec()); err != nil {
		t.Fatalf("snapshot after re-arm: %v", err)
	}
	b.eng.RunAll()
	if len(b.log) != 1 || !strings.HasPrefix(b.log[0], "timer1@500 ") {
		t.Fatalf("dispatched %q, want timer 1 alone at 500 (timer 0 disarmed)", b.log)
	}
}

// FuzzSnapshotResume is the differential harness of the resume
// contract, in the style of FuzzDiffQueue: a fuzzed op stream seeds a
// restorable workload, one engine runs it uninterrupted, a second is
// snapshotted at a fuzzed point, restored into a third (qa and qb pick
// Timers or refTimers for each side), and the two futures must be
// identical —
// dispatch log, clock, fired count, counter and RNG stream. Timer ops
// arm, re-arm and disarm the harness timers mid-run, so images carry
// armed timers across the boundary, in both timer models.
func FuzzSnapshotResume(f *testing.F) {
	f.Add(uint64(1), []byte{1, 2, 3, 4, 5, 6}, uint8(2), uint8(0), uint8(1))
	f.Add(uint64(42), []byte{0xff, 0x01, 0x80, 0x7f, 0x33, 0x9a, 0x00, 0x10}, uint8(7), uint8(1), uint8(2))
	f.Add(uint64(0xdead), []byte{9, 9, 9, 9}, uint8(0), uint8(2), uint8(0))
	f.Add(uint64(7), []byte{5, 0, 5, 0, 5, 0, 200, 200, 200}, uint8(31), uint8(1), uint8(1))
	// Timer ops (b%4 == 3): arm, arm-now, disarm and re-arm both timers.
	f.Add(uint64(3), []byte{3, 7, 11, 15, 19, 23, 27, 31, 35, 39, 2, 1}, uint8(4), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte, stopByte, qa, qb uint8) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		newHarness := func(q uint8, seed uint64) *snapHarness {
			h := newSnapHarness(NewEngine(seed))
			h.plain = q%2 == 1
			return h
		}
		salt := seed % 3 // exercise salted and unsalted orders

		seedOps := func(h *snapHarness) {
			for i, b := range ops {
				at := Time(uint64(b) * 17)
				switch b % 4 {
				case 0:
					h.schedule(at, kindCount.Tag(uint64(i), 0, 0))
				case 1:
					h.schedule(at, kindSpawn.Tag(uint64(b%5), 0, 0))
				case 2:
					h.startTick(at, uint64(b)*13+1)
				case 3:
					h.schedule(at, kindTimerOp.Tag(uint64(b>>2), uint64(b)*3, 0))
				}
			}
		}
		const horizon = 50_000

		ref := newHarness(qa, seed)
		ref.eng.PerturbTiebreaks(salt)
		seedOps(ref)
		ref.eng.Run(horizon)

		a := newHarness(qa, seed)
		a.eng.PerturbTiebreaks(salt)
		seedOps(a)
		a.eng.Run(Time(stopByte) * 100)
		img := a.snapshot()

		b := restoreHarnessPlain(t, img, func() *Engine {
			eng := NewEngine(seed ^ 0x55)
			eng.Schedule(1, func() {})
			eng.Schedule(10_000_000, func() {})
			return eng
		}, qb%2 == 1)
		b.log = append([]string{}, a.log...)
		b.eng.Run(horizon)

		if b.eng.Now() != ref.eng.Now() || b.eng.Fired() != ref.eng.Fired() ||
			b.counter != ref.counter || b.eng.RNG().state != ref.eng.RNG().state {
			t.Fatalf("resume state diverged: now %v/%v fired %d/%d counter %d/%d",
				b.eng.Now(), ref.eng.Now(), b.eng.Fired(), ref.eng.Fired(), b.counter, ref.counter)
		}
		if !slices.Equal(b.log, ref.log) {
			for i := range ref.log {
				if i >= len(b.log) || b.log[i] != ref.log[i] {
					t.Fatalf("dispatch log diverged at %d: resumed %q, reference %q", i, at(b.log, i), ref.log[i])
				}
			}
			t.Fatalf("dispatch log diverged in length: %d vs %d", len(b.log), len(ref.log))
		}
	})
}
