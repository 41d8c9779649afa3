package kernel

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestWheelBasicExpiry(t *testing.T) {
	k := New(testConfig(1), 1)
	w := k.wheel
	fired := map[int]uint64{}
	for _, ticks := range []uint64{1, 3, 3, 255} {
		ticks := ticks
		w.AddTimer(ticks, func() { fired[int(ticks)] = w.Jiffies() })
	}
	for i := 0; i < 300; i++ {
		for _, tm := range w.Tick() {
			tm.fn()
		}
	}
	if fired[1] != 1 || fired[3] != 3 || fired[255] != 255 {
		t.Fatalf("expiry jiffies = %v", fired)
	}
	if w.Fired != 4 {
		t.Fatalf("Fired = %d, want 4", w.Fired)
	}
}

func TestWheelZeroTicksMeansOne(t *testing.T) {
	k := New(testConfig(1), 1)
	w := k.wheel
	var at uint64
	w.AddTimer(0, func() { at = w.Jiffies() })
	for i := 0; i < 5; i++ {
		for _, tm := range w.Tick() {
			tm.fn()
		}
	}
	if at != 1 {
		t.Fatalf("zero-tick timer fired at jiffy %d, want 1", at)
	}
}

func TestWheelCascade(t *testing.T) {
	// Timers beyond 256 jiffies live in higher vectors and must still
	// fire at exactly the right jiffy after cascading.
	k := New(testConfig(1), 1)
	w := k.wheel
	want := map[uint64]bool{300: false, 1000: false, 20000: false, 300000: false}
	for ticks := range want {
		ticks := ticks
		w.AddTimer(ticks, func() {
			if w.Jiffies() != ticks {
				t.Errorf("timer for %d fired at %d", ticks, w.Jiffies())
			}
			want[ticks] = true
		})
	}
	for i := 0; i < 300001; i++ {
		for _, tm := range w.Tick() {
			tm.fn()
		}
	}
	for ticks, ok := range want {
		if !ok {
			t.Errorf("timer for %d never fired", ticks)
		}
	}
}

func TestWheelDelTimer(t *testing.T) {
	k := New(testConfig(1), 1)
	w := k.wheel
	fired := false
	tm := w.AddTimer(5, func() { fired = true })
	if !tm.Active() {
		t.Fatal("timer should be active after add")
	}
	w.DelTimer(tm)
	if tm.Active() {
		t.Fatal("timer still active after del")
	}
	for i := 0; i < 10; i++ {
		for _, x := range w.Tick() {
			x.fn()
		}
	}
	if fired {
		t.Fatal("deleted timer fired")
	}
	// Deleting nil or twice is a no-op.
	w.DelTimer(nil)
	w.DelTimer(tm)
}

// Property: for any batch of delays, every timer fires exactly at its
// jiffy, no earlier, no later, regardless of vector and cascade paths.
func TestQuickWheelExactExpiry(t *testing.T) {
	f := func(raw []uint16) bool {
		k := New(testConfig(1), 1)
		w := k.wheel
		var maxTicks uint64
		ok := true
		for _, r := range raw {
			ticks := uint64(r)%70000 + 1
			if ticks > maxTicks {
				maxTicks = ticks
			}
			want := ticks
			w.AddTimer(ticks, func() {
				if w.Jiffies() != want {
					ok = false
				}
			})
		}
		for i := uint64(0); i <= maxTicks; i++ {
			for _, tm := range w.Tick() {
				tm.fn()
			}
		}
		return ok && w.Fired == uint64(len(raw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelAddTimerThroughTick(t *testing.T) {
	// Integration: a kernel timer scheduled through AddTimer fires from
	// the global timer interrupt at the right jiffy boundary.
	cfg := StandardLinux24(1, 1.0, false)
	k := New(cfg, 7)
	var firedAt sim.Time = -1
	k.AddTimer(25*sim.Millisecond, func() { firedAt = k.Now() })
	k.Start()
	k.Eng.Run(sim.Time(200 * sim.Millisecond))
	if firedAt < 0 {
		t.Fatal("kernel timer never fired")
	}
	// ceil(25/10)+1 = 4 ticks → ~40ms, at a tick boundary.
	if firedAt < sim.Time(30*sim.Millisecond) || firedAt > sim.Time(50*sim.Millisecond) {
		t.Fatalf("fired at %v, want ~40ms", firedAt)
	}
	if k.Jiffies() < 19 {
		t.Fatalf("jiffies = %d after 200ms at 100Hz", k.Jiffies())
	}
}

func TestWheelCascadeAtWrapBoundaries(t *testing.T) {
	// Expiries straddling the vector boundaries — the last jiffy of tv1's
	// range, the wrap itself, the first jiffy after, and the same around
	// the tv1/tv[0] and tv[0]/tv[1] range edges — must all fire at
	// exactly their jiffy. These are the deltas where an off-by-one in
	// insert's range choice or in cascade's re-ranging shows up.
	k := New(testConfig(1), 1)
	w := k.wheel
	boundaries := []uint64{
		254, 255, 256, 257, // tv1 wrap
		511, 512, 513, // second tv1 lap + cascade at jiffy 512
		(1 << 14) - 1, 1 << 14, (1 << 14) + 1, // tv[0]/tv[1] edge
	}
	firedAt := map[uint64]uint64{}
	for _, ticks := range boundaries {
		ticks := ticks
		w.AddTimer(ticks, func() { firedAt[ticks] = w.Jiffies() })
	}
	for i := uint64(0); i <= (1<<14)+1; i++ {
		for _, tm := range w.Tick() {
			tm.fn()
		}
	}
	for _, ticks := range boundaries {
		at, ok := firedAt[ticks]
		if !ok {
			t.Errorf("boundary timer for delta %d never fired", ticks)
		} else if at != ticks {
			t.Errorf("boundary timer for delta %d fired at jiffy %d", ticks, at)
		}
	}
	if w.Fired != uint64(len(boundaries)) {
		t.Fatalf("Fired = %d, want %d", w.Fired, len(boundaries))
	}
}

func TestWheelCancelInsideCascadingBucket(t *testing.T) {
	// A timer cancelled while it sits in a higher-vector bucket must be
	// dropped by the cascade (not re-inserted), and a timer cancelled by
	// a callback after its bucket already cascaded into tv1 must still
	// not fire.
	k := New(testConfig(1), 1)
	w := k.wheel
	var fired []uint64
	rec := func(tag uint64) func() { return func() { fired = append(fired, tag) } }

	// dead sits in tv[0] (delta 400) and is cancelled before the cascade
	// at jiffy 256 migrates its bucket.
	dead := w.AddTimer(400, rec(400))
	keep := w.AddTimer(410, rec(410))
	// victim shares dead's cascade lap; canceller fires first at 290 —
	// after the jiffy-256 cascade moved both into tv1 — and cancels it.
	var victim *KTimer
	victim = w.AddTimer(300, rec(300))
	w.AddTimer(290, func() {
		rec(290)()
		w.DelTimer(victim)
	})

	for i := 0; i < 600; i++ {
		if w.Jiffies() == 99 {
			w.DelTimer(dead)
		}
		for _, tm := range w.Tick() {
			tm.fn()
		}
		if w.Jiffies() == 256 {
			// The cascade just ran: the inactive timer must have been
			// dropped, not parked anywhere in the wheel.
			if n := countInWheel(w, dead); n != 0 {
				t.Fatalf("cancelled timer still in %d wheel buckets after cascade", n)
			}
			if n := countInWheel(w, keep); n != 1 {
				t.Fatalf("active timer in %d wheel buckets after cascade, want 1", n)
			}
		}
	}
	want := []uint64{290, 410}
	if len(fired) != len(want) || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("fired tags %v, want %v", fired, want)
	}
}

// countInWheel counts how many wheel buckets hold t.
func countInWheel(w *timerWheel, target *KTimer) int {
	n := 0
	for _, b := range w.tv1 {
		for _, t := range b {
			if t == target {
				n++
			}
		}
	}
	for lvl := range w.tv {
		for _, b := range w.tv[lvl] {
			for _, t := range b {
				if t == target {
					n++
				}
			}
		}
	}
	return n
}

func TestWheelBulkCancelAcrossVectors(t *testing.T) {
	// DelTimers drops a whole batch in one pass, wherever the timers sit
	// — tv1, tv[0], tv[1] — and tolerates nils, duplicates and timers
	// that already fired.
	k := New(testConfig(1), 1)
	w := k.wheel
	deltas := []uint64{3, 40, 200, 300, 5000, 20000, 70000}
	timers := make([]*KTimer, len(deltas))
	firedAt := map[uint64]uint64{}
	for i, d := range deltas {
		d := d
		timers[i] = w.AddTimer(d, func() { firedAt[d] = w.Jiffies() })
	}
	// Let the shortest fire so the batch includes an expired timer.
	for i := 0; i < 5; i++ {
		for _, tm := range w.Tick() {
			tm.fn()
		}
	}
	// Cancel every other timer, plus a nil, a duplicate and the expired one.
	batch := []*KTimer{timers[1], timers[3], timers[5], nil, timers[1], timers[0]}
	if n := w.DelTimers(batch); n != 3 {
		t.Fatalf("DelTimers cancelled %d, want 3 (nil/dup/expired are no-ops)", n)
	}
	if n := w.DelTimers(batch); n != 0 {
		t.Fatalf("second DelTimers cancelled %d, want 0", n)
	}
	for i := uint64(5); i <= 70000; i++ {
		for _, tm := range w.Tick() {
			tm.fn()
		}
	}
	for i, d := range deltas {
		cancelled := i == 1 || i == 3 || i == 5
		at, fired := firedAt[d]
		if cancelled && fired {
			t.Errorf("bulk-cancelled timer for delta %d fired at jiffy %d", d, at)
		}
		if !cancelled && !fired {
			t.Errorf("surviving timer for delta %d never fired", d)
		}
		if !cancelled && fired && at != d {
			t.Errorf("surviving timer for delta %d fired at jiffy %d", d, at)
		}
	}
}

func TestKernelBulkCancelThroughTick(t *testing.T) {
	// Integration: timers bulk-cancelled through the kernel API never
	// fire from the timer bottom half, while the rest of the batch does.
	cfg := StandardLinux24(1, 1.0, false)
	k := New(cfg, 7)
	var fired int
	var doomed []*KTimer
	for i := 0; i < 8; i++ {
		tm := k.AddTimer(sim.Duration(20+i*10)*sim.Millisecond, func() { fired++ })
		if i%2 == 0 {
			doomed = append(doomed, tm)
		}
	}
	k.Start()
	k.Eng.Run(sim.Time(10 * sim.Millisecond))
	if n := k.DelTimers(doomed); n != 4 {
		t.Fatalf("DelTimers cancelled %d, want 4", n)
	}
	k.Eng.Run(sim.Time(500 * sim.Millisecond))
	if fired != 4 {
		t.Fatalf("%d timers fired, want the 4 survivors", fired)
	}
}

func TestWheelQueueABIdentical(t *testing.T) {
	// The wheel is driven by the engine's timer tick: a timer armed for d
	// expires on the jiffy at which ceil(d/jiffy)+1 ticks have elapsed
	// (the kernel always waits out the current partial tick), and its
	// callback runs from that tick's timer bottom half, a few µs later.
	// Every one of the 12 expiries must land on its own tick, in arming
	// order.
	cfg := StandardLinux24(1, 1.0, false)
	k := New(cfg, 7)
	jiffy := sim.Duration(int64(sim.Second) / int64(cfg.LocalTimerHz))
	var fires []sim.Time
	var want []sim.Time
	for i := 0; i < 12; i++ {
		d := sim.Duration(7+i*13) * sim.Millisecond
		ticks := (d + jiffy - 1) / jiffy
		want = append(want, sim.Time(0).Add((ticks+1)*jiffy))
		k.AddTimer(d, func() { fires = append(fires, k.Now()) })
	}
	k.Start()
	k.Eng.Run(sim.Time(400 * sim.Millisecond))
	if len(fires) != len(want) {
		t.Fatalf("%d timers fired, want %d", len(fires), len(want))
	}
	const bhSlack = 100 * sim.Microsecond
	for i := range want {
		if fires[i] < want[i] || fires[i] >= want[i].Add(bhSlack) {
			t.Errorf("expiry %d (d=%v) fired at %v, want within %v after the tick at %v",
				i, sim.Duration(7+i*13)*sim.Millisecond, fires[i], bhSlack, want[i])
		}
	}
}

func TestWheelSurvivesLTimerShield(t *testing.T) {
	// Shielding a CPU's local timer must NOT stop global timekeeping:
	// IRQ0 reroutes to an unshielded CPU and jiffies keep advancing.
	cfg := RedHawk14(2, 1.0)
	k := New(cfg, 7)
	k.Start()
	k.Eng.Run(sim.Time(100 * sim.Millisecond))
	if err := k.SetShieldAll(MaskOf(1)); err != nil {
		t.Fatal(err)
	}
	before := k.Jiffies()
	k.Eng.Run(k.Now() + sim.Time(500*sim.Millisecond))
	after := k.Jiffies()
	if after < before+45 {
		t.Fatalf("jiffies stalled under shielding: %d -> %d", before, after)
	}
}
