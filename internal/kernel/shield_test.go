package kernel

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/snapshot"
)

func TestShieldRequiresSupport(t *testing.T) {
	k := New(StandardLinux24(2, 1.0, false), 42)
	if err := k.SetShieldProcs(MaskOf(1)); err != ErrNoShieldSupport {
		t.Fatalf("err = %v, want ErrNoShieldSupport", err)
	}
	if k.FS.Exists("/proc/shield/procs") {
		t.Fatal("/proc/shield must not exist on a stock kernel")
	}
}

func TestShieldMaskValidation(t *testing.T) {
	k := New(testConfig(2), 42)
	if err := k.SetShieldProcs(MaskOf(5)); err == nil {
		t.Fatal("shielding an offline CPU should fail")
	}
	if err := k.SetShieldProcs(MaskOf(1)); err != nil {
		t.Fatal(err)
	}
	if k.ShieldProcs() != MaskOf(1) {
		t.Fatalf("ShieldProcs = %s", k.ShieldProcs())
	}
}

func TestShieldProcsMigratesRunningTask(t *testing.T) {
	// A task running on CPU1 when CPU1 becomes shielded must be pushed
	// off dynamically (§3: "processes currently assigned to the shielded
	// processor ... will be migrated to other CPUs").
	k := New(testConfig(2), 42)
	// The filler is created first so it grabs CPU0 and the hog lands on
	// the then-idle CPU1.
	k.NewTask("filler", SchedOther, 0, MaskOf(0), BehaviorFunc(func(*Task) Action {
		return Compute(5 * sim.Millisecond)
	}))
	hog := k.NewTask("hog", SchedOther, 0, MaskOf(0, 1), BehaviorFunc(func(*Task) Action {
		return Compute(5 * sim.Millisecond)
	}))
	k.Start()
	k.Eng.Run(sim.Time(20 * sim.Millisecond))
	if hog.CPU() != 1 {
		t.Skipf("setup: hog on cpu%d, wanted cpu1", hog.CPU())
	}
	k.Eng.Schedule(k.Now()+1, func() {
		if err := k.SetShieldProcs(MaskOf(1)); err != nil {
			t.Errorf("SetShieldProcs: %v", err)
		}
	})
	k.Eng.Run(k.Now() + sim.Time(50*sim.Millisecond))
	if hog.CPU() == 1 {
		t.Fatalf("hog still on shielded cpu1 (state %v)", hog.State())
	}
	if hog.Migrated == 0 {
		t.Fatal("hog was never migrated")
	}
}

func TestShieldOptInTaskStays(t *testing.T) {
	// A task whose affinity contains ONLY shielded CPUs keeps running
	// there — that is the opt-in mechanism for RT tasks.
	k := New(testConfig(2), 42)
	rt := k.NewTask("rt", SchedFIFO, 90, MaskOf(1), BehaviorFunc(func(*Task) Action {
		return Compute(sim.Millisecond)
	}))
	k.Start()
	k.Eng.Schedule(sim.Time(5*sim.Millisecond), func() {
		if err := k.SetShieldAll(MaskOf(1)); err != nil {
			t.Errorf("SetShieldAll: %v", err)
		}
	})
	k.Eng.Run(sim.Time(100 * sim.Millisecond))
	if rt.CPU() != 1 {
		t.Fatalf("opted-in RT task pushed off shielded CPU to cpu%d", rt.CPU())
	}
	if rt.State() == TaskExited {
		t.Fatal("rt task should still be running")
	}
}

func TestShieldIRQsReroutesNewDeliveries(t *testing.T) {
	k := New(testConfig(2), 42)
	var cpus []int
	line := k.RegisterIRQ("eth0", 0, constWork(sim.Microsecond), func(c *CPU) {
		cpus = append(cpus, c.ID)
	})
	k.Start()
	k.Eng.Schedule(sim.Time(sim.Millisecond), func() {
		if err := k.SetShieldIRQs(MaskOf(1)); err != nil {
			t.Errorf("SetShieldIRQs: %v", err)
		}
	})
	for i := 2; i < 12; i++ {
		k.Eng.Schedule(sim.Time(i)*sim.Time(sim.Millisecond), func() { k.Raise(line) })
	}
	k.Eng.Run(sim.Time(50 * sim.Millisecond))
	if len(cpus) != 10 {
		t.Fatalf("handled %d interrupts, want 10", len(cpus))
	}
	for _, c := range cpus {
		if c == 1 {
			t.Fatal("interrupt delivered to shielded cpu1")
		}
	}
}

func TestShieldIRQOptIn(t *testing.T) {
	// An IRQ whose affinity is exactly the shielded CPU still goes there
	// (the RT device the shielded CPU serves).
	k := New(testConfig(2), 42)
	var cpus []int
	line := k.RegisterIRQ("rcim", MaskOf(1), constWork(sim.Microsecond), func(c *CPU) {
		cpus = append(cpus, c.ID)
	})
	k.Start()
	k.Eng.Schedule(sim.Time(sim.Millisecond), func() {
		if err := k.SetShieldIRQs(MaskOf(1)); err != nil {
			t.Errorf("shield: %v", err)
		}
	})
	for i := 2; i < 6; i++ {
		k.Eng.Schedule(sim.Time(i)*sim.Time(sim.Millisecond), func() { k.Raise(line) })
	}
	k.Eng.Run(sim.Time(20 * sim.Millisecond))
	if len(cpus) != 4 {
		t.Fatalf("handled %d, want 4", len(cpus))
	}
	for _, c := range cpus {
		if c != 1 {
			t.Fatalf("opted-in irq went to cpu%d, want shielded cpu1", c)
		}
	}
}

func TestShieldLocalTimerStopsTicks(t *testing.T) {
	k := New(testConfig(2), 42)
	k.Start()
	k.Eng.Schedule(sim.Time(100*sim.Millisecond), func() {
		if err := k.SetShieldLTimer(MaskOf(1)); err != nil {
			t.Errorf("shield ltmr: %v", err)
		}
	})
	k.Eng.Run(sim.Time(sim.Second))
	c0, c1 := k.CPU(0), k.CPU(1)
	if c0.TicksHandled < 95 {
		t.Fatalf("cpu0 ticks = %d, want ~100 (unshielded)", c0.TicksHandled)
	}
	if c1.TicksHandled > 12 {
		t.Fatalf("cpu1 ticks = %d, want ~10 (tick stops at 100ms)", c1.TicksHandled)
	}
	// Unshield: ticks resume.
	before := c1.TicksHandled
	k.Eng.Schedule(k.Now()+1, func() {
		if err := k.SetShieldLTimer(0); err != nil {
			t.Errorf("unshield ltmr: %v", err)
		}
	})
	k.Eng.Run(k.Now() + sim.Time(500*sim.Millisecond))
	if c1.TicksHandled < before+45 {
		t.Fatalf("cpu1 ticks after unshield = %d (was %d), tick did not resume", c1.TicksHandled, before)
	}
}

func TestProcShieldFiles(t *testing.T) {
	k := New(testConfig(2), 42)
	k.Start()
	if got, err := k.FS.Read("/proc/shield/procs"); err != nil || got != "0\n" {
		t.Fatalf("initial procs = %q, %v", got, err)
	}
	if err := k.FS.Write("/proc/shield/all", "2\n"); err != nil {
		t.Fatal(err)
	}
	if k.ShieldProcs() != MaskOf(1) || k.ShieldIRQs() != MaskOf(1) || k.ShieldLTimer() != MaskOf(1) {
		t.Fatalf("masks after /proc/shield/all write: %s %s %s",
			k.ShieldProcs(), k.ShieldIRQs(), k.ShieldLTimer())
	}
	if got, _ := k.FS.Read("/proc/shield/all"); got != "2\n" {
		t.Fatalf("read back all = %q", got)
	}
	if !k.ShieldedFor(1) || k.ShieldedFor(0) {
		t.Fatal("ShieldedFor wrong")
	}
	// Partial shielding reads back 0 from "all".
	if err := k.FS.Write("/proc/shield/irqs", "0"); err != nil {
		t.Fatal(err)
	}
	if got, _ := k.FS.Read("/proc/shield/all"); got != "0\n" {
		t.Fatalf("all after partial unshield = %q", got)
	}
	if err := k.FS.Write("/proc/shield/procs", "xyz"); err == nil {
		t.Fatal("garbage shield mask accepted")
	}
}

func TestProcVersionAndInterrupts(t *testing.T) {
	k := New(testConfig(1), 42)
	k.RegisterIRQ("eth0", 0, constWork(sim.Microsecond), nil)
	v, err := k.FS.Read("/proc/version")
	if err != nil || !strings.Contains(v, "RedHawk-1.4") {
		t.Fatalf("version = %q, %v", v, err)
	}
	ints, err := k.FS.Read("/proc/interrupts")
	if err != nil || !strings.Contains(ints, "eth0") {
		t.Fatalf("interrupts = %q, %v", ints, err)
	}
	info, err := k.FS.Read("/proc/cpuinfo")
	if err != nil || !strings.Contains(info, "processor\t: 0") {
		t.Fatalf("cpuinfo = %q, %v", info, err)
	}
}

// Property: after any sequence of shield operations, no runnable or
// running non-opted-in task sits on a shielded CPU once the system
// settles.
func TestQuickShieldPlacementInvariant(t *testing.T) {
	f := func(shieldBits uint8, seed uint16) bool {
		cfg := testConfig(4)
		k := New(cfg, uint64(seed)+1)
		for i := 0; i < 6; i++ {
			k.NewTask("w", SchedOther, 0, 0, BehaviorFunc(func(*Task) Action {
				return Compute(2 * sim.Millisecond)
			}))
		}
		k.Start()
		mask := CPUMask(shieldBits) & MaskAll(4)
		k.Eng.Schedule(sim.Time(5*sim.Millisecond), func() {
			if err := k.SetShieldProcs(mask); err != nil {
				t.Error(err)
			}
		})
		k.Eng.Run(sim.Time(40 * sim.Millisecond))
		for _, tk := range k.Tasks() {
			if tk.State() == TaskExited {
				continue
			}
			if tk.State() == TaskRunning && mask.Has(tk.CPU()) && !tk.Affinity().SubsetOf(mask) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestUnshieldLocalTimerRearmsPinnedTick: unshielding a CPU's local
// timer re-arms its tick the way startLocalTimer and tick arm it —
// pinned, with the body bound once — so the unshield allocates nothing
// and a snapshot records the re-armed tick as pinned.
func TestUnshieldLocalTimerRearmsPinnedTick(t *testing.T) {
	k := New(testConfig(2), 42)
	k.Start()
	k.Eng.Run(sim.Time(50 * sim.Millisecond))
	allocs := testing.AllocsPerRun(100, func() {
		if err := k.SetShieldLTimer(MaskOf(1)); err != nil {
			t.Fatalf("shield ltmr: %v", err)
		}
		if k.CPU(1).tickTimer.Armed() {
			t.Fatalf("shielded cpu1 still has its tick armed")
		}
		if err := k.SetShieldLTimer(0); err != nil {
			t.Fatalf("unshield ltmr: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("shield+unshield of the local timer allocates %.1f times, want 0", allocs)
	}
	img, err := k.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := snapshot.OpenReader(img)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := sim.NewEngine(0).Visit(r.Codec())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range evs {
		if ev.Kind == "k.cpu-tick" && ev.A0 == 1 {
			found = true
			if !ev.Pinned {
				t.Errorf("re-armed cpu1 tick at %v is not pinned", ev.At)
			}
		}
	}
	if !found {
		t.Fatalf("no k.cpu-tick event for cpu1 in the snapshot after unshield")
	}
}
