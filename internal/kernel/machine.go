package kernel

import (
	"fmt"

	"repro/internal/procfs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Kernel is one simulated machine running one kernel configuration. It
// owns the CPUs, tasks, interrupt lines, locks, scheduler and the /proc
// tree. All methods must be called from simulation context (inside events
// or before Start); the simulator is single-threaded.
type Kernel struct {
	Cfg   Config
	Eng   *sim.Engine
	Trace *trace.Buffer
	FS    *procfs.FS

	cpus   []*CPU
	online CPUMask
	tasks  []*Task
	byPID  map[int]*Task
	next   int // next PID
	irqs   []*IRQLine
	sched  Scheduler

	// Shield state (the paper's contribution; see shield.go).
	shieldProcs  CPUMask
	shieldIRQs   CPUMask
	shieldLTimer CPUMask

	// BKL is the Big Kernel Lock.
	BKL *SpinLock
	// namedLocks are the shared kernel locks workload profiles contend
	// on (fs, io, net, ...).
	namedLocks map[string]*SpinLock

	rng     *sim.RNG
	started bool

	// wheel is the 2.4 timer subsystem, driven by the global timer
	// interrupt (IRQ0).
	wheel    *timerWheel
	timerIRQ *IRQLine
	load     loadavg

	// waitqs are the registered (snapshot-visible) wait queues, in
	// registration order; a queue's id is its index + 1 (0 = none).
	waitqs []*WaitQueue
	// comps are the registered snapshot components (devices, workloads),
	// in registration order; construction order is deterministic, so ids
	// agree between a snapshotting and a restoring process.
	comps []SnapComponent

	// frames is the free list of finished execution frames (see
	// getFrame/putFrame).
	frames []*frame

	// globalTimer is the PIT's IRQ0: a pinned periodic timer whose body
	// is globalTick, bound once in New.
	globalTimer sim.Timer
}

// New builds a machine for the given config. seed makes the run
// reproducible. It panics on an invalid config (construction is
// programmer-controlled; there is no dynamic input to validate softly).
func New(cfg Config, seed uint64) *Kernel {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	eng := sim.NewEngineWithPool(seed, cfg.EventPool)
	if cfg.TiebreakSalt != 0 {
		eng.PerturbTiebreaks(cfg.TiebreakSalt)
	}
	k := &Kernel{
		Cfg:        cfg,
		Eng:        eng,
		FS:         procfs.New(),
		online:     cfg.OnlineMask(),
		byPID:      map[int]*Task{},
		BKL:        NewSpinLock("BKL"),
		namedLocks: map[string]*SpinLock{},
		next:       1,
	}
	k.rng = k.Eng.RNG().Fork()
	k.wheel = newTimerWheel(k)
	// Pinned: see Start for the local-APIC-before-PIT order.
	k.globalTimer.Init(evGlobalTick.Tag(0, 0, 0), true, k.globalTick)

	n := cfg.NumCPUs()
	k.cpus = make([]*CPU, n)
	for i := 0; i < n; i++ {
		k.cpus[i] = newCPU(k, i)
	}
	// Pair hyperthread siblings. 2.4-era BIOSes enumerated physical
	// packages first: logical CPUs 0..P-1 are the first sibling of each
	// package, P..2P-1 the second, so CPU i and CPU i+P share package
	// i%P. This matters for load placement: the scheduler fills the
	// other *package* before a busy CPU's own sibling.
	if cfg.HyperThreading {
		p := cfg.PhysCPUs
		for i := 0; i < p; i++ {
			k.cpus[i].Sibling = k.cpus[i+p]
			k.cpus[i+p].Sibling = k.cpus[i]
			k.cpus[i].Phys = i
			k.cpus[i+p].Phys = i
		}
	} else {
		for i := range k.cpus {
			k.cpus[i].Phys = i
		}
	}

	if cfg.O1Scheduler {
		k.sched = newO1Scheduler(k)
	} else {
		k.sched = newLegacyScheduler(k)
	}
	// SoftirqDaemon kernels run a per-CPU ksoftirqd thread for
	// bottom-half overflow.
	if cfg.SoftirqDaemon {
		for _, c := range k.cpus {
			c.softirqWq = k.NewWaitQueue(fmt.Sprintf("ksoftirqd-wq-%d", c.ID))
			c.ksoftirqd = k.NewTask(fmt.Sprintf("ksoftirqd/%d", c.ID),
				SchedOther, 0, MaskOf(c.ID), &ksoftirqdBehavior{c: c})
		}
	}
	// IRQ0: the global timer interrupt that advances jiffies and runs
	// the timer wheel. It is an ordinary (fast) line, so shielding a CPU
	// from interrupts reroutes it like any device interrupt — global
	// timekeeping survives shielding, exactly as on real hardware.
	k.timerIRQ = k.RegisterIRQ("timer", 0,
		func(r *sim.RNG) sim.Duration { return r.Jitter(cfg.scale(2*sim.Microsecond), 0.25) },
		func(c *CPU) { c.runWheelTick() })
	k.timerIRQ.Fast = true

	k.registerProcFiles()
	return k
}

// Now returns the current virtual time.
func (k *Kernel) Now() sim.Time { return k.Eng.Now() }

// CPUs returns the logical CPU count.
func (k *Kernel) CPUs() int { return len(k.cpus) }

// CPU returns logical CPU i.
func (k *Kernel) CPU(i int) *CPU { return k.cpus[i] }

// Online returns the mask of online CPUs.
func (k *Kernel) Online() CPUMask { return k.online }

// Scheduler returns the active scheduler (for tests and tools).
func (k *Kernel) Scheduler() Scheduler { return k.sched }

// NamedLock returns (creating on first use) a shared kernel lock. The
// workload profiles use a small set of these to model the contended 2.4
// locks: "fs" (dcache/inode paths), "io" (io_request_lock), "net".
func (k *Kernel) NamedLock(name string) *SpinLock {
	if l, ok := k.namedLocks[name]; ok {
		return l
	}
	l := NewSpinLock(name)
	k.namedLocks[name] = l
	return l
}

// NewWaitQueue creates a wait queue registered with the kernel, which
// gives it a stable numeric identity for snapshots. All production wait
// queues must be created through this; the package-level NewWaitQueue
// remains for tests and for machines that never snapshot.
func (k *Kernel) NewWaitQueue(name string) *WaitQueue {
	wq := &WaitQueue{Name: name}
	k.waitqs = append(k.waitqs, wq)
	wq.id = uint64(len(k.waitqs))
	return wq
}

// WaitQueueByID returns the registered wait queue with the given id
// (1-based), or nil.
func (k *Kernel) WaitQueueByID(id uint64) *WaitQueue {
	if id == 0 || id > uint64(len(k.waitqs)) {
		return nil
	}
	return k.waitqs[id-1]
}

// RegisterComponent adds a snapshot component (a device or workload with
// serialisable state) and returns its ordered id. Components register
// during construction, which both the snapshotting and the restoring
// process perform identically, so ids agree by construction order.
func (k *Kernel) RegisterComponent(c SnapComponent) uint64 {
	k.comps = append(k.comps, c)
	return uint64(len(k.comps) - 1)
}

// Component returns the registered component with the given id, if any.
func (k *Kernel) Component(id uint64) (SnapComponent, bool) {
	if id >= uint64(len(k.comps)) {
		return nil, false
	}
	return k.comps[id], true
}

// Tasks returns all tasks ever created (including exited).
func (k *Kernel) Tasks() []*Task { return k.tasks }

// TaskByPID looks a task up.
func (k *Kernel) TaskByPID(pid int) *Task { return k.byPID[pid] }

// NewTask creates a task and makes it runnable. affinity 0 means "all
// CPUs". The task starts running when the scheduler places it.
func (k *Kernel) NewTask(name string, policy SchedPolicy, rtprio int, affinity CPUMask, b Behavior) *Task {
	if b == nil {
		panic("kernel: task needs a behavior")
	}
	if (policy == SchedFIFO || policy == SchedRR) && (rtprio < MinRTPrio || rtprio > MaxRTPrio) {
		panic(fmt.Sprintf("kernel: RT priority %d out of range", rtprio))
	}
	if affinity == 0 {
		affinity = k.online
	}
	t := &Task{
		PID:      k.next,
		Name:     name,
		Policy:   policy,
		RTPrio:   rtprio,
		affinity: affinity,
		kern:     k,
		state:    TaskRunnable,
		behavior: b,
		rng:      k.rng.Fork(),
	}
	t.sliceLeft = timesliceFor(t)
	k.next++
	k.tasks = append(k.tasks, t)
	k.byPID[t.PID] = t
	if k.started {
		k.makeRunnable(t, nil)
	}
	return t
}

// SetTaskAffinity changes a task's CPU affinity (sched_setaffinity). If
// the task is running on a CPU no longer in its effective mask it is
// migrated at the next opportunity.
func (k *Kernel) SetTaskAffinity(t *Task, m CPUMask) error {
	if m&k.online == 0 {
		return fmt.Errorf("kernel: affinity %s has no online CPU", m)
	}
	t.affinity = m
	k.enforceTaskPlacement(t)
	return nil
}

// Start schedules the periodic machinery (local timer ticks, bus
// contention resampling) and dispatches the initial tasks. It must be
// called exactly once, before Eng.Run.
func (k *Kernel) Start() {
	if k.started {
		panic("kernel: Start called twice")
	}
	k.started = true
	for _, c := range k.cpus {
		c.startLocalTimer()
		c.startBusSampling()
	}
	// The global timer (IRQ0) fires at HZ, independent of the per-CPU
	// local APIC timers — but phase-locked with CPU 0's local tick
	// (both at exact multiples of the period), so the simultaneity is
	// pinned: the local APIC tick is dispatched before the PIT's IRQ0,
	// in schedule order. See "Tie-break determinism" in DESIGN.md §8.
	k.Eng.ArmTimer(&k.globalTimer, k.Now().Add(k.tickPeriod()))
	if k.Cfg.InvariantPeriod > 0 {
		k.SampleInvariants(k.Cfg.InvariantPeriod, nil)
	}
	// Make the pre-created tasks runnable in creation order.
	for _, t := range k.tasks {
		if t.state == TaskRunnable {
			k.makeRunnable(t, nil)
		}
	}
}

// tickPeriod is the machine tick period (the global timer fires at the
// same HZ as the per-CPU local timers, phase-locked with CPU 0's).
func (k *Kernel) tickPeriod() sim.Duration {
	return sim.Duration(int64(sim.Second) / int64(k.Cfg.LocalTimerHz))
}

// globalTick is the globalTimer body, the PIT interrupt (IRQ0): raise
// the timer line and re-arm for the next period.
func (k *Kernel) globalTick() {
	k.Raise(k.timerIRQ)
	k.Eng.ArmTimer(&k.globalTimer, k.Now().Add(k.tickPeriod()))
}

// makeRunnable enqueues t and kicks the chosen CPU. preferred, when
// non-nil, is used instead of asking the scheduler to place the task.
func (k *Kernel) makeRunnable(t *Task, preferred *CPU) {
	t.state = TaskRunnable
	t.lastQueue = k.Now()
	c := preferred
	if c == nil {
		c = k.sched.PlaceWake(t)
	}
	t.cpu = c
	k.sched.Enqueue(t, c)
	k.Trace.Wakeup(k.Now(), c.ID, t.PID, t.Name, c.ID)
	c.kick(t)
}

// WakeTask transitions a blocked task to runnable (try_to_wake_up). The
// caller's CPU is charged the wakeup cost when ctx is non-nil.
func (k *Kernel) WakeTask(t *Task, ctx *CPU) {
	if t.state != TaskBlocked {
		return
	}
	if t.waitOn != nil {
		t.waitOn.dequeue(t)
		t.waitOn = nil
	}
	if ctx != nil {
		cost := k.Cfg.scale(k.Cfg.Timing.WakeupCost) //simlint:region sched wakeup-cost
		ctx.addWorkTop(cost)
	}
	k.makeRunnable(t, nil)
}

// WakeAll wakes every task blocked on wq.
func (k *Kernel) WakeAll(wq *WaitQueue, ctx *CPU) {
	for {
		t := wq.popFirst()
		if t == nil {
			return
		}
		t.waitOn = nil
		if ctx != nil {
			ctx.addWorkTop(k.Cfg.scale(k.Cfg.Timing.WakeupCost))
		}
		k.makeRunnable(t, nil)
	}
}

// WakeOne wakes the first waiter on wq, if any.
func (k *Kernel) WakeOne(wq *WaitQueue, ctx *CPU) *Task {
	t := wq.popFirst()
	if t == nil {
		return nil
	}
	t.waitOn = nil
	if ctx != nil {
		ctx.addWorkTop(k.Cfg.scale(k.Cfg.Timing.WakeupCost))
	}
	k.makeRunnable(t, nil)
	return t
}

// enforceTaskPlacement migrates a task whose effective affinity no longer
// allows its current CPU. Used by affinity changes and shield transitions.
func (k *Kernel) enforceTaskPlacement(t *Task) {
	eff := t.EffectiveAffinity()
	if eff == 0 {
		// Affinity entirely offline — leave the task where it is; the
		// scheduler will refuse to run it. Mirrors Linux's refusal to
		// strand a task with an impossible mask.
		return
	}
	switch t.state {
	case TaskRunning:
		if t.cpu != nil && !eff.Has(t.cpu.ID) {
			t.cpu.requestMigration(t)
		}
	case TaskRunnable:
		if t.cpu != nil && !eff.Has(t.cpu.ID) {
			k.sched.Dequeue(t)
			t.Migrated++
			k.Trace.Migrate(k.Now(), t.cpu.ID, t.PID, t.Name, t.cpu.ID, -1)
			k.makeRunnable(t, nil)
		}
	}
}

// IRQLines returns all registered interrupt lines.
func (k *Kernel) IRQLines() []*IRQLine { return k.irqs }
