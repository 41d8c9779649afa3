package kernel

import (
	"fmt"

	"repro/internal/sim"
)

// Config selects the kernel variant and machine being simulated. Each
// field maps to one of the patches or hardware properties the paper
// discusses; the preset constructors below reproduce the exact systems
// used in the evaluation.
type Config struct {
	Name string

	// --- machine ---

	// PhysCPUs is the number of physical processor packages/cores.
	PhysCPUs int
	// HyperThreading splits each physical CPU into two logical CPUs that
	// share an execution unit (§5: a major jitter source on the Xeon).
	HyperThreading bool
	// CPUFreqGHz scales the base costs below (they are specified for a
	// 1 GHz processor).
	CPUFreqGHz float64

	// --- kernel patches (§4) ---

	// Preemptible enables the MontaVista preemption patch: a process may
	// be preempted inside the kernel whenever it holds no spinlock and
	// preemption is not explicitly disabled.
	Preemptible bool
	// LowLatency enables Andrew Morton's low-latency patches: the longest
	// kernel critical sections are broken up with explicit scheduling
	// points, bounding non-preemptible region length.
	LowLatency bool
	// O1Scheduler selects Ingo Molnar's O(1) scheduler instead of the
	// legacy 2.4 goodness() scheduler.
	O1Scheduler bool
	// ShieldSupport enables the /proc/shield interface (the paper's
	// contribution). Writes to /proc/shield fail without it.
	ShieldSupport bool
	// FixSpinlockBH enables the RedHawk fix from §6.2: bottom halves are
	// not allowed to preempt a critical section that holds a contended
	// spinlock (the simulator defers softirq execution on a CPU whose
	// interrupted context holds a spinlock).
	FixSpinlockBH bool
	// BKLHoldReduction enables the RedHawk "BKL hold time reduction"
	// work (§1): most file-system paths no longer take the Big Kernel
	// Lock, and those that do hold it briefly. Without it (stock 2.4) a
	// noticeable fraction of fs syscalls serialize on the BKL for their
	// whole duration.
	BKLHoldReduction bool
	// BKLIoctlFlag enables the RedHawk change from §6.3: the generic
	// ioctl path consults a per-driver flag and skips the Big Kernel
	// Lock for multithreaded drivers (like the RCIM).
	BKLIoctlFlag bool
	// HighResTimers enables the POSIX timers patch (§4): sleeps and
	// timer expirations get nanosecond granularity. Without it (stock
	// 2.4) every sleep is rounded up to the next jiffy plus one — a
	// task asking for 100µs sleeps for up to two 10ms ticks, which is
	// why high-frequency periodic tasks were impossible on stock 2.4.
	HighResTimers bool
	// SoftirqDaemon enables ksoftirqd-style overflow handling (part of
	// RedHawk's softirq changes, §1): when one bottom-half pass exhausts
	// its budget, the remainder is handed to a per-CPU kernel thread
	// that competes as an ordinary SCHED_OTHER task instead of being
	// retried in interrupt context — so a softirq storm cannot
	// monopolise a CPU against runnable tasks.
	SoftirqDaemon bool
	// LocalTimerHz is the local timer interrupt frequency (100 in 2.4).
	LocalTimerHz int
	// IRQRoundRobin distributes each interrupt line's deliveries over
	// its allowed CPUs round-robin (IO-APIC lowest-priority mode). The
	// default (false) is the static 2.4 behaviour: every delivery goes
	// to the first allowed CPU, which is why stock SMP boxes piled all
	// device interrupt load onto CPU 0.
	IRQRoundRobin bool
	// CritSectionCap, when non-zero, bounds the length of any single
	// kernel critical section: syscall work regions longer than the cap
	// are split into shorter regions with scheduling points between
	// them. This is how the low-latency patches (and RedHawk's further
	// low-latency work) are modelled — they rewrote the long algorithms
	// so preemption is disabled for shorter stretches (§6).
	CritSectionCap sim.Duration

	// TiebreakSalt, when non-zero, installs a tie-break perturbation on
	// the machine's event engine (sim.Engine.PerturbTiebreaks):
	// same-instant events without a pinned arbitration dispatch in a
	// seeded permutation of their FIFO order. It is a verification
	// knob, not a model parameter — a correct model produces
	// bit-identical figures for every salt, and cmd/reprocheck -perturb
	// fails if one does not. The default (0) is plain FIFO.
	TiebreakSalt uint64

	// EventPool, when non-nil, supplies the engine's event-node free
	// list instead of a fresh private pool. The replication runner sets
	// this to one pool per worker goroutine so consecutive replications
	// reuse warm nodes; pooling is invisible in results. A pool must
	// never be shared across concurrently running machines.
	EventPool *sim.EventPool

	// InvariantPeriod, when non-zero, arms a periodic machine-state
	// invariant sampler at Start: every period the whole machine is
	// walked with CheckInvariants and a violation panics with the
	// evidence. Like TiebreakSalt this is a verification knob
	// (cmd/reprocheck -checkinv), not a model parameter: the sampler is
	// read-only and draws no randomness, so it cannot change results —
	// it only moves invariant detection from "wrong figure at the end"
	// to "panic at the first corrupt state".
	InvariantPeriod sim.Duration

	// Timing holds the calibration constants.
	Timing Timing
}

// NumCPUs returns the number of logical CPUs (physical × 2 when
// hyperthreading is enabled).
func (c *Config) NumCPUs() int {
	if c.HyperThreading {
		return 2 * c.PhysCPUs
	}
	return c.PhysCPUs
}

// OnlineMask returns the mask of all logical CPUs.
func (c *Config) OnlineMask() CPUMask { return MaskAll(c.NumCPUs()) }

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.PhysCPUs < 1 {
		return fmt.Errorf("kernel: config %q: need at least one CPU", c.Name)
	}
	if c.NumCPUs() > 64 {
		return fmt.Errorf("kernel: config %q: more than 64 logical CPUs", c.Name)
	}
	if c.CPUFreqGHz <= 0 {
		return fmt.Errorf("kernel: config %q: CPUFreqGHz must be positive", c.Name)
	}
	if c.LocalTimerHz <= 0 {
		return fmt.Errorf("kernel: config %q: LocalTimerHz must be positive", c.Name)
	}
	if c.Timing.HTSlowdown <= 0 || c.Timing.HTSlowdown > 1 {
		return fmt.Errorf("kernel: config %q: HTSlowdown must be in (0,1]", c.Name)
	}
	return nil
}

// Timing holds every timing magnitude in the model, specified for a 1 GHz
// CPU and scaled by Config.CPUFreqGHz. The values are calibrated from the
// paper and from published 2.4-era measurements; see DESIGN.md §5.
type Timing struct {
	// IRQEntry is the hardware interrupt entry cost (vector dispatch,
	// register save) before the handler runs.
	IRQEntry sim.Duration
	// IRQExit is the return-from-interrupt cost.
	IRQExit sim.Duration
	// CtxSwitch is the bare context switch cost.
	CtxSwitch sim.Duration
	// CtxSwitchCachePenalty is extra cache-refill work charged to a task
	// after it is switched in (worst-case uniform [0, penalty]).
	CtxSwitchCachePenalty sim.Duration
	// TickHandler is the local timer interrupt handler cost (time
	// accounting, profiling hooks).
	TickHandler sim.Duration
	// ISRCachePenalty is extra cache-refill work charged to the
	// interrupted context per interrupt, modelling the cache pollution
	// an ISR causes beyond its own execution time.
	ISRCachePenalty sim.Duration
	// WakeupCost is the cost of try_to_wake_up plus runqueue insertion.
	WakeupCost sim.Duration
	// IdleExit is the latency to get out of the idle loop.
	IdleExit sim.Duration

	// SchedPickO1 is the constant cost of an O(1) scheduler decision.
	SchedPickO1 sim.Duration
	// SchedPickBase / SchedPickPerTask give the legacy 2.4 goodness()
	// scheduler cost: base + per-runnable-task.
	SchedPickBase    sim.Duration
	SchedPickPerTask sim.Duration

	// HTSlowdown is the execution rate of a logical CPU while its
	// hyperthread sibling is busy (§5: the execution unit becomes a
	// point of contention). 1.0 disables the effect.
	HTSlowdown float64
	// BusContention is the worst-case fractional slowdown caused by
	// memory/bus traffic from other physical CPUs (§5.2: the ~1.87%
	// jitter remaining on a shielded CPU). The instantaneous factor is
	// resampled around this ceiling every BusResample.
	BusContention float64
	BusResample   sim.Duration

	// SoftirqNetPerKB is the NET_RX/NET_TX softirq work per KB of
	// network traffic processed.
	SoftirqNetPerKB sim.Duration
	// SoftirqBlockPerOp is the block-device bottom half work per
	// completed disk request.
	SoftirqBlockPerOp sim.Duration
	// SoftirqMax bounds one softirq processing pass.
	SoftirqMax sim.Duration

	// PreemptiblePoint is the maximum delay until a preemption-enabled
	// kernel reaches a point where it can actually schedule (preempt
	// disabled windows in a preemptible kernel).
	PreemptiblePoint sim.Duration
	// LowLatencyPoint is the maximum non-preemptible stretch in a
	// kernel with the low-latency patches only (scheduling points
	// inserted into long loops; Clark Williams measured ~1.2 ms
	// worst-case with both patch sets [5]).
	LowLatencyPoint sim.Duration
}

// scale returns d scaled from 1 GHz reference to the configured frequency.
func (c *Config) scale(d sim.Duration) sim.Duration {
	return d.Scale(1.0 / c.CPUFreqGHz)
}

// MaxCritSection returns the critical-section length cap in effect, or 0
// when the kernel has no low-latency work (stock 2.4).
func (c *Config) MaxCritSection() sim.Duration { return c.CritSectionCap }

// DefaultTiming returns the calibrated timing constants (1 GHz reference).
func DefaultTiming() Timing {
	return Timing{
		IRQEntry:              900 * sim.Nanosecond,
		IRQExit:               600 * sim.Nanosecond,
		CtxSwitch:             1800 * sim.Nanosecond,
		CtxSwitchCachePenalty: 2500 * sim.Nanosecond,
		TickHandler:           4 * sim.Microsecond,
		ISRCachePenalty:       1500 * sim.Nanosecond,
		WakeupCost:            900 * sim.Nanosecond,
		IdleExit:              700 * sim.Nanosecond,
		SchedPickO1:           500 * sim.Nanosecond,
		SchedPickBase:         700 * sim.Nanosecond,
		SchedPickPerTask:      150 * sim.Nanosecond,
		HTSlowdown:            0.70,
		BusContention:         0.055,
		BusResample:           10 * sim.Millisecond,
		SoftirqNetPerKB:       15 * sim.Microsecond,
		SoftirqBlockPerOp:     25 * sim.Microsecond,
		SoftirqMax:            4 * sim.Millisecond,
		PreemptiblePoint:      120 * sim.Microsecond,
		LowLatencyPoint:       900 * sim.Microsecond,
	}
}

// --- Presets: the systems in the paper's evaluation ---

// StandardLinux24 returns the stock kernel.org 2.4.18 kernel on a dual
// P4 Xeon (hyperthreading on by default, as the paper found): no
// preemption patch, no low-latency patches, legacy scheduler, no shielding.
func StandardLinux24(physCPUs int, freqGHz float64, ht bool) Config {
	return Config{
		Name:             "kernel.org-2.4.18",
		PhysCPUs:         physCPUs,
		HyperThreading:   ht,
		CPUFreqGHz:       freqGHz,
		Preemptible:      false,
		LowLatency:       false,
		O1Scheduler:      false,
		ShieldSupport:    false,
		FixSpinlockBH:    false,
		BKLHoldReduction: false,
		BKLIoctlFlag:     false,
		HighResTimers:    false,
		SoftirqDaemon:    false,
		LocalTimerHz:     100,
		CritSectionCap:   0,
		Timing:           DefaultTiming(),
	}
}

// RedHawk14 returns the RedHawk Linux 1.4 kernel from §4: 2.4.18 plus the
// preemption patch, low-latency patches, O(1) scheduler, shield support,
// the §6.2 spinlock/bottom-half fix and the §6.3 BKL ioctl flag.
// Hyperthreading is disabled by default in RedHawk.
func RedHawk14(physCPUs int, freqGHz float64) Config {
	return Config{
		Name:             "RedHawk-1.4",
		PhysCPUs:         physCPUs,
		HyperThreading:   false,
		CPUFreqGHz:       freqGHz,
		Preemptible:      true,
		LowLatency:       true,
		O1Scheduler:      true,
		ShieldSupport:    true,
		FixSpinlockBH:    true,
		BKLHoldReduction: true,
		BKLIoctlFlag:     true,
		HighResTimers:    true,
		SoftirqDaemon:    true,
		LocalTimerHz:     100,
		CritSectionCap:   400 * sim.Microsecond,
		Timing:           DefaultTiming(),
	}
}

// PatchedLinux24 returns a kernel with the open-source preemption and
// low-latency patches but none of the RedHawk work — the configuration
// Clark Williams measured at ~1.2 ms worst case [5], used as an ablation.
func PatchedLinux24(physCPUs int, freqGHz float64) Config {
	cfg := StandardLinux24(physCPUs, freqGHz, false)
	cfg.Name = "2.4.18-preempt-lowlat"
	cfg.Preemptible = true
	cfg.LowLatency = true
	cfg.CritSectionCap = cfg.Timing.LowLatencyPoint
	return cfg
}
