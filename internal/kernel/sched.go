package kernel

import (
	"math/bits"

	"repro/internal/sim"
)

// defaultTimeslice is the SCHED_OTHER/SCHED_RR quantum at nice 0.
const defaultTimeslice = 60 * sim.Millisecond

// timesliceFor scales the quantum by niceness the way 2.4's
// NICE_TO_TICKS did: nice -20 doubles it, nice +19 leaves one tick.
func timesliceFor(t *Task) sim.Duration {
	if t.Policy == SchedFIFO {
		return defaultTimeslice // unused: FIFO never expires
	}
	n := t.Nice
	if n < -20 {
		n = -20
	}
	if n > 19 {
		n = 19
	}
	// Linear from 2x at -20 through 1x at 0 down to ~1/6 at +19.
	frac := 1.0 - float64(n)*0.042
	if n < 0 {
		frac = 1.0 - float64(n)*0.05
	}
	d := defaultTimeslice.Scale(frac)
	if d < 10*sim.Millisecond {
		d = 10 * sim.Millisecond
	}
	return d
}

// Scheduler is the runqueue policy. Two implementations exist: the O(1)
// scheduler that RedHawk adopted from the 2.5 series and the legacy 2.4
// goodness() scheduler. Both give strict priority semantics (SCHED_FIFO/RR
// above SCHED_OTHER); they differ in data structure, decision cost and
// placement details.
type Scheduler interface {
	// Enqueue makes t runnable on c's queue.
	Enqueue(t *Task, c *CPU)
	// Dequeue removes a runnable task from its queue.
	Dequeue(t *Task)
	// Pick removes and returns the best task eligible to run on c, or
	// nil if none.
	Pick(c *CPU) *Task
	// Peek returns the best eligible task without removing it.
	Peek(c *CPU) *Task
	// PickCost is the decision cost charged at dispatch.
	PickCost(c *CPU) sim.Duration
	// PlaceWake chooses the CPU for a task that just became runnable.
	PlaceWake(t *Task) *CPU
	// NrRunnable is the number of queued (not running) tasks.
	NrRunnable() int
}

// eligible reports whether t may run on CPU c under shielding semantics.
func eligible(t *Task, c *CPU) bool {
	eff := t.EffectiveAffinity()
	if eff == 0 {
		return false
	}
	return eff.Has(c.ID)
}

// placeWake is the shared wake placement policy, modelled on 2.4's
// reschedule_idle and the O(1) scheduler's try_to_wake_up: prefer the
// last CPU if idle, then any idle CPU, then the CPU running the lowest-
// priority task that t can preempt, then the last CPU.
func placeWake(k *Kernel, t *Task) *CPU {
	eff := t.EffectiveAffinity()
	if eff == 0 {
		eff = t.affinity & k.online
		if eff == 0 {
			eff = k.online
		}
	}
	if t.cpu != nil && eff.Has(t.cpu.ID) && t.cpu.Idle() {
		return t.cpu
	}
	var idle CPUMask
	var lowest *CPU
	lowestPrio := 1 << 30
	for m := uint64(eff); m != 0; m &= m - 1 {
		id := bits.TrailingZeros64(m)
		c := k.cpus[id]
		if c.Idle() {
			idle = idle.With(id)
			continue
		}
		p := 1 << 29 // busy with interrupt work only: hard to place
		if c.cur != nil {
			p = c.cur.rtEffective()
		}
		if p < lowestPrio {
			lowestPrio = p
			lowest = c
		}
	}
	if idle != 0 {
		// Any idle CPU will do; 2.4 had no topology awareness, and which
		// idle CPU picked up a waking task was effectively arbitrary —
		// including, on hyperthreaded boxes, the sibling of a CPU
		// running a real-time loop (§5's jitter source).
		return k.cpus[idle.nth(k.rng.Intn(idle.Count()))]
	}
	if lowest != nil && t.rtEffective() > lowestPrio {
		return lowest
	}
	if t.cpu != nil && eff.Has(t.cpu.ID) {
		return t.cpu
	}
	return k.cpus[eff.First()]
}
