package kernel

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// CheckInvariants walks the whole machine state and returns an error
// describing the first violated invariant, or nil. Tests call it
// periodically during failure-injection runs; it is also handy from a
// debugger. It is not called on hot paths.
func (k *Kernel) CheckInvariants() error {
	for _, c := range k.cpus {
		if err := c.checkInvariants(); err != nil {
			return err
		}
	}
	for _, t := range k.tasks {
		if err := k.checkTaskInvariants(t); err != nil {
			return err
		}
	}
	if err := k.checkLockInvariants(k.BKL); err != nil {
		return err
	}
	for _, l := range k.namedLocks {
		if err := k.checkLockInvariants(l); err != nil {
			return err
		}
	}
	return nil
}

func (c *CPU) checkInvariants() error {
	for i, f := range c.stack {
		isTop := i == len(c.stack)-1
		if !isTop && f.armed {
			return fmt.Errorf("cpu%d: buried frame %d (%s) still armed", c.ID, i, f.kind)
		}
		if f.kind == frameSpin && f.armed {
			return fmt.Errorf("cpu%d: spin frame armed", c.ID)
		}
		if f.workLeft < 0 {
			return fmt.Errorf("cpu%d: frame %d (%s) has negative work %f", c.ID, i, f.kind, f.workLeft)
		}
		if f.kind == frameTask && f.task == nil {
			return fmt.Errorf("cpu%d: task frame without task", c.ID)
		}
	}
	if top := c.top(); (top != nil && top.armed) != c.doneTimer.Armed() {
		return fmt.Errorf("cpu%d: top frame armed=%v but completion timer armed=%v", c.ID, top != nil && top.armed, c.doneTimer.Armed())
	}
	if c.cur != nil {
		if c.cur.state != TaskRunning {
			return fmt.Errorf("cpu%d: cur %v in state %v", c.ID, c.cur, c.cur.state)
		}
		if c.cur.cpu != c {
			return fmt.Errorf("cpu%d: cur %v thinks it is on cpu%d", c.ID, c.cur, c.cur.CPU())
		}
	}
	if c.isrDepth() > MaxISRNest {
		return fmt.Errorf("cpu%d: ISR nest depth %d > %d", c.ID, c.isrDepth(), MaxISRNest)
	}
	return nil
}

func (k *Kernel) checkTaskInvariants(t *Task) error {
	switch t.state {
	case TaskRunning:
		if t.cpu == nil || t.cpu.cur != t {
			return fmt.Errorf("task %v claims running but cpu disagrees", t)
		}
	case TaskBlocked:
		// A blocked task must not be current anywhere.
		for _, c := range k.cpus {
			if c.cur == t {
				return fmt.Errorf("blocked task %v is current on cpu%d", t, c.ID)
			}
		}
	case TaskExited:
		if t.saved != nil || t.call != nil {
			return fmt.Errorf("exited task %v still has execution state", t)
		}
	}
	if t.waitOn != nil && t.state != TaskBlocked {
		return fmt.Errorf("task %v on a wait queue in state %v", t, t.state)
	}
	return nil
}

func (k *Kernel) checkLockInvariants(l *SpinLock) error {
	if l.holder == nil && l.heldOnce && len(l.waiters) > 0 {
		// Free lock with waiters is legal only if every waiter is
		// buried (preempted spinner); an actively spinning waiter
		// would have taken the handover.
		for _, w := range l.waiters {
			if w.active != nil && w.active() {
				return fmt.Errorf("lock %s free with an actively spinning waiter on cpu%d",
					l.Name, w.cpu.ID)
			}
		}
	}
	seen := map[*CPU]bool{}
	for _, w := range l.waiters {
		if seen[w.cpu] {
			return fmt.Errorf("lock %s has duplicate waiter cpu%d", l.Name, w.cpu.ID)
		}
		seen[w.cpu] = true
		if w.cpu == l.holder {
			return fmt.Errorf("lock %s holder cpu%d is also waiting (self-deadlock)", l.Name, w.cpu.ID)
		}
	}
	return nil
}

// SampleInvariants arms a self-rescheduling event that runs
// CheckInvariants every period and hands the first violation to fail.
// When fail is nil a violation panics. The sampler is observationally
// neutral: it reads machine state, draws no randomness, and only
// consumes event sequence numbers — which shifts later events' numbers
// uniformly and so preserves their relative FIFO order. It keeps
// re-arming forever; experiments bound it with Engine.Run(until).
func (k *Kernel) SampleInvariants(period sim.Duration, fail func(error)) {
	if period <= 0 {
		panic("kernel: SampleInvariants needs a positive period")
	}
	if fail == nil {
		// The default (panic) sampler captures nothing, so it is tagged
		// with its period and survives snapshots.
		k.Eng.AfterTagged(period, evInvSample.Tag(uint64(period), 0, 0), func() { k.invSample(period) })
		return
	}
	var sample func()
	sample = func() {
		if err := k.CheckInvariants(); err != nil {
			fail(err)
			return
		}
		k.Eng.After(period, sample)
	}
	k.Eng.After(period, sample)
}

// invSample is the default invariant sampler's event body: check, panic
// on violation, re-arm.
func (k *Kernel) invSample(period sim.Duration) {
	if err := k.CheckInvariants(); err != nil {
		panic(fmt.Sprintf("kernel: invariant violated at %v: %v", k.Now(), err))
	}
	k.Eng.AfterTagged(period, evInvSample.Tag(uint64(period), 0, 0), func() { k.invSample(period) })
}

// ProcTasks renders a ps-style listing for /proc/tasks.
func (k *Kernel) ProcTasks() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-16s %-11s %-4s %-8s %-9s %-4s %-8s %-8s %-12s\n",
		"PID", "NAME", "POLICY", "PRIO", "STATE", "AFFINITY", "CPU", "SWITCHES", "MIGRATED", "CPUTIME")
	for _, t := range k.tasks {
		fmt.Fprintf(&b, "%-5d %-16s %-11s %-4d %-8s %-9s %-4d %-8d %-8d %-12v\n",
			t.PID, t.Name, t.Policy, t.RTPrio, t.State(), t.Affinity(), t.CPU(),
			t.Switches, t.Migrated, t.RunTime)
	}
	return b.String()
}
