package kernel

import (
	"fmt"

	"repro/internal/sim"
)

// SchedPolicy is the POSIX scheduling policy of a task.
type SchedPolicy uint8

// Scheduling policies. SCHED_FIFO and SCHED_RR are the real-time
// fixed-priority policies; SCHED_OTHER is the time-sharing class.
const (
	SchedOther SchedPolicy = iota
	SchedFIFO
	SchedRR
)

// String returns the POSIX name of the policy.
func (p SchedPolicy) String() string {
	switch p {
	case SchedFIFO:
		return "SCHED_FIFO"
	case SchedRR:
		return "SCHED_RR"
	default:
		return "SCHED_OTHER"
	}
}

// Real-time priority range (1 low … 99 high), as in Linux.
const (
	MinRTPrio = 1
	MaxRTPrio = 99
)

// TaskState is the lifecycle state of a task.
type TaskState uint8

// Task states.
const (
	TaskRunnable TaskState = iota // on a runqueue, not running
	TaskRunning                   // currently executing on a CPU
	TaskBlocked                   // waiting on a WaitQueue or sleeping
	TaskExited
)

// String names the state.
func (s TaskState) String() string {
	switch s {
	case TaskRunnable:
		return "runnable"
	case TaskRunning:
		return "running"
	case TaskBlocked:
		return "blocked"
	default:
		return "exited"
	}
}

// Task is a simulated process/thread.
type Task struct {
	PID    int
	Name   string
	Policy SchedPolicy
	// RTPrio is the real-time priority for SCHED_FIFO/SCHED_RR
	// (1..99, higher wins). Ignored for SCHED_OTHER.
	RTPrio int
	// Nice is the SCHED_OTHER niceness (-20..19, lower is more
	// favoured). As in 2.4's NICE_TO_TICKS, it scales the timeslice:
	// nice -20 gets ~2x the default quantum, nice 19 gets a single
	// tick.
	Nice int
	// affinity is the user-requested CPU mask (sched_setaffinity).
	affinity CPUMask
	// MemLocked corresponds to mlockall(): when false, the task
	// occasionally takes a page fault during user-mode execution.
	MemLocked bool

	kern  *Kernel
	state TaskState
	// cpu is where the task is running or last ran.
	cpu *CPU
	// behavior supplies the task's next action.
	behavior Behavior
	// rng is the task's private random stream.
	rng *sim.RNG

	// saved is the suspended execution frame when the task was preempted
	// mid-segment, to be resumed on the next dispatch.
	saved *frame
	// call is the in-flight syscall, nil in user mode; it always
	// points at callBuf, the task's one reusable syscall state.
	call    *syscallCall
	callBuf syscallCall
	waitOn  *WaitQueue

	// Timeslice accounting for SCHED_OTHER / SCHED_RR.
	sliceLeft sim.Duration

	// Statistics.
	Switches  uint64
	Migrated  uint64
	RunTime   sim.Duration
	lastQueue sim.Time
}

// State returns the task's current lifecycle state.
func (t *Task) State() TaskState { return t.state }

// RNG returns the task's private deterministic random stream, for
// behaviors that draw work sizes from distributions.
func (t *Task) RNG() *sim.RNG { return t.rng }

// Kernel returns the kernel this task belongs to.
func (t *Task) Kernel() *Kernel { return t.kern }

// CPU returns the CPU the task is running on (or last ran on), -1 if none.
func (t *Task) CPU() int {
	if t.cpu == nil {
		return -1
	}
	return t.cpu.ID
}

// Affinity returns the user-set affinity mask.
func (t *Task) Affinity() CPUMask { return t.affinity }

// EffectiveAffinity returns the affinity after shielding semantics.
func (t *Task) EffectiveAffinity() CPUMask {
	return EffectiveAffinity(t.affinity, t.kern.shieldProcs, t.kern.online)
}

// rtEffective returns the effective priority used for runqueue ordering:
// RT tasks sort above all SCHED_OTHER tasks.
func (t *Task) rtEffective() int {
	if t.Policy == SchedFIFO || t.Policy == SchedRR {
		return t.RTPrio
	}
	return 0
}

// higherPrioThan reports whether t strictly beats other for a CPU.
func (t *Task) higherPrioThan(other *Task) bool {
	if other == nil {
		return true
	}
	return t.rtEffective() > other.rtEffective()
}

// String identifies the task for traces and errors.
func (t *Task) String() string {
	return fmt.Sprintf("%s/%d", t.Name, t.PID)
}

// WaitQueue is a kernel wait queue: tasks block on it and ISRs or other
// tasks wake them, FIFO.
type WaitQueue struct {
	Name    string
	waiters []*Task
	// id is the queue's kernel-registered snapshot identity (1-based;
	// 0 for unregistered queues, which cannot cross a snapshot).
	id uint64
}

// NewWaitQueue returns an empty, unregistered wait queue. Production
// queues should use Kernel.NewWaitQueue so they survive snapshots.
func NewWaitQueue(name string) *WaitQueue { return &WaitQueue{Name: name} }

// ID returns the queue's kernel-registered snapshot identity (0 when
// the queue was created outside Kernel.NewWaitQueue).
func (wq *WaitQueue) ID() uint64 { return wq.id }

// Len returns the number of blocked tasks.
func (wq *WaitQueue) Len() int { return len(wq.waiters) }

// enqueue appends a task (called by the kernel when a task blocks).
func (wq *WaitQueue) enqueue(t *Task) { wq.waiters = append(wq.waiters, t) }

// dequeue removes a specific task (e.g. woken selectively).
func (wq *WaitQueue) dequeue(t *Task) bool {
	for i, w := range wq.waiters {
		if w == t {
			wq.waiters = append(wq.waiters[:i], wq.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// popFirst removes and returns the first waiter, or nil.
func (wq *WaitQueue) popFirst() *Task {
	if len(wq.waiters) == 0 {
		return nil
	}
	t := wq.waiters[0]
	// Shift in place: re-slicing past the head would leak the slot's
	// capacity (the next enqueue reallocates) and pin a stale *Task.
	n := copy(wq.waiters, wq.waiters[1:])
	wq.waiters[n] = nil
	wq.waiters = wq.waiters[:n]
	return t
}
