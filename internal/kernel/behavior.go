package kernel

import "repro/internal/sim"

// Behavior drives a task: each time the task is about to do something new,
// the kernel asks the behavior for the next Action. Behaviors are state
// machines written by the workload and experiment packages.
type Behavior interface {
	// Next returns the task's next action. It runs at dispatch time in
	// virtual time order, so it may read the kernel clock and use the
	// task's RNG deterministically.
	Next(t *Task) Action
}

// BehaviorFunc adapts a function to the Behavior interface.
type BehaviorFunc func(t *Task) Action

// Next implements Behavior.
func (f BehaviorFunc) Next(t *Task) Action { return f(t) }

// ActionCompleter is the snapshot-safe alternative to Action.OnComplete:
// when an action finishes and its OnComplete is nil, the kernel calls
// ActionDone on the task's behavior (if implemented) with the completed
// action's kind. Because the hook lives on the behavior — whose state is
// serialised through SnapBehavior — instead of in a captured closure, an
// action can complete on the far side of a snapshot/restore boundary.
type ActionCompleter interface {
	ActionDone(t *Task, kind ActionKind, now sim.Time)
}

// SnapBehavior is implemented by behaviors that can cross a snapshot
// boundary. The kernel serialises the behavior by name plus an opaque
// word list; on restore the freshly constructed machine's behavior (same
// construction order, hence same name) gets the words back. Behaviors
// that keep state in closures cannot implement this — a snapshot of a
// machine running one fails loudly, naming the task.
type SnapBehavior interface {
	Behavior
	// BehaviorName identifies the behavior for cross-checking that the
	// restoring machine reconstructed the same task structure.
	BehaviorName() string
	// BehaviorState returns the behavior's mutable state as words.
	BehaviorState() []uint64
	// SetBehaviorState overwrites the state from a snapshot's words.
	SetBehaviorState(words []uint64)
}

// actionDone dispatches an action completion: the explicit OnComplete
// closure when one was given, else the behavior's ActionCompleter hook.
func actionDone(t *Task, kind ActionKind, onComplete func(sim.Time), now sim.Time) {
	if onComplete != nil {
		onComplete(now)
		return
	}
	if bc, ok := t.behavior.(ActionCompleter); ok {
		bc.ActionDone(t, kind, now)
	}
}

// ActionKind discriminates Action.
type ActionKind uint8

// Action kinds.
const (
	// ActCompute burns user-mode CPU for D of work.
	ActCompute ActionKind = iota
	// ActSyscall enters the kernel and executes Call.
	ActSyscall
	// ActSleep blocks for D of virtual time (nanosleep).
	ActSleep
	// ActYield returns to the scheduler (sched_yield).
	ActYield
	// ActExit terminates the task.
	ActExit
)

// Action is one step of a task's life.
type Action struct {
	Kind ActionKind
	// D is the amount of work (ActCompute) or sleep (ActSleep).
	D sim.Duration
	// Call describes the syscall for ActSyscall.
	Call *SyscallCall
	// OnComplete, if non-nil, runs when the action finishes (after the
	// task is back in user mode for syscalls). Experiments use it to
	// read the simulated TSC.
	OnComplete func(now sim.Time)
}

// Compute returns a user-mode compute action.
func Compute(d sim.Duration) Action { return Action{Kind: ActCompute, D: d} }

// Sleep returns a sleep action.
func Sleep(d sim.Duration) Action { return Action{Kind: ActSleep, D: d} }

// Exit returns the terminate action.
func Exit() Action { return Action{Kind: ActExit} }

// Yield returns a sched_yield action.
func Yield() Action { return Action{Kind: ActYield} }

// Syscall returns a syscall action.
func Syscall(call *SyscallCall) Action { return Action{Kind: ActSyscall, Call: call} }

// SegmentKind discriminates syscall segments.
type SegmentKind uint8

// Segment kinds.
const (
	// SegWork executes kernel code for D of work.
	SegWork SegmentKind = iota
	// SegBlock puts the task to sleep on Wait until woken.
	SegBlock
)

// Segment is one region of kernel execution inside a syscall. The
// sequence of segments encodes the critical-section structure that
// determines preemption latency (§6 of the paper).
type Segment struct {
	Kind SegmentKind
	// D is the work in this region (SegWork).
	D sim.Duration
	// Lock, if non-nil, is acquired at region start and released at
	// region end; a contended acquire spins.
	Lock *SpinLock
	// IRQsOff marks a spin_lock_irqsave-style region: local interrupts
	// are disabled for its duration.
	IRQsOff bool
	// NonPreempt marks an explicit preempt_disable region: even a
	// preemptible kernel cannot schedule until it ends. Regions holding
	// a lock are implicitly non-preemptible.
	NonPreempt bool
	// SchedPoint marks a low-latency-patch scheduling point at the END
	// of this region: even a non-preemptible kernel checks needResched
	// there.
	SchedPoint bool
	// Wait is the queue to block on (SegBlock).
	Wait *WaitQueue
	// OnDone, if non-nil, runs when this segment completes. Devices use
	// it to implement handler side effects.
	OnDone func()
	// DoneTag is the serialisable identity of OnDone for snapshots: a
	// registered event-kind tag whose rebuilder reconstructs the closure
	// on restore. A segment with OnDone set but a zero DoneTag cannot
	// cross a snapshot boundary (the snapshot fails loudly).
	DoneTag sim.EventTag
}

// SyscallCall describes one invocation of a system call as the list of
// kernel regions it executes. The list is produced fresh for each call by
// the workload profile so durations can be drawn from distributions.
type SyscallCall struct {
	Name string
	// Segments executes in order.
	Segments []Segment
	// TakesBKL makes the generic entry path acquire the Big Kernel Lock
	// before the first segment and release it at syscall exit, as the
	// 2.4 ioctl path does. If the kernel config has BKLIoctlFlag set
	// and DriverNoBKL is true, the BKL is skipped (§6.3).
	TakesBKL    bool
	DriverNoBKL bool
	// ReacquireBKLOnBlock models 2.4 semantics: the BKL is dropped when
	// the task blocks and reacquired when it resumes.
	// (Always true in Linux; kept as a field for tests/ablations.)
	ReacquireBKLOnBlock bool
}

// syscallCall is the in-flight execution state of a SyscallCall.
type syscallCall struct {
	def *SyscallCall
	// segs is the segment list after low-latency splitting.
	segs    []Segment
	idx     int  // next segment to execute
	heldBKL bool // whether this call currently holds the BKL
	// onComplete from the Action, run at syscall exit.
	onComplete func(now sim.Time)
	// split is the call's own buffer for the post-split segment list;
	// segs aliases it when the kernel splits critical sections, and
	// def.Segments otherwise. It keeps its capacity across calls.
	split []Segment
}

// needsBKL reports whether this call must hold the BKL while executing,
// given the kernel configuration.
func (c *syscallCall) needsBKL(cfg *Config) bool {
	if !c.def.TakesBKL {
		return false
	}
	if cfg.BKLIoctlFlag && c.def.DriverNoBKL {
		return false
	}
	return true
}
