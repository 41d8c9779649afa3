package kernel

import (
	"fmt"
	"sort"
	"sync" //simlint:allow nondeterminism guards only the process-global rebuilder registry below; nothing on a simulation path locks

	"repro/internal/sim"
	"repro/internal/snapshot"
)

// This file is the kernel layer of the checkpoint/restore stack. A
// snapshot is written as a sequence of sections after the engine's own
// "sim.engine" section: machine scalars (wheel, IRQ lines), tasks
// (including in-flight syscalls, saved frames and behavior state), CPU
// execution stacks, locks, wait queues, scheduler queues, the optional
// trace buffer, and one section per registered component.
//
// The restore protocol is reconstruct-then-overwrite: the restoring
// process builds an identical machine from (config, seed) — same
// construction order, hence the same RNG fork topology, PIDs, wait
// queue ids and component ids — calls Start, and then Restore drains
// the boot events and overwrites every piece of mutable state from the
// image. Event callbacks cannot be serialised; each pending event
// carries a registered kind tag instead, and restore rebuilds the
// callback from the tag through the kind's rebuilder.

// Kernel-owned event kinds. The names (not the numeric ids) are what a
// snapshot stores; see sim.RegisterEventKind.
var (
	evFrameDone    = sim.RegisterEventKind("k.frame-done")
	evIdleDispatch = sim.RegisterEventKind("k.idle-dispatch")
	evCPUTick      = sim.RegisterEventKind("k.cpu-tick")
	evGlobalTick   = sim.RegisterEventKind("k.global-tick")
	evBusResample  = sim.RegisterEventKind("k.bus-resample")
	evSleepWake    = sim.RegisterEventKind("k.sleep-wake")
	evInvSample    = sim.RegisterEventKind("k.inv-sample")
)

// SnapComponent is a device or workload with serialisable runtime
// state. Components register with Kernel.RegisterComponent during
// construction; because construction is deterministic, the registration
// order — and so each component's numeric id, used in event tags —
// agrees between the snapshotting and the restoring process.
type SnapComponent interface {
	// SnapName is the component's unique section name ("dev.disk/sda").
	SnapName() string
	// Snapshot writes the component's section (Begin through End). It
	// may refuse — without writing — when the component holds state
	// that cannot cross the boundary.
	Snapshot(w *snapshot.Writer) error
	// Restore reads the component's section back.
	Restore(r *snapshot.Reader, rc *RestoreContext) error
}

// RestoreContext carries cross-section state through a restore.
type RestoreContext struct {
	K *Kernel
	// spin[cpu] is the CPU's spin frame, if one is stacked, for
	// rebuilding lock waiter callbacks.
	spin []*frame
	// hasTrace records the machine-section flag: whether the image
	// carries a trace buffer section.
	hasTrace bool
}

// EventRebuild reconstructs an event callback from its tag arguments.
type EventRebuild func(rc *RestoreContext, a0, a1, a2 uint64) (func(), error)

var (
	rebuildMu sync.Mutex
	//simlint:allow globalstate process-wide rebuilder registry, mutex-guarded; populated in package inits, read-only during restore, duplicate names panic
	rebuilds = map[string]EventRebuild{}
)

// RegisterEventRebuild installs the rebuilder for a registered event
// kind. Device and workload packages call this from init; registering
// the same kind twice panics (two packages claiming one name is a bug).
func RegisterEventRebuild(kind string, f EventRebuild) {
	if kind == "" || f == nil {
		panic("kernel: RegisterEventRebuild needs a kind name and a function")
	}
	rebuildMu.Lock()
	defer rebuildMu.Unlock()
	if _, dup := rebuilds[kind]; dup {
		panic("kernel: duplicate event rebuilder for kind " + kind)
	}
	rebuilds[kind] = f
}

func lookupRebuild(kind string) EventRebuild {
	rebuildMu.Lock()
	defer rebuildMu.Unlock()
	return rebuilds[kind]
}

// --- snapshot ---

// SnapshotTo serialises the whole machine into w: engine, machine
// scalars, tasks, CPU stacks, locks, wait queues, scheduler, trace and
// components. It fails loudly when any piece of state cannot cross the
// boundary (a closure-state behavior, an untagged event or timer, an
// unregistered wait queue or lock): machine state is checked before the
// first byte is written, and a component refusal aborts the stream
// (Snapshot discards the partial buffer).
func (k *Kernel) SnapshotTo(w *snapshot.Writer) error {
	if err := k.checkSnapshottable(); err != nil {
		return err
	}
	if err := k.Eng.SnapshotTo(w); err != nil {
		return err
	}
	k.writeMachine(w)
	k.writeTasks(w)
	k.writeCPUs(w)
	k.writeLocks(w)
	k.writeWaitqs(w)
	k.writeSched(w)
	if k.Trace != nil {
		k.Trace.Snapshot(w)
	}
	seen := map[string]bool{}
	for _, comp := range k.comps {
		name := comp.SnapName()
		if seen[name] {
			return fmt.Errorf("kernel: snapshot: duplicate component section %q", name)
		}
		seen[name] = true
		if err := comp.Snapshot(w); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot serialises the machine and returns the image bytes.
func (k *Kernel) Snapshot() ([]byte, error) {
	w := snapshot.NewWriter()
	if err := k.SnapshotTo(w); err != nil {
		return nil, err
	}
	return w.Finish(), nil
}

// checkSnapshottable walks the machine and reports the first piece of
// state that cannot be serialised.
func (k *Kernel) checkSnapshottable() error {
	if !k.started {
		return fmt.Errorf("kernel: snapshot of a machine that was never started")
	}
	if len(k.wheel.pendingRun) > 0 {
		return fmt.Errorf("kernel: snapshot with %d timer-wheel callbacks mid-run", len(k.wheel.pendingRun))
	}
	for _, t := range k.tasks {
		if t.state != TaskExited {
			if _, ok := t.behavior.(SnapBehavior); !ok {
				return fmt.Errorf("kernel: snapshot: task %v behavior %T keeps state in closures and does not implement SnapBehavior", t, t.behavior)
			}
		}
		if t.waitOn != nil && t.waitOn.id == 0 {
			return fmt.Errorf("kernel: snapshot: task %v blocked on unregistered wait queue %q (use Kernel.NewWaitQueue)", t, t.waitOn.Name)
		}
		if t.call != nil {
			if t.call.onComplete != nil {
				return fmt.Errorf("kernel: snapshot: task %v syscall %q has an OnComplete closure (use ActionCompleter)", t, t.call.def.Name)
			}
			if err := k.checkSegs(t, t.call.segs); err != nil {
				return err
			}
		}
		if t.saved != nil {
			if err := k.checkFrame(nil, t.saved, false); err != nil {
				return fmt.Errorf("task %v saved frame: %w", t, err)
			}
		}
	}
	for _, c := range k.cpus {
		for i, f := range c.stack {
			if err := k.checkFrame(c, f, i == len(c.stack)-1); err != nil {
				return fmt.Errorf("cpu%d frame %d: %w", c.ID, i, err)
			}
		}
	}
	var timerErr error
	k.wheel.each(func(t *KTimer) {
		if timerErr == nil && t.active && t.tag.Kind == 0 {
			timerErr = fmt.Errorf("kernel: snapshot: untagged wheel timer expiring at jiffy %d (use AddTimerTagged)", t.expires)
		}
	})
	return timerErr
}

func (k *Kernel) checkSegs(t *Task, segs []Segment) error {
	for i := range segs {
		seg := &segs[i]
		if seg.OnDone != nil && seg.DoneTag.Kind == 0 {
			return fmt.Errorf("kernel: snapshot: task %v segment %d of %q has OnDone without a DoneTag", t, i, t.call.def.Name)
		}
		if seg.Wait != nil && seg.Wait.id == 0 {
			return fmt.Errorf("kernel: snapshot: task %v segment %d blocks on unregistered wait queue %q", t, i, seg.Wait.Name)
		}
		if seg.Lock != nil && k.lockNamed(seg.Lock.Name) != seg.Lock {
			return fmt.Errorf("kernel: snapshot: task %v segment %d uses lock %q not owned by the kernel (use Kernel.NamedLock)", t, i, seg.Lock.Name)
		}
	}
	return nil
}

// checkFrame verifies one frame is serialisable. c is the owning CPU
// for stack frames, nil for a task's saved frame.
func (k *Kernel) checkFrame(c *CPU, f *frame, isTop bool) error {
	if f.complete != nil {
		return fmt.Errorf("kernel: snapshot: compute frame for %v carries an OnComplete closure (use ActionCompleter)", f.task)
	}
	if f.armed && !isTop {
		return fmt.Errorf("kernel: snapshot: buried %s frame is armed", f.kind)
	}
	switch f.kind {
	case frameTask:
		if f.seg != nil {
			if f.task.call == nil {
				return fmt.Errorf("kernel: snapshot: segment frame for %v without an in-flight syscall", f.task)
			}
			if segIndex(f.task.call, f.seg) < 0 {
				return fmt.Errorf("kernel: snapshot: segment frame for %v points outside its syscall", f.task)
			}
		}
	case frameSwitch:
		if f.task == nil {
			return fmt.Errorf("kernel: snapshot: switch frame without a target task")
		}
	case frameSpin:
		if f.spinWhy != spinForBKL && f.spinWhy != spinForSeg {
			return fmt.Errorf("kernel: snapshot: spin frame on %q without a rebuildable continuation", f.spin.Name)
		}
		if k.lockNamed(f.spin.Name) != f.spin {
			return fmt.Errorf("kernel: snapshot: spin frame waits on lock %q not owned by the kernel", f.spin.Name)
		}
	case frameISR:
		if f.irq == nil {
			return fmt.Errorf("kernel: snapshot: ISR frame without a line")
		}
		if c == nil {
			return fmt.Errorf("kernel: snapshot: ISR frame saved off-CPU")
		}
		if f.irq != c.localTimer && k.irqIndex(f.irq) < 0 {
			return fmt.Errorf("kernel: snapshot: ISR frame for unregistered line %q", f.irq.Name)
		}
	}
	for _, l := range f.locks {
		if k.lockNamed(l.Name) != l {
			return fmt.Errorf("kernel: snapshot: frame holds lock %q not owned by the kernel", l.Name)
		}
	}
	return nil
}

// lockNamed is the non-creating lock lookup: "BKL" or a named lock.
func (k *Kernel) lockNamed(name string) *SpinLock {
	if name == "BKL" {
		return k.BKL
	}
	return k.namedLocks[name]
}

// restoreLock is the creating lookup used on restore: the fresh machine
// may not yet have created locks the snapshotted one made on first use.
func (k *Kernel) restoreLock(name []byte) *SpinLock {
	if l := k.lockNamed(string(name)); l != nil {
		return l
	}
	return k.NamedLock(string(name))
}

func (k *Kernel) irqIndex(l *IRQLine) int {
	for i, x := range k.irqs {
		if x == l {
			return i
		}
	}
	return -1
}

func segIndex(call *syscallCall, seg *Segment) int {
	for i := range call.segs {
		if &call.segs[i] == seg {
			return i
		}
	}
	return -1
}

// each visits every timer in every wheel bucket.
func (w *timerWheel) each(fn func(*KTimer)) {
	for i := range w.tv1 {
		for _, t := range w.tv1[i] {
			fn(t)
		}
	}
	for l := range w.tv {
		for i := range w.tv[l] {
			for _, t := range w.tv[l][i] {
				fn(t)
			}
		}
	}
}

// --- section writers ---

const (
	secMachine = "kernel.machine"
	secTasks   = "kernel.tasks"
	secCPUs    = "kernel.cpus"
	secLocks   = "kernel.locks"
	secWaitqs  = "kernel.waitqs"
	secSched   = "kernel.sched"
)

func (k *Kernel) writeMachine(w *snapshot.Writer) {
	w.Begin(secMachine)
	w.Bool(1, k.Trace != nil)
	w.I64(2, int64(k.next))
	w.U64(3, k.rng.State())
	w.U64(4, uint64(k.shieldProcs))
	w.U64(5, uint64(k.shieldIRQs))
	w.U64(6, uint64(k.shieldLTimer))
	w.F64(7, k.load.one)
	w.F64(8, k.load.five)
	w.F64(9, k.load.fifteen)

	// Timer wheel: explicit bucket coordinates, so a restore lands every
	// timer back in the exact bucket it occupied — including timers a
	// cascade has already migrated, mid-lap (the wrap-boundary tests
	// depend on this being positional, not recomputed from expiry).
	w.U64(10, k.wheel.jiffies)
	w.U64(11, k.wheel.Added)
	w.U64(12, k.wheel.Fired)
	type slot struct {
		level, idx int
		t          *KTimer
	}
	var timers []slot
	for i := range k.wheel.tv1 {
		for _, t := range k.wheel.tv1[i] {
			if t.active {
				timers = append(timers, slot{0, i, t})
			}
		}
	}
	for l := range k.wheel.tv {
		for i := range k.wheel.tv[l] {
			for _, t := range k.wheel.tv[l][i] {
				if t.active {
					timers = append(timers, slot{l + 1, i, t})
				}
			}
		}
	}
	w.U64(13, uint64(len(timers)))
	for _, s := range timers {
		w.U64(14, uint64(s.level))
		w.U64(15, uint64(s.idx))
		w.U64(16, s.t.expires)
		w.Str(17, s.t.tag.Kind.String())
		w.U64(18, s.t.tag.A0)
		w.U64(19, s.t.tag.A1)
		w.U64(20, s.t.tag.A2)
	}

	w.U64(21, uint64(len(k.irqs)))
	for _, l := range k.irqs {
		w.U64(22, uint64(l.affinity))
		w.U64(23, l.rng.State())
		w.I64(24, int64(l.rr))
		w.U64(25, l.Raised)
		w.U64(26, l.Handled)
		w.U64(27, uint64(len(l.PerCPU)))
		for _, n := range l.PerCPU {
			w.U64(28, n)
		}
	}
	w.End()
}

func (k *Kernel) writeTasks(w *snapshot.Writer) {
	w.Begin(secTasks)
	w.U64(1, uint64(len(k.tasks)))
	for _, t := range k.tasks {
		w.U64(2, uint64(t.PID))
		w.Str(3, t.Name)
		w.U64(4, uint64(t.state))
		w.I64(5, cpuID(t.cpu))
		w.U64(6, uint64(t.affinity))
		w.Bool(7, t.MemLocked)
		w.I64(8, int64(t.Nice))
		w.U64(9, t.rng.State())
		w.I64(10, int64(t.sliceLeft))
		w.U64(11, t.Switches)
		w.U64(12, t.Migrated)
		w.I64(13, int64(t.RunTime))
		w.I64(14, int64(t.lastQueue))
		w.U64(15, waitID(t.waitOn))
		if sb, ok := t.behavior.(SnapBehavior); ok {
			w.Str(16, sb.BehaviorName())
			words := sb.BehaviorState()
			w.U64(17, uint64(len(words)))
			for _, word := range words {
				w.U64(18, word)
			}
		} else {
			w.Str(16, "")
			w.U64(17, 0)
		}
		w.Bool(19, t.call != nil)
		if t.call != nil {
			writeCall(w, t.call)
		}
		w.Bool(20, t.saved != nil)
		if t.saved != nil {
			k.writeFrame(w, t.saved)
		}
	}
	w.End()
}

// writeCall serialises an in-flight syscall: definition metadata, the
// post-split segment list, and the execution cursor. Tags 1..10 are a
// sub-record namespace (the codec checks sequence, not uniqueness).
func writeCall(w *snapshot.Writer, call *syscallCall) {
	w.Str(1, call.def.Name)
	var flags uint64
	if call.def.TakesBKL {
		flags |= 1
	}
	if call.def.DriverNoBKL {
		flags |= 2
	}
	if call.def.ReacquireBKLOnBlock {
		flags |= 4
	}
	if call.heldBKL {
		flags |= 8
	}
	w.U64(2, flags)
	w.U64(3, uint64(call.idx))
	w.U64(4, uint64(len(call.segs)))
	for i := range call.segs {
		seg := &call.segs[i]
		var bits uint64
		bits = uint64(seg.Kind)
		if seg.IRQsOff {
			bits |= 1 << 8
		}
		if seg.NonPreempt {
			bits |= 1 << 9
		}
		if seg.SchedPoint {
			bits |= 1 << 10
		}
		w.U64(5, bits)
		w.I64(6, int64(seg.D))
		w.Str(7, lockName(seg.Lock))
		w.U64(8, waitID(seg.Wait))
		w.Str(9, seg.DoneTag.Kind.String())
		w.U64(10, seg.DoneTag.A0)
		w.U64(11, seg.DoneTag.A1)
		w.U64(12, seg.DoneTag.A2)
	}
}

// readCall restores an in-flight syscall into call (the task's own
// syscall state).
func readCall(r *snapshot.Reader, rc *RestoreContext, call *syscallCall) error {
	k := rc.K
	name := r.Str(1)
	flags := r.U64(2)
	idx := int(r.U64(3))
	n := int(r.U64(4))
	//simlint:allow latbound restore-path reconstruction: segments come from the image, and every one was statically bounded at its original definition site; restore introduces no new lock-hold region
	def := &SyscallCall{
		Name:                name,
		TakesBKL:            flags&1 != 0,
		DriverNoBKL:         flags&2 != 0,
		ReacquireBKLOnBlock: flags&4 != 0,
	}
	call.def, call.heldBKL, call.idx, call.onComplete = def, flags&8 != 0, idx, nil
	call.split = make([]Segment, n)
	call.segs = call.split
	for i := 0; i < n; i++ {
		bits := r.U64(5)
		seg := Segment{
			Kind:       SegmentKind(bits & 0xff),
			IRQsOff:    bits&(1<<8) != 0,
			NonPreempt: bits&(1<<9) != 0,
			SchedPoint: bits&(1<<10) != 0,
			D:          sim.Duration(r.I64(6)),
		}
		if ln := r.Bytes(7); len(ln) != 0 {
			seg.Lock = k.restoreLock(ln)
		}
		if wid := r.U64(8); wid != 0 {
			seg.Wait = k.WaitQueueByID(wid)
			if seg.Wait == nil {
				return fmt.Errorf("kernel: restore: syscall %q segment %d references unknown wait queue %d", name, i, wid)
			}
		}
		doneKind := sim.EventKindNameOf(r.Bytes(9))
		a0, a1, a2 := r.U64(10), r.U64(11), r.U64(12)
		if doneKind != "" {
			seg.DoneTag = sim.RegisterEventKind(doneKind).Tag(a0, a1, a2)
			rb := lookupRebuild(doneKind)
			if rb == nil {
				return fmt.Errorf("kernel: restore: no rebuilder for segment OnDone kind %q", doneKind)
			}
			fn, err := rb(rc, a0, a1, a2)
			if err != nil {
				return err
			}
			seg.OnDone = fn
		}
		call.segs[i] = seg
	}
	if err := r.Err(); err != nil {
		return err
	}
	// def.Segments is the pre-split list; the restored call only needs
	// the post-split segs it executes, but keep def.Segments pointing at
	// them so the definition stays self-consistent for inspection.
	def.Segments = call.segs
	return nil
}

// writeFrame serialises one execution frame (sub-record tags 1..16).
func (k *Kernel) writeFrame(w *snapshot.Writer, f *frame) {
	w.U64(1, uint64(f.kind))
	pid := int64(-1)
	if f.task != nil {
		pid = int64(f.task.PID)
	}
	w.I64(2, pid)
	segIdx := int64(-1)
	if f.seg != nil {
		segIdx = int64(segIndex(f.task.call, f.seg))
	}
	w.I64(3, segIdx)
	w.F64(4, f.workLeft)
	w.I64(5, int64(f.lastAccrue))
	w.Bool(6, f.armed)
	w.U64(7, uint64(len(f.locks)))
	for _, l := range f.locks {
		w.Str(8, l.Name)
	}
	w.Bool(9, f.irqsOff)
	w.I64(10, int64(f.began))
	irqIdx := int64(-2)
	if f.irq != nil {
		if f.irq.Num == -1 {
			irqIdx = -1 // the owning CPU's local timer
		} else {
			irqIdx = int64(k.irqIndex(f.irq))
		}
	}
	w.I64(11, irqIdx)
	w.Str(12, lockName(f.spin))
	w.Bool(13, f.acquired)
	w.I64(14, int64(f.spinSince))
	w.Bool(15, f.suspended)
	w.U64(16, uint64(f.spinWhy))
}

// readFrame reconstructs one frame. c is the owning CPU for stack
// frames (nil for a task's saved frame, which is always a task frame).
// There is no continuation to rebuild: frameCont picks it from the
// restored kind, segment and spinWhy, exactly as for a live frame. A
// spin frame is still checked here for a continuation it can run.
func (k *Kernel) readFrame(r *snapshot.Reader, c *CPU) (*frame, error) {
	f := &frame{kind: frameKind(r.U64(1))}
	pid := r.I64(2)
	if pid >= 0 {
		f.task = k.byPID[int(pid)]
		if f.task == nil {
			return nil, fmt.Errorf("kernel: restore: frame references unknown pid %d", pid)
		}
	}
	segIdx := r.I64(3)
	f.workLeft = r.F64(4)
	f.lastAccrue = sim.Time(r.I64(5))
	f.armed = r.Bool(6)
	nlocks := int(r.U64(7))
	for i := 0; i < nlocks; i++ {
		f.locks = append(f.locks, k.restoreLock(r.Bytes(8)))
	}
	f.irqsOff = r.Bool(9)
	f.began = sim.Time(r.I64(10))
	irqIdx := r.I64(11)
	spin := r.Bytes(12)
	f.acquired = r.Bool(13)
	f.spinSince = sim.Time(r.I64(14))
	f.suspended = r.Bool(15)
	f.spinWhy = uint8(r.U64(16))
	if err := r.Err(); err != nil {
		return nil, err
	}
	if segIdx >= 0 {
		if f.task == nil || f.task.call == nil || int(segIdx) >= len(f.task.call.segs) {
			return nil, fmt.Errorf("kernel: restore: frame segment index %d has no matching syscall", segIdx)
		}
		f.seg = &f.task.call.segs[segIdx]
	}
	switch {
	case irqIdx == -1:
		if c == nil {
			return nil, fmt.Errorf("kernel: restore: local-timer ISR frame without a CPU")
		}
		f.irq = c.localTimer
	case irqIdx >= 0:
		if int(irqIdx) >= len(k.irqs) {
			return nil, fmt.Errorf("kernel: restore: frame references unknown irq %d", irqIdx)
		}
		f.irq = k.irqs[irqIdx]
	}
	if len(spin) != 0 {
		f.spin = k.restoreLock(spin)
	}

	if c == nil && f.kind != frameTask {
		return nil, fmt.Errorf("kernel: restore: saved %s frame off-CPU (only task frames are saved)", f.kind)
	}
	if f.kind == frameSpin {
		call := f.task.call
		if call == nil {
			return nil, fmt.Errorf("kernel: restore: spin frame for %v without an in-flight syscall", f.task)
		}
		switch f.spinWhy {
		case spinForBKL:
		case spinForSeg:
			if call.idx >= len(call.segs) {
				return nil, fmt.Errorf("kernel: restore: spin frame for %v past its segment list", f.task)
			}
		default:
			return nil, fmt.Errorf("kernel: restore: spin frame with unknown continuation %d", f.spinWhy)
		}
	}
	return f, nil
}

func (k *Kernel) writeCPUs(w *snapshot.Writer) {
	w.Begin(secCPUs)
	w.U64(17, uint64(len(k.cpus)))
	for _, c := range k.cpus {
		w.I64(18, cpuTaskID(c.cur))
		w.I64(19, cpuTaskID(c.lastRan))
		w.U64(20, uint64(len(c.pendingIRQ)))
		for _, l := range c.pendingIRQ {
			if l.Num == -1 {
				w.I64(21, -1)
			} else {
				w.I64(21, int64(k.irqIndex(l)))
			}
		}
		for _, p := range c.softirqPend {
			w.F64(22, p)
		}
		w.Bool(23, c.needResched)
		w.Bool(24, c.sliceExpired)
		w.Bool(25, c.forceResched)
		w.F64(26, c.daemonBacklog)
		w.U64(27, c.softirqHanded)
		w.F64(28, c.busFactor)
		w.U64(29, c.localTimer.rng.State())
		w.U64(30, c.localTimer.Raised)
		w.U64(31, c.localTimer.Handled)
		writeTimes(w, &c.times)
		writeTimes(w, &c.sampled)
		w.U64(17, c.IRQsHandled)
		w.U64(18, c.SoftirqRuns)
		w.I64(19, int64(c.SoftirqTime))
		w.U64(20, c.Preemptions)
		w.U64(21, c.TicksHandled)
		w.U64(22, uint64(len(c.stack)))
		for _, f := range c.stack {
			k.writeFrame(w, f)
		}
	}
	w.End()
}

func writeTimes(w *snapshot.Writer, t *CPUTimes) {
	w.I64(12, int64(t.User))
	w.I64(13, int64(t.System))
	w.I64(14, int64(t.IRQ))
	w.I64(15, int64(t.Softirq))
	w.I64(16, int64(t.Spin))
}

func readTimes(r *snapshot.Reader) CPUTimes {
	return CPUTimes{
		User:    sim.Duration(r.I64(12)),
		System:  sim.Duration(r.I64(13)),
		IRQ:     sim.Duration(r.I64(14)),
		Softirq: sim.Duration(r.I64(15)),
		Spin:    sim.Duration(r.I64(16)),
	}
}

func (k *Kernel) writeLocks(w *snapshot.Writer) {
	w.Begin(secLocks)
	names := make([]string, 0, len(k.namedLocks))
	for name := range k.namedLocks {
		names = append(names, name)
	}
	sort.Strings(names)
	locks := []*SpinLock{k.BKL}
	for _, name := range names {
		locks = append(locks, k.namedLocks[name])
	}
	w.U64(1, uint64(len(locks)))
	for _, l := range locks {
		w.Str(2, l.Name)
		w.I64(3, cpuID(l.holder))
		w.I64(4, int64(l.heldAt))
		w.Bool(5, l.heldOnce)
		w.U64(6, l.Acquisitions)
		w.U64(7, l.Contentions)
		w.I64(8, int64(l.TotalSpin))
		w.I64(9, int64(l.MaxHold))
		w.U64(10, uint64(len(l.waiters)))
		for _, lw := range l.waiters {
			w.U64(11, uint64(lw.cpu.ID))
			w.I64(12, int64(lw.since))
		}
	}
	w.End()
}

func (k *Kernel) writeWaitqs(w *snapshot.Writer) {
	w.Begin(secWaitqs)
	w.U64(1, uint64(len(k.waitqs)))
	for _, wq := range k.waitqs {
		w.Str(2, wq.Name)
		w.U64(3, uint64(len(wq.waiters)))
		for _, t := range wq.waiters {
			w.U64(4, uint64(t.PID))
		}
	}
	w.End()
}

func (k *Kernel) writeSched(w *snapshot.Writer) {
	w.Begin(secSched)
	switch s := k.sched.(type) {
	case *o1Scheduler:
		w.Str(1, "o1")
		for _, rq := range s.rqs {
			var pids []uint64
			for slot := 0; slot < numSlots; slot++ {
				for _, t := range rq.queues[slot] {
					pids = append(pids, uint64(t.PID))
				}
			}
			w.U64(2, uint64(len(pids)))
			for _, pid := range pids {
				w.U64(3, pid)
			}
		}
	case *legacyScheduler:
		w.Str(1, "legacy")
		w.U64(2, uint64(len(s.run)))
		for _, t := range s.run {
			w.U64(3, uint64(t.PID))
			w.I64(4, cpuID(t.cpu))
		}
	default:
		panic(fmt.Sprintf("kernel: snapshot of unknown scheduler %T", k.sched))
	}
	w.End()
}

func cpuID(c *CPU) int64 {
	if c == nil {
		return -1
	}
	return int64(c.ID)
}

func cpuTaskID(t *Task) int64 {
	if t == nil {
		return -1
	}
	return int64(t.PID)
}

func waitID(wq *WaitQueue) uint64 {
	if wq == nil {
		return 0
	}
	return wq.id
}

func lockName(l *SpinLock) string {
	if l == nil {
		return ""
	}
	return l.Name
}

// --- restore ---

// Restore overwrites this freshly constructed, started machine with the
// snapshot image read from r. The machine must have been built from the
// same configuration and seed (construction determinism is what lets
// pointers be rebuilt from ids); Restore validates what it can and
// fails loudly on any mismatch.
func (k *Kernel) Restore(r *snapshot.Reader) error {
	return k.restoreImage(r, nil)
}

// RestoreWarm is Restore with a different tie-break salt installed in
// the legal window between draining the boot events and re-queueing the
// snapshot's pending events. Warm-started sweep replicas use this to
// explore schedule perturbations without replaying boot.
func (k *Kernel) RestoreWarm(r *snapshot.Reader, salt uint64) error {
	return k.restoreImage(r, &salt)
}

func (k *Kernel) restoreImage(r *snapshot.Reader, warmSalt *uint64) error {
	if !k.started {
		return fmt.Errorf("kernel: restore into a machine that was not started")
	}
	evs, err := k.Eng.RestoreState(r)
	if err != nil {
		return err
	}
	if warmSalt != nil {
		k.Eng.PerturbTiebreaks(*warmSalt)
	}
	k.resetForRestore()
	rc := &RestoreContext{
		K:    k,
		spin: make([]*frame, len(k.cpus)),
	}
	if err := k.readMachine(r, rc); err != nil {
		return err
	}
	if err := k.readTasks(r, rc); err != nil {
		return err
	}
	if err := k.readCPUs(r, rc); err != nil {
		return err
	}
	if err := k.readLocks(r, rc); err != nil {
		return err
	}
	if err := k.readWaitqs(r); err != nil {
		return err
	}
	if err := k.readSched(r); err != nil {
		return err
	}
	if rc.hasTrace {
		if k.Trace == nil {
			return fmt.Errorf("kernel: restore: image has a trace buffer but the machine has none attached")
		}
		if err := k.Trace.Restore(r); err != nil {
			return err
		}
	} else if k.Trace != nil {
		return fmt.Errorf("kernel: restore: machine has a trace buffer but the image has none")
	}
	for _, comp := range k.comps {
		if err := comp.Restore(r, rc); err != nil {
			return err
		}
	}
	for _, rev := range evs {
		t, err := k.ownedTimer(rev)
		if err != nil {
			return err
		}
		if t != nil {
			if err := k.Eng.RestoreTimer(t, rev); err != nil {
				return err
			}
			continue
		}
		fn, err := k.rebuildEvent(rc, rev.Kind, rev.A0, rev.A1, rev.A2)
		if err != nil {
			return err
		}
		if err := k.Eng.RestoreEvent(rev, fn); err != nil {
			return err
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	if !r.Exhausted() {
		return fmt.Errorf("kernel: restore: image has trailing sections the machine did not consume")
	}
	if err := k.CheckInvariants(); err != nil {
		return fmt.Errorf("kernel: restore produced an inconsistent machine: %w", err)
	}
	return nil
}

// RestoreImage is a convenience wrapper: open the image bytes and
// restore, plain or warm.
func (k *Kernel) RestoreImage(img []byte) error {
	r, err := snapshot.OpenReader(img)
	if err != nil {
		return err
	}
	return k.Restore(r)
}

// RestoreImageWarm restores image bytes with a warm tie-break salt.
func (k *Kernel) RestoreImageWarm(img []byte, salt uint64) error {
	r, err := snapshot.OpenReader(img)
	if err != nil {
		return err
	}
	return k.RestoreWarm(r, salt)
}

// resetForRestore clears the freshly booted machine's mutable state so
// the image overwrite starts from a blank slate. It must not use the
// accounting paths (pop, account) — those would book phantom time.
func (k *Kernel) resetForRestore() {
	for _, c := range k.cpus {
		c.stack = nil
		c.cur = nil
		c.lastRan = nil
		c.pendingIRQ = nil
		c.softirqPend = [numSoftirq]float64{}
		c.needResched, c.sliceExpired, c.forceResched = false, false, false
		c.daemonBacklog = 0
		c.softirqHanded = 0
		c.busFactor = 1.0
		c.IRQsHandled, c.SoftirqRuns, c.Preemptions, c.TicksHandled = 0, 0, 0, 0
		c.SoftirqTime = 0
		c.times, c.sampled = CPUTimes{}, CPUTimes{}
		c.localTimer.Raised, c.localTimer.Handled = 0, 0
	}
	for _, t := range k.tasks {
		t.saved, t.call, t.waitOn = nil, nil, nil
	}
	for _, wq := range k.waitqs {
		wq.waiters = nil
	}
	reset := func(l *SpinLock) {
		l.holder = nil
		l.waiters = nil
		l.Acquisitions, l.Contentions = 0, 0
		l.TotalSpin, l.MaxHold = 0, 0
		l.heldAt = 0
		l.heldOnce = false
	}
	reset(k.BKL)
	for _, l := range k.namedLocks {
		reset(l)
	}
	switch s := k.sched.(type) {
	case *o1Scheduler:
		for _, rq := range s.rqs {
			*rq = o1Runqueue{}
		}
	case *legacyScheduler:
		s.run = nil
	}
	k.wheel.jiffies, k.wheel.Added, k.wheel.Fired = 0, 0, 0
	k.wheel.tv1 = [256][]*KTimer{}
	k.wheel.tv = [4][64][]*KTimer{}
	k.wheel.pendingRun = nil
	k.load = loadavg{}
}

func (k *Kernel) readMachine(r *snapshot.Reader, rc *RestoreContext) error {
	r.Section(secMachine)
	rc.hasTrace = r.Bool(1)
	k.next = int(r.I64(2))
	k.rng.SetState(r.U64(3))
	k.shieldProcs = CPUMask(r.U64(4))
	k.shieldIRQs = CPUMask(r.U64(5))
	k.shieldLTimer = CPUMask(r.U64(6))
	k.load.one = r.F64(7)
	k.load.five = r.F64(8)
	k.load.fifteen = r.F64(9)

	k.wheel.jiffies = r.U64(10)
	k.wheel.Added = r.U64(11)
	k.wheel.Fired = r.U64(12)
	nTimers := int(r.U64(13))
	for i := 0; i < nTimers; i++ {
		level := int(r.U64(14))
		idx := int(r.U64(15))
		expires := r.U64(16)
		kind := sim.EventKindNameOf(r.Bytes(17))
		a0, a1, a2 := r.U64(18), r.U64(19), r.U64(20)
		if err := r.Err(); err != nil {
			return err
		}
		fn, err := k.rebuildEvent(rc, kind, a0, a1, a2)
		if err != nil {
			return err
		}
		t := &KTimer{expires: expires, fn: fn, active: true, tag: sim.RegisterEventKind(kind).Tag(a0, a1, a2)}
		switch {
		case level == 0 && idx < 256:
			k.wheel.tv1[idx] = append(k.wheel.tv1[idx], t)
		case level >= 1 && level <= 4 && idx < 64:
			k.wheel.tv[level-1][idx] = append(k.wheel.tv[level-1][idx], t)
		default:
			return fmt.Errorf("kernel: restore: wheel timer bucket (%d,%d) out of range", level, idx)
		}
	}

	nIRQ := int(r.U64(21))
	if nIRQ != len(k.irqs) {
		return fmt.Errorf("kernel: restore: image has %d irq lines, machine has %d", nIRQ, len(k.irqs))
	}
	for _, l := range k.irqs {
		l.affinity = CPUMask(r.U64(22))
		l.rng.SetState(r.U64(23))
		l.rr = int(r.I64(24))
		l.Raised = r.U64(25)
		l.Handled = r.U64(26)
		nPer := int(r.U64(27))
		if nPer != len(l.PerCPU) {
			return fmt.Errorf("kernel: restore: irq %q per-cpu counter length %d != %d", l.Name, nPer, len(l.PerCPU))
		}
		for i := range l.PerCPU {
			l.PerCPU[i] = r.U64(28)
		}
	}
	r.EndSection()
	return r.Err()
}

func (k *Kernel) readTasks(r *snapshot.Reader, rc *RestoreContext) error {
	r.Section(secTasks)
	n := int(r.U64(1))
	if n != len(k.tasks) {
		return fmt.Errorf("kernel: restore: image has %d tasks, machine has %d (construction mismatch)", n, len(k.tasks))
	}
	for _, t := range k.tasks {
		pid := int(r.U64(2))
		name := r.Bytes(3)
		if pid != t.PID || string(name) != t.Name {
			return fmt.Errorf("kernel: restore: image task %s/%d where machine has %v (construction mismatch)", name, pid, t)
		}
		t.state = TaskState(r.U64(4))
		t.cpu = k.cpuByID(r.I64(5))
		t.affinity = CPUMask(r.U64(6))
		t.MemLocked = r.Bool(7)
		t.Nice = int(r.I64(8))
		t.rng.SetState(r.U64(9))
		t.sliceLeft = sim.Duration(r.I64(10))
		t.Switches = r.U64(11)
		t.Migrated = r.U64(12)
		t.RunTime = sim.Duration(r.I64(13))
		t.lastQueue = sim.Time(r.I64(14))
		if wid := r.U64(15); wid != 0 {
			t.waitOn = k.WaitQueueByID(wid)
			if t.waitOn == nil {
				return fmt.Errorf("kernel: restore: task %v waits on unknown queue %d", t, wid)
			}
		}
		behName := r.Bytes(16)
		words := make([]uint64, r.U64(17))
		for i := range words {
			words[i] = r.U64(18)
		}
		if err := r.Err(); err != nil {
			return err
		}
		if len(behName) != 0 {
			sb, ok := t.behavior.(SnapBehavior)
			if !ok {
				return fmt.Errorf("kernel: restore: image task %v has behavior %q but machine behavior %T is not restorable", t, behName, t.behavior)
			}
			if sb.BehaviorName() != string(behName) {
				return fmt.Errorf("kernel: restore: task %v behavior %q != image %q (construction mismatch)", t, sb.BehaviorName(), behName)
			}
			sb.SetBehaviorState(words)
		}
		if r.Bool(19) {
			if err := readCall(r, rc, &t.callBuf); err != nil {
				return err
			}
			t.call = &t.callBuf
		}
		if r.Bool(20) {
			f, err := k.readFrame(r, nil)
			if err != nil {
				return err
			}
			if f.armed {
				return fmt.Errorf("kernel: restore: saved frame for %v claims to be armed", t)
			}
			t.saved = f
		}
	}
	r.EndSection()
	return r.Err()
}

func (k *Kernel) readCPUs(r *snapshot.Reader, rc *RestoreContext) error {
	r.Section(secCPUs)
	n := int(r.U64(17))
	if n != len(k.cpus) {
		return fmt.Errorf("kernel: restore: image has %d cpus, machine has %d", n, len(k.cpus))
	}
	for _, c := range k.cpus {
		c.cur = k.taskByID(r.I64(18))
		c.lastRan = k.taskByID(r.I64(19))
		nPend := int(r.U64(20))
		for i := 0; i < nPend; i++ {
			idx := r.I64(21)
			if idx == -1 {
				c.pendingIRQ = append(c.pendingIRQ, c.localTimer)
			} else if idx >= 0 && int(idx) < len(k.irqs) {
				c.pendingIRQ = append(c.pendingIRQ, k.irqs[idx])
			} else {
				return fmt.Errorf("kernel: restore: cpu%d pending irq index %d out of range", c.ID, idx)
			}
		}
		for i := range c.softirqPend {
			c.softirqPend[i] = r.F64(22)
		}
		c.needResched = r.Bool(23)
		c.sliceExpired = r.Bool(24)
		c.forceResched = r.Bool(25)
		c.daemonBacklog = r.F64(26)
		c.softirqHanded = r.U64(27)
		c.busFactor = r.F64(28)
		c.localTimer.rng.SetState(r.U64(29))
		c.localTimer.Raised = r.U64(30)
		c.localTimer.Handled = r.U64(31)
		c.times = readTimes(r)
		c.sampled = readTimes(r)
		c.IRQsHandled = r.U64(17)
		c.SoftirqRuns = r.U64(18)
		c.SoftirqTime = sim.Duration(r.I64(19))
		c.Preemptions = r.U64(20)
		c.TicksHandled = r.U64(21)
		nStack := int(r.U64(22))
		for i := 0; i < nStack; i++ {
			f, err := k.readFrame(r, c)
			if err != nil {
				return fmt.Errorf("cpu%d frame %d: %w", c.ID, i, err)
			}
			c.stack = append(c.stack, f)
			if f.armed && i != nStack-1 {
				return fmt.Errorf("kernel: restore: cpu%d buried frame %d claims to be armed", c.ID, i)
			}
			if f.kind == frameSpin {
				if rc.spin[c.ID] != nil {
					return fmt.Errorf("kernel: restore: cpu%d has two spin frames", c.ID)
				}
				rc.spin[c.ID] = f
			}
		}
	}
	r.EndSection()
	return r.Err()
}

func (k *Kernel) readLocks(r *snapshot.Reader, rc *RestoreContext) error {
	r.Section(secLocks)
	n := int(r.U64(1))
	for i := 0; i < n; i++ {
		name := r.Bytes(2)
		if err := r.Err(); err != nil {
			return err
		}
		l := k.restoreLock(name)
		l.holder = k.cpuByID(r.I64(3))
		l.heldAt = sim.Time(r.I64(4))
		l.heldOnce = r.Bool(5)
		l.Acquisitions = r.U64(6)
		l.Contentions = r.U64(7)
		l.TotalSpin = sim.Duration(r.I64(8))
		l.MaxHold = sim.Duration(r.I64(9))
		nW := int(r.U64(10))
		for j := 0; j < nW; j++ {
			cpu := int(r.U64(11))
			since := sim.Time(r.I64(12))
			if cpu < 0 || cpu >= len(k.cpus) {
				return fmt.Errorf("kernel: restore: lock %q waiter cpu %d out of range", name, cpu)
			}
			c := k.cpus[cpu]
			f := rc.spin[cpu]
			if f == nil || f.spin != l {
				return fmt.Errorf("kernel: restore: lock %q waiter cpu%d has no matching spin frame", name, cpu)
			}
			l.waiters = append(l.waiters, &lockWaiter{
				cpu:     c,
				since:   since,
				active:  c.spinActiveFn(f),
				granted: c.spinGrantedFn(f),
			})
		}
	}
	r.EndSection()
	return r.Err()
}

func (k *Kernel) readWaitqs(r *snapshot.Reader) error {
	r.Section(secWaitqs)
	n := int(r.U64(1))
	if n != len(k.waitqs) {
		return fmt.Errorf("kernel: restore: image has %d wait queues, machine has %d (construction mismatch)", n, len(k.waitqs))
	}
	for _, wq := range k.waitqs {
		name := r.Bytes(2)
		if string(name) != wq.Name {
			return fmt.Errorf("kernel: restore: wait queue %q where machine has %q (construction mismatch)", name, wq.Name)
		}
		nW := int(r.U64(3))
		for i := 0; i < nW; i++ {
			pid := int(r.U64(4))
			t := k.byPID[pid]
			if t == nil {
				return fmt.Errorf("kernel: restore: wait queue %q waiter pid %d unknown", name, pid)
			}
			wq.waiters = append(wq.waiters, t)
		}
	}
	r.EndSection()
	return r.Err()
}

func (k *Kernel) readSched(r *snapshot.Reader) error {
	r.Section(secSched)
	kind := r.Bytes(1)
	switch s := k.sched.(type) {
	case *o1Scheduler:
		if string(kind) != "o1" {
			return fmt.Errorf("kernel: restore: image scheduler %q, machine runs o1", kind)
		}
		for _, c := range k.cpus {
			nQ := int(r.U64(2))
			for i := 0; i < nQ; i++ {
				pid := int(r.U64(3))
				t := k.byPID[pid]
				if t == nil {
					return fmt.Errorf("kernel: restore: runqueue pid %d unknown", pid)
				}
				s.Enqueue(t, c)
			}
		}
	case *legacyScheduler:
		if string(kind) != "legacy" {
			return fmt.Errorf("kernel: restore: image scheduler %q, machine runs legacy", kind)
		}
		nQ := int(r.U64(2))
		for i := 0; i < nQ; i++ {
			pid := int(r.U64(3))
			cpu := r.I64(4)
			t := k.byPID[pid]
			if t == nil {
				return fmt.Errorf("kernel: restore: runqueue pid %d unknown", pid)
			}
			s.Enqueue(t, k.cpuByID(cpu))
		}
	default:
		return fmt.Errorf("kernel: restore of unknown scheduler %T", k.sched)
	}
	r.EndSection()
	return r.Err()
}

func (k *Kernel) cpuByID(id int64) *CPU {
	if id < 0 || int(id) >= len(k.cpus) {
		return nil
	}
	return k.cpus[id]
}

func (k *Kernel) taskByID(pid int64) *Task {
	if pid < 0 {
		return nil
	}
	return k.byPID[int(pid)]
}

// ownedTimer returns the timer that owns a pending event of one of the
// timer kinds — the machine's global tick, or a CPU's frame-done,
// idle-dispatch or cpu-tick — or nil for every other kind. A frame-done
// event needs an armed top frame.
func (k *Kernel) ownedTimer(rev sim.RestoredEvent) (*sim.Timer, error) {
	kind := sim.RegisterEventKind(rev.Kind)
	if kind == evGlobalTick {
		return &k.globalTimer, nil
	}
	if kind != evFrameDone && kind != evIdleDispatch && kind != evCPUTick {
		return nil, nil
	}
	if rev.A0 >= uint64(len(k.cpus)) {
		return nil, fmt.Errorf("kernel: restore: event %q cpu %d out of range", rev.Kind, rev.A0)
	}
	c := k.cpus[rev.A0]
	switch kind {
	case evFrameDone:
		if f := c.top(); f == nil || !f.armed {
			return nil, fmt.Errorf("kernel: restore: frame-done event for cpu%d with no armed frame", c.ID)
		}
		return &c.doneTimer, nil
	case evIdleDispatch:
		return &c.dispatchTimer, nil
	}
	return &c.tickTimer, nil
}

// rebuildEvent reconstructs a pending event's callback from its kind
// tag: kernel kinds inline, everything else through the registry.
func (k *Kernel) rebuildEvent(rc *RestoreContext, kind string, a0, a1, a2 uint64) (func(), error) {
	switch sim.RegisterEventKind(kind) {
	case evBusResample:
		if a0 >= uint64(len(k.cpus)) {
			return nil, fmt.Errorf("kernel: restore: event %q cpu %d out of range", kind, a0)
		}
		return k.cpus[a0].onBusResample, nil
	case evSleepWake:
		t := k.byPID[int(a0)]
		if t == nil {
			return nil, fmt.Errorf("kernel: restore: sleep-wake event for unknown pid %d", a0)
		}
		return k.sleepWakeFn(t, nil), nil
	case evInvSample:
		period := sim.Duration(a0)
		return func() { k.invSample(period) }, nil
	}
	rb := lookupRebuild(kind)
	if rb == nil {
		return nil, fmt.Errorf("kernel: restore: no rebuilder registered for event kind %q", kind)
	}
	return rb(rc, a0, a1, a2)
}

// RestoredComponent returns the component of type T that a restored
// event of the given kind names by id. Images arrive from outside the
// process, so an id this kernel never registered, or one naming a
// component of another type, is an error rather than a panic.
func RestoredComponent[T SnapComponent](rc *RestoreContext, id uint64, kind string) (T, error) {
	var zero T
	comp, ok := rc.K.Component(id)
	if !ok {
		return zero, fmt.Errorf("kernel: event %s names component %d, but only %d are registered", kind, id, len(rc.K.comps))
	}
	c, ok := comp.(T)
	if !ok {
		return zero, fmt.Errorf("kernel: event %s names component %d, which is a %T", kind, id, comp)
	}
	return c, nil
}
