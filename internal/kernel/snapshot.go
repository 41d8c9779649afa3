package kernel

import (
	"fmt"
	"slices"
	"strings"
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
	// SnapVisit codes the component's section through c, in either
	// direction. Encoding may refuse, with c.Failf before the section
	// opens, when the component holds state that cannot cross the
	// boundary.
	SnapVisit(c *snapshot.Codec)
}

// EventRebuild reconstructs an event callback, on the restoring
// machine k, from its tag arguments.
type EventRebuild func(k *Kernel, a0, a1, a2 uint64) (func(), error)

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

// RegisterComponentRebuild registers the rebuilder for an event kind
// whose A0 is the id of the owning component, of type T: the component
// is resolved (an error when the image names a wrong one) and fn builds
// the callback from it and A1.
func RegisterComponentRebuild[T SnapComponent](kind string, fn func(comp T, a1 uint64) (func(), error)) {
	RegisterEventRebuild(kind, func(k *Kernel, a0, a1, _ uint64) (func(), error) {
		comp, err := RestoredComponent[T](k, a0, kind)
		if err != nil {
			return nil, err
		}
		return fn(comp, a1)
	})
}

func lookupRebuild(kind string) EventRebuild {
	rebuildMu.Lock()
	defer rebuildMu.Unlock()
	return rebuilds[kind]
}

// --- snapshot ---

// Snapshot serialises the whole machine and returns the image bytes:
// engine, machine scalars, tasks, CPU stacks, locks, wait queues,
// scheduler, trace and components. It fails loudly when any piece of
// state cannot cross the boundary (a closure-state behavior, an untagged
// event or timer, an unregistered wait queue or lock): machine state is
// checked before the first byte is written, and a refusal while
// encoding (an untagged event or wheel timer, a component's) discards
// the partial image.
func (k *Kernel) Snapshot() ([]byte, error) {
	if err := k.checkSnapshottable(); err != nil {
		return nil, err
	}
	w := snapshot.NewWriter()
	if _, err := k.visit(w.Codec()); err != nil {
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
	seen := map[string]bool{}
	for _, comp := range k.comps {
		name := comp.SnapName()
		if seen[name] {
			return fmt.Errorf("kernel: snapshot: duplicate component section %q", name)
		}
		seen[name] = true
	}
	return nil
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

// --- sections ---

const (
	secMachine = "kernel.machine"
	secTasks   = "kernel.tasks"
	secCPUs    = "kernel.cpus"
	secLocks   = "kernel.locks"
	secWaitqs  = "kernel.waitqs"
	secSched   = "kernel.sched"
)

// visit codes the whole machine through c: the engine, the kernel
// sections, the trace buffer when one is attached, and one section per
// registered component. Decoding returns the image's pending events,
// which restoreImage re-queues once every section is back.
func (k *Kernel) visit(c *snapshot.Codec) ([]sim.RestoredEvent, error) {
	evs, err := k.Eng.Visit(c)
	if err != nil {
		return nil, err
	}
	k.visitMachine(c)
	k.visitTasks(c)
	k.visitCPUs(c)
	k.visitLocks(c)
	k.visitWaitqs(c)
	k.visitSched(c)
	if k.Trace != nil {
		k.Trace.Visit(c)
	}
	for _, comp := range k.comps {
		comp.SnapVisit(c)
	}
	return evs, c.Err()
}

func (k *Kernel) visitMachine(c *snapshot.Codec) {
	if !c.Section(secMachine) {
		return
	}
	hasTrace := k.Trace != nil
	c.Bool(1, &hasTrace)
	switch {
	case hasTrace && k.Trace == nil:
		c.Failf("kernel: restore: image has a trace buffer but the machine has none attached")
	case !hasTrace && k.Trace != nil:
		c.Failf("kernel: restore: machine has a trace buffer but the image has none")
	}
	snapshot.Int(c, 2, &k.next)
	k.rng.Visit(c, 3)
	snapshot.Uint(c, 4, &k.shieldProcs)
	snapshot.Uint(c, 5, &k.shieldIRQs)
	snapshot.Uint(c, 6, &k.shieldLTimer)
	c.F64(7, &k.load.one)
	c.F64(8, &k.load.five)
	c.F64(9, &k.load.fifteen)
	k.visitWheel(c)
	c.Expect(21, uint64(len(k.irqs)), "kernel: restore: image has %d irq lines, machine has %d")
	for i, l := range k.irqs {
		snapshot.Uint(c, 22, &l.affinity)
		l.rng.Visit(c, 23)
		snapshot.Int(c, 24, &l.rr)
		c.U64(25, &l.Raised)
		c.U64(26, &l.Handled)
		c.Expect(27, uint64(len(l.PerCPU)), "kernel: restore: irq %d per-cpu counter length %d != %d", i)
		for j := range l.PerCPU {
			c.U64(28, &l.PerCPU[j])
		}
	}
	c.End()
}

// visitWheel codes the timer wheel with explicit bucket coordinates, so
// a restore lands every timer back in the exact bucket it occupied —
// including timers a cascade has already migrated, mid-lap (the
// wrap-boundary tests depend on this being positional, not recomputed
// from expiry). Encoding collects the active timers, refusing an
// untagged one; decoding rebuilds each callback from its tag and files
// the timer in its bucket.
func (k *Kernel) visitWheel(c *snapshot.Codec) {
	c.U64(10, &k.wheel.jiffies)
	c.U64(11, &k.wheel.Added)
	c.U64(12, &k.wheel.Fired)
	type slot struct {
		level, idx int
		t          *KTimer
	}
	var timers []slot
	if !c.Decoding() {
		collect := func(level, idx int, bucket []*KTimer) {
			for _, t := range bucket {
				switch {
				case !t.active:
				case t.tag.Kind == 0:
					c.Failf("kernel: snapshot: untagged wheel timer expiring at jiffy %d (use AddTimerTagged)", t.expires)
				default:
					timers = append(timers, slot{level, idx, t})
				}
			}
		}
		for i := range k.wheel.tv1 {
			collect(0, i, k.wheel.tv1[i])
		}
		for l := range k.wheel.tv {
			for i := range k.wheel.tv[l] {
				collect(l+1, i, k.wheel.tv[l][i])
			}
		}
	}
	snapshot.Slice(c, 13, &timers)
	for _, s := range timers {
		if c.Decoding() {
			s.t = &KTimer{active: true}
		}
		snapshot.Uint(c, 14, &s.level)
		snapshot.Uint(c, 15, &s.idx)
		c.U64(16, &s.t.expires)
		s.t.tag.Visit(c, 17)
		if !c.Decoding() || c.Err() != nil {
			continue
		}
		fn, err := k.rebuildEvent(s.t.tag)
		if err != nil {
			c.Failf("%w", err)
			return
		}
		s.t.fn = fn
		switch {
		case s.level == 0 && s.idx < 256:
			k.wheel.tv1[s.idx] = append(k.wheel.tv1[s.idx], s.t)
		case s.level >= 1 && s.level <= 4 && s.idx < 64:
			k.wheel.tv[s.level-1][s.idx] = append(k.wheel.tv[s.level-1][s.idx], s.t)
		default:
			c.Failf("kernel: restore: wheel timer bucket (%d,%d) out of range", s.level, s.idx)
		}
	}
}

func (k *Kernel) visitTasks(c *snapshot.Codec) {
	if !c.Section(secTasks) {
		return
	}
	c.Expect(1, uint64(len(k.tasks)), "kernel: restore: image has %d tasks, machine has %d (construction mismatch)")
	for _, t := range k.tasks {
		c.Expect(2, uint64(t.PID), "kernel: restore: image task pid %[2]d where machine has %[1]v (construction mismatch)", t)
		c.ExpectStr(3, t.Name, "kernel: restore: image task %[2]s where machine has %[1]v (construction mismatch)", t)
		snapshot.Uint(c, 4, &t.state)
		k.visitCPU(c, 5, &t.cpu)
		snapshot.Uint(c, 6, &t.affinity)
		c.Bool(7, &t.MemLocked)
		snapshot.Int(c, 8, &t.Nice)
		t.rng.Visit(c, 9)
		snapshot.Int(c, 10, &t.sliceLeft)
		c.U64(11, &t.Switches)
		c.U64(12, &t.Migrated)
		snapshot.Int(c, 13, &t.RunTime)
		snapshot.Int(c, 14, &t.lastQueue)
		k.VisitWaitQueue(c, 15, &t.waitOn)

		// Behavior state words; a task whose behavior is not a
		// SnapBehavior (an exited one) carries the empty name and none.
		sb, ok := t.behavior.(SnapBehavior)
		var name string
		var words []uint64
		if ok {
			name = sb.BehaviorName()
			if !c.Decoding() {
				words = sb.BehaviorState()
			}
		}
		c.ExpectStr(16, name, "kernel: restore: task %[1]v behavior %[3]q != image %[2]q (construction mismatch)", t)
		snapshot.Slice(c, 17, &words)
		for i := range words {
			c.U64(18, &words[i])
		}
		if ok && c.Decoding() && c.Err() == nil {
			sb.SetBehaviorState(words)
		}

		hasCall := t.call != nil
		c.Bool(19, &hasCall)
		if hasCall {
			if c.Decoding() {
				t.call = &t.callBuf
			}
			k.visitCall(c, t.call)
		}
		hasSaved := t.saved != nil
		c.Bool(20, &hasSaved)
		if hasSaved {
			t.saved = k.visitFrame(c, nil, t.saved)
			if t.saved.armed {
				c.Failf("kernel: restore: saved frame for %v claims to be armed", t)
			}
		}
		if c.Err() != nil {
			return
		}
	}
	c.End()
}

// visitCall codes an in-flight syscall: definition metadata, the
// post-split segment list, and the execution cursor. Tags 1..12 are a
// sub-record namespace (the codec checks sequence, not uniqueness).
// Decoding rebuilds the definition: def.Segments points at the restored
// post-split segments, so the definition stays self-consistent for
// inspection.
func (k *Kernel) visitCall(c *snapshot.Codec, call *syscallCall) {
	var name string
	var flags uint64
	if !c.Decoding() {
		name = call.def.Name
		flags = flagBit(call.def.TakesBKL, 1) | flagBit(call.def.DriverNoBKL, 2) | flagBit(call.def.ReacquireBKLOnBlock, 4) | flagBit(call.heldBKL, 8)
	}
	c.Str(1, &name)
	c.U64(2, &flags)
	snapshot.Uint(c, 3, &call.idx)
	snapshot.Slice(c, 4, &call.segs)
	if c.Decoding() {
		//simlint:allow latbound restore-path reconstruction: segments come from the image, and every one was statically bounded at its original definition site; restore introduces no new lock-hold region
		call.def = &SyscallCall{
			Name:                name,
			TakesBKL:            flags&1 != 0,
			DriverNoBKL:         flags&2 != 0,
			ReacquireBKLOnBlock: flags&4 != 0,
			Segments:            call.segs,
		}
		call.heldBKL, call.split, call.onComplete = flags&8 != 0, call.segs, nil
	}
	for i := range call.segs {
		seg := &call.segs[i]
		segBits := uint64(seg.Kind) | flagBit(seg.IRQsOff, 1<<8) | flagBit(seg.NonPreempt, 1<<9) | flagBit(seg.SchedPoint, 1<<10)
		c.U64(5, &segBits)
		snapshot.Int(c, 6, &seg.D)
		k.visitLock(c, 7, &seg.Lock)
		k.VisitWaitQueue(c, 8, &seg.Wait)
		seg.DoneTag.Visit(c, 9)
		if !c.Decoding() || c.Err() != nil {
			continue
		}
		seg.Kind = SegmentKind(segBits & 0xff)
		seg.IRQsOff, seg.NonPreempt, seg.SchedPoint = segBits&(1<<8) != 0, segBits&(1<<9) != 0, segBits&(1<<10) != 0
		if seg.DoneTag.Kind != 0 {
			fn, err := k.rebuildEvent(seg.DoneTag)
			if err != nil {
				c.Failf("%w", err)
				return
			}
			seg.OnDone = fn
		}
	}
}

// flagBit returns bit when b is set.
func flagBit(b bool, bit uint64) uint64 {
	if b {
		return bit
	}
	return 0
}

// visitFrame codes one execution frame (sub-record tags 1..16) and
// returns it; decoding ignores f and returns a new frame. cpu is the
// owning CPU for stack frames, nil for a task's saved frame. There is
// no continuation to rebuild: frameCont picks it from the restored
// kind, segment and spinWhy, exactly as for a live frame. A decoded
// spin frame is still checked for a continuation it can run.
func (k *Kernel) visitFrame(c *snapshot.Codec, cpu *CPU, f *frame) *frame {
	if c.Decoding() {
		f = &frame{}
	}
	snapshot.Uint(c, 1, &f.kind)
	k.visitTask(c, 2, &f.task)
	segIdx := int64(-1)
	if f.seg != nil {
		segIdx = int64(segIndex(f.task.call, f.seg))
	}
	c.I64(3, &segIdx)
	c.F64(4, &f.workLeft)
	snapshot.Int(c, 5, &f.lastAccrue)
	c.Bool(6, &f.armed)
	snapshot.Slice(c, 7, &f.locks)
	for i := range f.locks {
		k.visitLock(c, 8, &f.locks[i])
	}
	c.Bool(9, &f.irqsOff)
	snapshot.Int(c, 10, &f.began)
	k.visitIRQ(c, 11, cpu, &f.irq)
	k.visitLock(c, 12, &f.spin)
	c.Bool(13, &f.acquired)
	snapshot.Int(c, 14, &f.spinSince)
	c.Bool(15, &f.suspended)
	snapshot.Uint(c, 16, &f.spinWhy)
	if !c.Decoding() || c.Err() != nil {
		return f
	}
	if segIdx >= 0 {
		if f.task == nil || f.task.call == nil || segIdx >= int64(len(f.task.call.segs)) {
			c.Failf("kernel: restore: frame segment index %d has no matching syscall", segIdx)
			return f
		}
		f.seg = &f.task.call.segs[segIdx]
	}
	if slices.Contains(f.locks, nil) {
		c.Failf("kernel: restore: frame holds a lock with no name")
	}
	if cpu == nil && f.kind != frameTask {
		c.Failf("kernel: restore: saved %s frame off-CPU (only task frames are saved)", f.kind)
	}
	if f.kind == frameSpin {
		switch {
		case f.task == nil || f.task.call == nil:
			c.Failf("kernel: restore: spin frame for %v without an in-flight syscall", f.task)
		case f.spinWhy == spinForSeg && f.task.call.idx >= len(f.task.call.segs):
			c.Failf("kernel: restore: spin frame for %v past its segment list", f.task)
		case f.spinWhy != spinForBKL && f.spinWhy != spinForSeg:
			c.Failf("kernel: restore: spin frame with unknown continuation %d", f.spinWhy)
		}
	}
	return f
}

func (k *Kernel) visitCPUs(c *snapshot.Codec) {
	if !c.Section(secCPUs) {
		return
	}
	c.Expect(17, uint64(len(k.cpus)), "kernel: restore: image has %d cpus, machine has %d")
	for _, cpu := range k.cpus {
		k.visitTask(c, 18, &cpu.cur)
		k.visitTask(c, 19, &cpu.lastRan)
		snapshot.Slice(c, 20, &cpu.pendingIRQ)
		for i := range cpu.pendingIRQ {
			k.visitIRQ(c, 21, cpu, &cpu.pendingIRQ[i])
			if cpu.pendingIRQ[i] == nil {
				c.Failf("kernel: restore: cpu%d pending irq %d names no line", cpu.ID, i)
			}
		}
		for i := range cpu.softirqPend {
			c.F64(22, &cpu.softirqPend[i])
		}
		c.Bool(23, &cpu.needResched)
		c.Bool(24, &cpu.sliceExpired)
		c.Bool(25, &cpu.forceResched)
		c.F64(26, &cpu.daemonBacklog)
		c.U64(27, &cpu.softirqHanded)
		c.F64(28, &cpu.busFactor)
		cpu.localTimer.rng.Visit(c, 29)
		c.U64(30, &cpu.localTimer.Raised)
		c.U64(31, &cpu.localTimer.Handled)
		cpu.times.visit(c)
		cpu.sampled.visit(c)
		c.U64(17, &cpu.IRQsHandled)
		c.U64(18, &cpu.SoftirqRuns)
		snapshot.Int(c, 19, &cpu.SoftirqTime)
		c.U64(20, &cpu.Preemptions)
		c.U64(21, &cpu.TicksHandled)
		snapshot.Slice(c, 22, &cpu.stack)
		spins := 0
		for i := range cpu.stack {
			f := k.visitFrame(c, cpu, cpu.stack[i])
			if c.Err() != nil {
				return
			}
			cpu.stack[i] = f
			if f.armed && i != len(cpu.stack)-1 {
				c.Failf("kernel: restore: cpu%d buried frame %d claims to be armed", cpu.ID, i)
			}
			if f.kind == frameSpin {
				if spins++; spins > 1 {
					c.Failf("kernel: restore: cpu%d has two spin frames", cpu.ID)
				}
			}
		}
	}
	c.End()
}

// visit codes the five buckets (tags 12..16).
func (t *CPUTimes) visit(c *snapshot.Codec) {
	snapshot.Int(c, 12, &t.User)
	snapshot.Int(c, 13, &t.System)
	snapshot.Int(c, 14, &t.IRQ)
	snapshot.Int(c, 15, &t.Softirq)
	snapshot.Int(c, 16, &t.Spin)
}

// visitLocks codes the BKL and every named lock, by name order.
// Decoding creates a lock the fresh machine has not made yet, and
// rebuilds each waiter's callbacks from its CPU's restored spin frame.
func (k *Kernel) visitLocks(c *snapshot.Codec) {
	if !c.Section(secLocks) {
		return
	}
	var locks []*SpinLock
	if !c.Decoding() {
		locks = make([]*SpinLock, 0, 1+len(k.namedLocks))
		for _, l := range k.namedLocks {
			locks = append(locks, l)
		}
		slices.SortFunc(locks, func(a, b *SpinLock) int { return strings.Compare(a.Name, b.Name) })
		locks = slices.Insert(locks, 0, k.BKL)
	}
	snapshot.Slice(c, 1, &locks)
	for i := range locks {
		k.visitLock(c, 2, &locks[i])
		l := locks[i]
		if l == nil {
			c.Failf("kernel: restore: lock %d has no name", i)
			return
		}
		k.visitCPU(c, 3, &l.holder)
		snapshot.Int(c, 4, &l.heldAt)
		c.Bool(5, &l.heldOnce)
		c.U64(6, &l.Acquisitions)
		c.U64(7, &l.Contentions)
		snapshot.Int(c, 8, &l.TotalSpin)
		snapshot.Int(c, 9, &l.MaxHold)
		snapshot.Slice(c, 10, &l.waiters)
		for j := range l.waiters {
			lw := l.waiters[j]
			if c.Decoding() {
				lw = &lockWaiter{}
			}
			id := -1
			if lw.cpu != nil {
				id = lw.cpu.ID
			}
			snapshot.Uint(c, 11, &id)
			snapshot.Int(c, 12, &lw.since)
			if !c.Decoding() || c.Err() != nil {
				continue
			}
			if id < 0 || id >= len(k.cpus) {
				c.Failf("kernel: restore: lock %q waiter cpu %d out of range", l.Name, id)
				return
			}
			lw.cpu = k.cpus[id]
			si := slices.IndexFunc(lw.cpu.stack, func(f *frame) bool { return f.kind == frameSpin })
			if si < 0 || lw.cpu.stack[si].spin != l {
				c.Failf("kernel: restore: lock %q waiter cpu%d has no matching spin frame", l.Name, id)
				return
			}
			f := lw.cpu.stack[si]
			lw.active, lw.granted = lw.cpu.spinActiveFn(f), lw.cpu.spinGrantedFn(f)
			l.waiters[j] = lw
		}
	}
	c.End()
}

func (k *Kernel) visitWaitqs(c *snapshot.Codec) {
	if !c.Section(secWaitqs) {
		return
	}
	c.Expect(1, uint64(len(k.waitqs)), "kernel: restore: image has %d wait queues, machine has %d (construction mismatch)")
	for _, wq := range k.waitqs {
		c.ExpectStr(2, wq.Name, "kernel: restore: wait queue %q where machine has %q (construction mismatch)")
		snapshot.Slice(c, 3, &wq.waiters)
		for i := range wq.waiters {
			k.visitPID(c, 4, &wq.waiters[i])
		}
	}
	c.End()
}

// visitSched codes the run queues: per CPU for O(1), one list with each
// task's CPU for the legacy scheduler. Decoding enqueues each task as it
// is read.
func (k *Kernel) visitSched(c *snapshot.Codec) {
	if !c.Section(secSched) {
		return
	}
	switch s := k.sched.(type) {
	case *o1Scheduler:
		c.ExpectStr(1, "o1", "kernel: restore: image scheduler %q, machine runs %s")
		for i, rq := range s.rqs {
			var queued []*Task
			if !c.Decoding() {
				for slot := 0; slot < numSlots; slot++ {
					queued = append(queued, rq.queues[slot]...)
				}
			}
			snapshot.Slice(c, 2, &queued)
			for _, t := range queued {
				k.visitPID(c, 3, &t)
				if c.Decoding() && c.Err() == nil {
					s.Enqueue(t, k.cpus[i])
				}
			}
		}
	case *legacyScheduler:
		c.ExpectStr(1, "legacy", "kernel: restore: image scheduler %q, machine runs %s")
		queued := s.run
		snapshot.Slice(c, 2, &queued)
		for _, t := range queued {
			k.visitPID(c, 3, &t)
			var cpu *CPU
			if t != nil {
				cpu = t.cpu
			}
			k.visitCPU(c, 4, &cpu)
			if c.Decoding() && c.Err() == nil {
				s.Enqueue(t, cpu)
			}
		}
	default:
		c.Failf("kernel: snapshot of unknown scheduler %T", k.sched)
	}
	c.End()
}

// --- reference helpers: pointers cross the boundary as ids ---

// visitTask codes an optional task reference by PID on the zigzag
// wire, -1 for none.
func (k *Kernel) visitTask(c *snapshot.Codec, tag uint8, t **Task) {
	pid := int64(-1)
	if *t != nil {
		pid = int64((*t).PID)
	}
	c.I64(tag, &pid)
	if c.Decoding() {
		*t = nil
		if pid >= 0 {
			k.resolvePID(c, uint64(pid), t)
		}
	}
}

// visitPID codes a required task reference by PID on the uvarint wire.
func (k *Kernel) visitPID(c *snapshot.Codec, tag uint8, t **Task) {
	var pid uint64
	if *t != nil {
		pid = uint64((*t).PID)
	}
	c.U64(tag, &pid)
	if c.Decoding() {
		k.resolvePID(c, pid, t)
	}
}

func (k *Kernel) resolvePID(c *snapshot.Codec, pid uint64, t **Task) {
	if *t = k.byPID[int(pid)]; *t == nil {
		c.Failf("kernel: restore: image references unknown pid %d", pid)
	}
}

// visitCPU codes an optional CPU reference by id on the zigzag wire,
// -1 for none; decoding maps an id the machine lacks to none.
func (k *Kernel) visitCPU(c *snapshot.Codec, tag uint8, cpu **CPU) {
	id := int64(-1)
	if *cpu != nil {
		id = int64((*cpu).ID)
	}
	c.I64(tag, &id)
	if c.Decoding() {
		*cpu = nil
		if id >= 0 && id < int64(len(k.cpus)) {
			*cpu = k.cpus[id]
		}
	}
}

// visitLock codes an optional lock reference by name, "" for none.
// Decoding creates the lock when the fresh machine has not made it yet:
// the snapshotted one may have made it on first use.
func (k *Kernel) visitLock(c *snapshot.Codec, tag uint8, l **SpinLock) {
	name := ""
	if *l != nil {
		name = (*l).Name
	}
	if b := c.Name(tag, name); c.Decoding() {
		*l = nil
		if len(b) != 0 {
			if *l = k.lockNamed(string(b)); *l == nil {
				*l = k.NamedLock(string(b))
			}
		}
	}
}

// VisitWaitQueue codes an optional wait-queue reference by its
// registered id, 0 for none. Devices use it for the queues their
// pending completions wake.
func (k *Kernel) VisitWaitQueue(c *snapshot.Codec, tag uint8, wq **WaitQueue) {
	var id uint64
	if *wq != nil {
		id = (*wq).id
	}
	c.U64(tag, &id)
	if c.Decoding() {
		*wq = nil
		if id != 0 {
			if *wq = k.WaitQueueByID(id); *wq == nil {
				c.Failf("kernel: restore: image references unknown wait queue %d", id)
			}
		}
	}
}

// visitIRQ codes an optional IRQ line by its index in the machine's
// registration order: -1 is the owning CPU's local timer, -2 none.
func (k *Kernel) visitIRQ(c *snapshot.Codec, tag uint8, cpu *CPU, l **IRQLine) {
	idx := int64(-2)
	if *l != nil {
		idx = -1 // the owning CPU's local timer
		if (*l).Num != -1 {
			idx = int64(k.irqIndex(*l))
		}
	}
	c.I64(tag, &idx)
	if !c.Decoding() {
		return
	}
	switch {
	case idx == -2:
		*l = nil
	case idx == -1 && cpu != nil:
		*l = cpu.localTimer
	case idx == -1:
		c.Failf("kernel: restore: local-timer ISR frame without a CPU")
	case idx >= 0 && idx < int64(len(k.irqs)):
		*l = k.irqs[idx]
	default:
		c.Failf("kernel: restore: image references unknown irq %d", idx)
	}
}

// --- restore ---

// RestoreImage overwrites this freshly constructed, started machine
// with the snapshot image img. The machine must have been built from the
// same configuration and seed (construction determinism is what lets
// pointers be rebuilt from ids); RestoreImage validates what it can and
// fails loudly on any mismatch.
func (k *Kernel) RestoreImage(img []byte) error {
	return k.restoreImage(img, nil)
}

// RestoreImageWarm is RestoreImage with a different tie-break salt
// installed in the legal window between draining the boot events and
// re-queueing the snapshot's pending events. Warm-started sweep replicas
// use this to explore schedule perturbations without replaying boot.
func (k *Kernel) RestoreImageWarm(img []byte, salt uint64) error {
	return k.restoreImage(img, &salt)
}

func (k *Kernel) restoreImage(img []byte, warmSalt *uint64) error {
	if !k.started {
		return fmt.Errorf("kernel: restore into a machine that was not started")
	}
	r, err := snapshot.OpenReader(img)
	if err != nil {
		return err
	}
	k.resetForRestore()
	evs, err := k.visit(r.Codec())
	if err != nil {
		return err
	}
	if warmSalt != nil {
		k.Eng.PerturbTiebreaks(*warmSalt)
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
		fn, err := k.rebuildEvent(sim.RegisterEventKind(rev.Kind).Tag(rev.A0, rev.A1, rev.A2))
		if err != nil {
			return err
		}
		if err := k.Eng.RestoreEvent(rev, fn); err != nil {
			return err
		}
	}
	if !r.Exhausted() {
		return fmt.Errorf("kernel: restore: image has trailing sections the machine did not consume")
	}
	if err := k.CheckInvariants(); err != nil {
		return fmt.Errorf("kernel: restore produced an inconsistent machine: %w", err)
	}
	return nil
}

// resetForRestore clears the freshly booted machine's mutable state
// that the image appends to or sets only when present, so the overwrite
// starts from a blank slate. It must not use the accounting paths (pop,
// account) — those would book phantom time.
func (k *Kernel) resetForRestore() {
	for _, t := range k.tasks {
		t.saved, t.call = nil, nil
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
	k.wheel.tv1 = [256][]*KTimer{}
	k.wheel.tv = [4][64][]*KTimer{}
	k.wheel.pendingRun = nil
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

// rebuildEvent reconstructs a pending event's callback from its tag:
// kernel kinds inline, everything else through the registry.
func (k *Kernel) rebuildEvent(tag sim.EventTag) (func(), error) {
	switch tag.Kind {
	case evBusResample:
		if tag.A0 >= uint64(len(k.cpus)) {
			return nil, fmt.Errorf("kernel: restore: event %q cpu %d out of range", tag.Kind, tag.A0)
		}
		return k.cpus[tag.A0].onBusResample, nil
	case evSleepWake:
		t := k.byPID[int(tag.A0)]
		if t == nil {
			return nil, fmt.Errorf("kernel: restore: sleep-wake event for unknown pid %d", tag.A0)
		}
		return k.sleepWakeFn(t, nil), nil
	case evInvSample:
		period := sim.Duration(tag.A0)
		return func() { k.invSample(period) }, nil
	}
	rb := lookupRebuild(tag.Kind.String())
	if rb == nil {
		return nil, fmt.Errorf("kernel: restore: no rebuilder registered for event kind %q", tag.Kind)
	}
	return rb(k, tag.A0, tag.A1, tag.A2)
}

// RestoredComponent returns the component of type T that a restored
// event of the given kind names by id. Images arrive from outside the
// process, so an id this kernel never registered, or one naming a
// component of another type, is an error rather than a panic.
func RestoredComponent[T SnapComponent](k *Kernel, id uint64, kind string) (T, error) {
	var zero T
	comp, ok := k.Component(id)
	if !ok {
		return zero, fmt.Errorf("kernel: event %s names component %d, but only %d are registered", kind, id, len(k.comps))
	}
	c, ok := comp.(T)
	if !ok {
		return zero, fmt.Errorf("kernel: event %s names component %d, which is a %T", kind, id, comp)
	}
	return c, nil
}
