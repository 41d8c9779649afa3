package kernel

import (
	"fmt"

	"repro/internal/sim"
)

// frameKind classifies what a CPU is executing.
type frameKind uint8

const (
	// frameTask is a task executing user code (seg == nil) or a kernel
	// syscall region (seg != nil).
	frameTask frameKind = iota
	// frameISR is a hardware interrupt handler.
	frameISR
	// frameSoftirq is bottom-half processing.
	frameSoftirq
	// frameSpin is a CPU busy-waiting on a spinlock.
	frameSpin
	// frameSwitch is scheduler + context switch overhead.
	frameSwitch
)

func (k frameKind) String() string {
	switch k {
	case frameTask:
		return "task"
	case frameISR:
		return "isr"
	case frameSoftirq:
		return "softirq"
	case frameSpin:
		return "spin"
	default:
		return "switch"
	}
}

// frame is one level of a CPU's execution stack. Only the top frame makes
// progress; frames below are frozen where they were interrupted. Work is
// accounted in nanoseconds-at-full-speed and accrues at the CPU's current
// rate (hyperthread and bus contention slow it down).
type frame struct {
	kind frameKind
	task *Task    // frameTask: the task executing
	seg  *Segment // frameTask: current kernel region, nil in user mode

	workLeft   float64 // remaining work at rate 1.0, in ns
	lastAccrue sim.Time
	// armed marks the frame whose completion its CPU's doneTimer is
	// timing; only a CPU's top frame can be armed.
	armed bool

	locks   []*SpinLock // spinlocks held by this frame
	irqsOff bool        // local interrupts disabled

	irq *IRQLine // frameISR: the line being serviced

	spin      *SpinLock // frameSpin: the lock being waited for
	acquired  bool      // frameSpin: lock granted, convert when on top
	spinSince sim.Time  // frameSpin: when the spin began
	suspended bool      // frameSpin: buried under interrupt frames
	// spinWhy records which syscall-engine continuation runs once a
	// spin frame's lock is held (spinForBKL or spinForSeg).
	spinWhy uint8

	// began is when a softirq pass started (frameSoftirq), for the
	// completion-time statistics. Serialisable, unlike a captured local.
	began sim.Time

	// complete is the action's OnComplete for user-mode compute frames
	// (frameTask, seg == nil). Kept on the frame so snapshots can verify
	// it is nil (ActionCompleter behaviors need no closure; anything else
	// fails the snapshot loudly).
	complete func(now sim.Time)

	// pooled marks a frame sitting on the kernel's free list.
	pooled bool
}

// Spin-frame continuation discriminators (frame.spinWhy).
const (
	spinForBKL = 1 // acquiring the BKL at syscall entry/resume
	spinForSeg = 2 // acquiring a segment's lock before pushing its frame
)

// CPU is one logical processor.
type CPU struct {
	ID   int
	Phys int // physical package; HT siblings share one
	// Sibling is the hyperthread sharing this CPU's execution unit.
	Sibling *CPU

	kern  *Kernel
	stack []*frame

	// cur is the task whose context is on this CPU (running or mid-
	// switch); nil when idle or when only interrupt frames are stacked.
	cur     *Task
	lastRan *Task

	pendingIRQ  []*IRQLine
	softirqPend [numSoftirq]float64

	needResched  bool
	sliceExpired bool
	forceResched bool

	// ksoftirqd state (SoftirqDaemon kernels): when a bottom-half pass
	// overflows its budget, remaining work is handed to the per-CPU
	// daemon task instead of being retried in interrupt context.
	ksoftirqd     *Task
	softirqWq     *WaitQueue
	daemonBacklog float64
	softirqHanded uint64

	busFactor float64

	// The CPU's owned events, bound once in newCPU and re-armed in
	// place: the top frame's completion ("k.frame-done"), the idle-exit
	// dispatch ("k.idle-dispatch") and the local timer tick
	// ("k.cpu-tick"). Each has at most one occurrence pending.
	doneTimer     sim.Timer
	dispatchTimer sim.Timer
	tickTimer     sim.Timer
	localTimer    *IRQLine

	// onBusResample is busResample, bound once in newCPU: scheduling a
	// method value would allocate a fresh closure on every arm.
	onBusResample func()

	// Statistics.
	IRQsHandled  uint64
	SoftirqRuns  uint64
	SoftirqTime  sim.Duration
	Preemptions  uint64
	TicksHandled uint64

	// Execution time accounting (see accounting.go).
	times   CPUTimes
	sampled CPUTimes
}

func newCPU(k *Kernel, id int) *CPU {
	c := &CPU{ID: id, kern: k, busFactor: 1.0}
	c.localTimer = &IRQLine{
		Num:      -1,
		Name:     fmt.Sprintf("local-timer-%d", id),
		kern:     k,
		affinity: MaskOf(id),
		Fast:     true,
		rng:      k.rng.Fork(),
	}
	tick := k.Cfg.scale(k.Cfg.Timing.TickHandler)
	c.localTimer.HandlerWork = func(r *sim.RNG) sim.Duration { return r.Jitter(tick, 0.25) }
	c.localTimer.OnHandle = func(cpu *CPU) { cpu.timerTick() }
	tag := uint64(id)
	c.doneTimer.Init(evFrameDone.Tag(tag, 0, 0), false, c.frameDone)
	// Pinned: see kick for the idle-exit arbitration it stands in for.
	c.dispatchTimer.Init(evIdleDispatch.Tag(tag, 0, 0), true, c.idleDispatch)
	// Pinned: see startLocalTimer for the local-APIC-before-PIT order.
	c.tickTimer.Init(evCPUTick.Tag(tag, 0, 0), true, c.tick)
	c.onBusResample = c.busResample
	return c
}

// Cur returns the task currently owning the CPU (possibly preempted by
// interrupt frames), or nil.
func (c *CPU) Cur() *Task { return c.cur }

// Idle reports whether the CPU has nothing stacked and no current task.
func (c *CPU) Idle() bool { return c.cur == nil && len(c.stack) == 0 }

func (c *CPU) top() *frame {
	if len(c.stack) == 0 {
		return nil
	}
	return c.stack[len(c.stack)-1]
}

func (c *CPU) busy() bool { return len(c.stack) > 0 }

// rate is the execution speed of the top frame: 1.0 nominal, scaled down
// by bus contention and by hyperthread sibling activity (§5 of the paper).
func (c *CPU) rate() float64 {
	r := c.busFactor
	if c.Sibling != nil && c.Sibling.busy() {
		r *= c.kern.Cfg.Timing.HTSlowdown
	}
	return r
}

// --- frame stack mechanics ---

// getFrame hands out a zeroed frame, recycled from the kernel's free
// list when one is available. A free-list frame that is not marked
// pooled was reused after putFrame released it; handing it out again
// would give two owners the same storage, so that panics.
//
//simlint:hotpath
func (k *Kernel) getFrame() *frame {
	if n := len(k.frames); n > 0 {
		f := k.frames[n-1]
		k.frames[n-1] = nil
		k.frames = k.frames[:n-1]
		if !f.pooled {
			panic(fmt.Sprintf("kernel: frame free list holds a live %s frame", f.kind))
		}
		f.pooled = false
		return f
	}
	//simlint:allow hotalloc free-list miss is the cold path; steady state recycles finished frames
	return &frame{}
}

// putFrame returns a finished frame to the free list, keeping its locks
// capacity. Only finishTop calls it, after the continuation has run:
// spin frames (held by lockWaiter closures) and preempted frames parked
// in t.saved never get here. Putting a frame twice panics.
//
//simlint:hotpath
func (k *Kernel) putFrame(f *frame) {
	if f.pooled {
		panic(fmt.Sprintf("kernel: double free of %s frame", f.kind))
	}
	if f.armed {
		panic(fmt.Sprintf("kernel: free of armed %s frame", f.kind))
	}
	clear(f.locks)
	*f = frame{locks: f.locks[:0], pooled: true}
	//simlint:allow hotalloc free-list growth is amortized; put reuses capacity at steady state
	k.frames = append(k.frames, f)
}

// armTop schedules the completion event for the top frame at the current
// rate. Spin frames are never armed: they make no progress by themselves,
// but a buried spin that surfaces resumes its wall-clock accounting.
//
//simlint:hotpath
func (c *CPU) armTop() {
	f := c.top()
	if f == nil {
		return
	}
	if f.kind == frameSpin {
		if f.suspended {
			f.lastAccrue = c.kern.Now()
			f.suspended = false
		}
		return
	}
	if f.armed {
		return
	}
	c.armFrame(f)
}

// armFrame (re-)arms the CPU's doneTimer for f, the top frame, at the
// current rate. Re-arming an armed frame moves its completion in place.
//
//simlint:hotpath
func (c *CPU) armFrame(f *frame) {
	if f.workLeft < 0 {
		f.workLeft = 0
	}
	d := sim.Duration(f.workLeft / c.rate())
	if float64(d)*c.rate() < f.workLeft {
		d++ // ceil so work is never under-charged
	}
	now := c.kern.Now()
	f.lastAccrue = now
	f.armed = true
	c.kern.Eng.ArmTimer(&c.doneTimer, now.Add(d))
}

// disarmFrame stops f's completion: f is no longer armed.
//
//simlint:hotpath
func (c *CPU) disarmFrame(f *frame) {
	c.kern.Eng.DisarmTimer(&c.doneTimer)
	f.armed = false
}

// frameDone is the doneTimer body. The armed frame is always the top of
// its CPU's stack (push suspends the old top, pop disarms), which is
// also how restore finds the frame a snapshotted "k.frame-done" event
// belongs to.
func (c *CPU) frameDone() {
	f := c.top()
	f.armed = false
	f.workLeft = 0
	c.account(f, c.kern.Now().Sub(f.lastAccrue))
	c.finishTop(f)
}

// suspendTop pauses the top frame: accrue progress, disarm its timer.
// Spin frames have no work to accrue but their wall time is accounted.
//
//simlint:hotpath
func (c *CPU) suspendTop() {
	f := c.top()
	if f == nil {
		return
	}
	now := c.kern.Now()
	if f.kind == frameSpin {
		if !f.suspended {
			c.account(f, now.Sub(f.lastAccrue))
			f.suspended = true
		}
		return
	}
	if !f.armed {
		return
	}
	elapsed := float64(now.Sub(f.lastAccrue))
	f.workLeft -= elapsed * c.rate()
	if f.workLeft < 0 {
		f.workLeft = 0
	}
	c.account(f, now.Sub(f.lastAccrue))
	f.lastAccrue = now
	c.disarmFrame(f)
}

// rateChangedFrom re-accrues the top frame's progress at the rate that was
// in effect until now (oldRate) and re-arms it at the current rate. Every
// rate transition must go through this so elapsed time is never charged at
// the wrong speed.
//
//simlint:hotpath
func (c *CPU) rateChangedFrom(oldRate float64) {
	f := c.top()
	if f == nil || !f.armed {
		return
	}
	now := c.kern.Now()
	f.workLeft -= float64(now.Sub(f.lastAccrue)) * oldRate
	if f.workLeft < 0 {
		f.workLeft = 0
	}
	c.account(f, now.Sub(f.lastAccrue))
	c.armFrame(f)
}

// push pauses the current top and stacks a new frame.
//
//simlint:hotpath
func (c *CPU) push(f *frame) {
	var sibOld float64
	notify := !c.busy() && c.Sibling != nil
	if notify {
		sibOld = c.Sibling.rate()
	}
	c.suspendTop()
	if f.kind == frameSpin {
		f.lastAccrue = c.kern.Now()
	}
	//simlint:allow hotalloc stack growth is amortized; steady state reuses its capacity
	c.stack = append(c.stack, f)
	c.armTop()
	if notify {
		c.Sibling.rateChangedFrom(sibOld)
	}
}

// pop removes the top frame (must be f).
//
//simlint:hotpath
func (c *CPU) pop(f *frame) {
	if c.top() != f {
		panic("kernel: pop of non-top frame on cpu " + fmt.Sprint(c.ID))
	}
	var sibOld float64
	notify := len(c.stack) == 1 && c.Sibling != nil
	if notify {
		sibOld = c.Sibling.rate()
	}
	if f.armed {
		c.disarmFrame(f)
	}
	if f.kind == frameSpin && !f.suspended {
		c.account(f, c.kern.Now().Sub(f.lastAccrue))
		f.suspended = true
	}
	c.stack = c.stack[:len(c.stack)-1]
	if notify {
		c.Sibling.rateChangedFrom(sibOld)
	}
}

// finishTop handles a frame's work completing: pop it, run its
// continuation, and recycle it. Spin frames never get here (they are
// never armed), and a preempted task frame parked in t.saved left the
// stack through preemptTop, so neither reaches the free list early.
func (c *CPU) finishTop(f *frame) {
	c.pop(f)
	c.frameCont(f)
	c.kern.putFrame(f)
	c.settle()
}

// frameCont runs a popped frame's continuation, picked by its kind. It
// is the one place that maps a frame to what happens when it finishes,
// which is why a snapshotted frame needs no rebuilt closure: its
// serialised kind, segment and spinWhy already name the continuation.
// Task frames resolve the CPU at completion time (t.cpu), because a
// preempted frame can resume on another CPU.
func (c *CPU) frameCont(f *frame) {
	t := f.task
	switch f.kind {
	case frameTask:
		if f.seg != nil {
			t.cpu.segDone(t, f.seg, f)
			return
		}
		cur := t.cpu
		actionDone(t, ActCompute, f.complete, cur.kern.Now())
		cur.nextAction(t)
	case frameISR:
		c.isrDone(f.irq)
	case frameSoftirq:
		c.softirqDone(f.began)
	case frameSwitch:
		c.beginTask(t)
	case frameSpin:
		c.lockAcquired(t, f.spinWhy)
	}
}

// addWorkTop charges extra work to the currently executing context (e.g.
// try_to_wake_up cost on the waker's CPU). No-op when idle.
func (c *CPU) addWorkTop(d sim.Duration) {
	f := c.top()
	if f == nil || d <= 0 {
		return
	}
	if f.armed {
		c.suspendTop()
		f.workLeft += float64(d)
		c.armTop()
		return
	}
	f.workLeft += float64(d)
}

// settle drives the CPU to its next stable state. It is called after any
// frame pop or state change and implements the kernel's priority order:
// pending hardware interrupts, then softirqs (irq_exit), then preemption,
// then resuming whatever was interrupted, then the scheduler.
func (c *CPU) settle() {
	for {
		if c.deliverPendingIRQ() {
			return
		}
		if c.maybeRunSoftirq() {
			return
		}
		f := c.top()
		if f != nil && f.kind == frameSpin && f.acquired {
			// A spinlock we were waiting for was granted while this
			// frame was buried (or just now): convert to execution.
			c.pop(f)
			c.frameCont(f)
			continue
		}
		if f != nil && f.kind == frameSpin && !f.acquired &&
			f.spin.retryAcquire(c, c.kern.Now(), f.spinSince) {
			// The spin was preempted by interrupt work and the lock was
			// freed meanwhile; the surfacing test-and-set wins it.
			c.kern.Trace.LockAcquire(c.kern.Now(), c.ID, f.spin.Name, c.kern.Now().Sub(f.spinSince))
			c.pop(f)
			c.frameCont(f)
			continue
		}
		if c.shouldPreempt() && c.canPreemptTop() {
			c.preemptTop()
			return
		}
		if f != nil {
			c.armTop()
			return
		}
		c.dispatch()
		return
	}
}

// MaxISRNest caps interrupt nesting depth (stack exhaustion guard, as
// real kernels effectively have via masked sources).
const MaxISRNest = 3

// isrDepth counts ISR frames on the stack.
func (c *CPU) isrDepth() int {
	n := 0
	for _, f := range c.stack {
		if f.kind == frameISR {
			n++
		}
	}
	return n
}

// lineActive reports whether an occurrence of l is being serviced on
// this CPU (the line is masked until its handler completes).
func (c *CPU) lineActive(l *IRQLine) bool {
	for _, f := range c.stack {
		if f.kind == frameISR && f.irq == l {
			return true
		}
	}
	return false
}

// irqsDisabled reports whether a hardware interrupt can be taken now.
// Fast (SA_INTERRUPT) handlers and explicit irqs-off regions disable
// interrupts; slow handlers run with interrupts enabled and can be
// nested by other lines, 2.4 semantics.
func (c *CPU) irqsDisabled() bool {
	f := c.top()
	if f == nil {
		return false
	}
	if f.kind == frameISR {
		return f.irq.Fast || c.isrDepth() >= MaxISRNest
	}
	return f.irqsOff
}

// raiseIRQ delivers (or pends) a hardware interrupt on this CPU.
func (c *CPU) raiseIRQ(l *IRQLine) {
	if c.irqsDisabled() || c.lineActive(l) {
		c.pendingIRQ = append(c.pendingIRQ, l)
		return
	}
	c.pushISR(l)
}

func (c *CPU) deliverPendingIRQ() bool {
	if len(c.pendingIRQ) == 0 || c.irqsDisabled() {
		return false
	}
	for i, l := range c.pendingIRQ {
		if c.lineActive(l) {
			continue // line still masked; try the next pended one
		}
		c.pendingIRQ = append(c.pendingIRQ[:i], c.pendingIRQ[i+1:]...)
		c.pushISR(l)
		return true
	}
	return false
}

func (c *CPU) pushISR(l *IRQLine) {
	t := &c.kern.Cfg.Timing
	overhead := c.kern.Cfg.scale(t.IRQEntry + t.IRQExit) //simlint:region irq-off isr-overhead
	work := overhead + l.HandlerWork(l.rng)              //simlint:region irq-off isr-dispatch
	c.kern.Trace.IRQEnter(c.kern.Now(), c.ID, l.Num, l.Name)
	f := c.kern.getFrame()
	f.kind, f.irq, f.workLeft = frameISR, l, float64(work)
	c.push(f)
}

// isrDone is an ISR frame's completion: handler bookkeeping, device
// side effects, and the cache penalty charged to the interrupted
// context.
func (c *CPU) isrDone(l *IRQLine) {
	l.Handled++
	if c.ID < len(l.PerCPU) {
		l.PerCPU[c.ID]++
	}
	c.IRQsHandled++
	if l.OnHandle != nil {
		l.OnHandle(c)
	}
	// Cache pollution: the interrupted context re-fetches lines the
	// handler evicted.
	if b := c.top(); b != nil {
		penalty := l.rng.Jitter(c.kern.Cfg.scale(c.kern.Cfg.Timing.ISRCachePenalty), 0.5) //simlint:region overhead isr-cache-penalty
		b.workLeft += float64(penalty)
	}
	c.kern.Trace.IRQExit(c.kern.Now(), c.ID, l.Num, l.Name)
}

// --- softirqs (bottom halves) ---

// RaiseSoftirq queues bottom-half work on this CPU; it runs at the next
// interrupt exit (or later, if deferred by the §6.2 fix).
func (c *CPU) RaiseSoftirq(vec SoftirqVec, work sim.Duration) {
	if work <= 0 {
		return
	}
	c.softirqPend[vec] += float64(work)
}

// SoftirqPending returns the total queued bottom-half work.
func (c *CPU) SoftirqPending() sim.Duration {
	var total float64
	for _, w := range c.softirqPend {
		total += w
	}
	return sim.Duration(total)
}

// holdsAnyLock reports whether any context on this CPU's stack holds a
// spinlock (including the BKL via the current syscall, and a spin frame
// that has been granted its lock but not yet surfaced — from the lock's
// point of view that CPU already owns it).
func (c *CPU) holdsAnyLock() bool {
	for _, f := range c.stack {
		if len(f.locks) > 0 {
			return true
		}
		if f.kind == frameSpin && f.acquired {
			return true
		}
	}
	if c.cur != nil && c.cur.call != nil && c.cur.call.heldBKL {
		return true
	}
	return false
}

func (c *CPU) maybeRunSoftirq() bool {
	total := c.SoftirqPending()
	if total == 0 {
		return false
	}
	// Softirqs do not nest, and never run over an ISR (they run at its
	// exit, which is a settle after the pop).
	for _, f := range c.stack {
		if f.kind == frameSoftirq {
			return false
		}
	}
	if f := c.top(); f != nil && f.kind == frameISR {
		return false
	}
	// §6.2: the RedHawk fix forbids bottom halves from preempting a
	// context that holds a spinlock; stock kernels allow it, which is
	// how several-millisecond lock holds happen.
	if c.kern.Cfg.FixSpinlockBH && c.holdsAnyLock() {
		return false
	}
	budget := float64(c.kern.Cfg.scale(c.kern.Cfg.Timing.SoftirqMax)) //simlint:region softirq softirq-budget
	take := total
	if float64(take) > budget {
		take = sim.Duration(budget)
	}
	// Drain vectors in order up to the budget.
	left := float64(take)
	for v := range c.softirqPend {
		if left <= 0 {
			break
		}
		d := c.softirqPend[v]
		if d > left {
			d = left
		}
		c.softirqPend[v] -= d
		left -= d
	}
	start := c.kern.Now()
	c.kern.Trace.SoftirqEnter(start, c.ID, take)
	f := c.kern.getFrame()
	f.kind, f.workLeft, f.began = frameSoftirq, float64(take), start
	c.push(f)
	return true
}

// softirqDone is a softirq frame's completion: pass statistics and the
// SoftirqDaemon handoff of leftover work to ksoftirqd. began is the
// pass start time, kept on the frame so it survives snapshots.
func (c *CPU) softirqDone(began sim.Time) {
	c.SoftirqRuns++
	c.SoftirqTime += c.kern.Now().Sub(began)
	c.kern.Trace.SoftirqExit(c.kern.Now(), c.ID, c.kern.Now().Sub(began))
	// Budget exhausted with work left over: stock kernels retry in
	// interrupt context (the next settle runs another pass);
	// SoftirqDaemon kernels hand the REMAINDER to ksoftirqd, which
	// competes as an ordinary task (§1's softirq changes). New
	// raises still run at interrupt exit as usual.
	if c.kern.Cfg.SoftirqDaemon && c.ksoftirqd != nil {
		var rest float64
		for v := range c.softirqPend {
			rest += c.softirqPend[v]
			c.softirqPend[v] = 0
		}
		if rest > 0 {
			c.daemonBacklog += rest
			c.softirqHanded++
			c.kern.WakeAll(c.softirqWq, nil)
		}
	}
}

// ksoftirqdBehavior drains this CPU's deferred softirq backlog in task
// context in bounded, preemptible chunks, then sleeps until the next
// overflow. It is a named struct (not a closure) so its two words of
// state — whether a run chunk is in flight and when it started — survive
// snapshots, and the completion statistics go through ActionDone instead
// of a captured OnComplete.
type ksoftirqdBehavior struct {
	c        *CPU
	running  bool
	runStart sim.Time
}

// Next implements Behavior.
func (b *ksoftirqdBehavior) Next(t *Task) Action {
	c := b.c
	if c.daemonBacklog <= 0 {
		c.daemonBacklog = 0
		return Syscall(&SyscallCall{
			Name:     "ksoftirqd-wait",
			Segments: []Segment{{Kind: SegBlock, Wait: c.softirqWq}},
		})
	}
	chunk := sim.Duration(c.daemonBacklog)
	max := c.kern.Cfg.scale(500 * sim.Microsecond) //simlint:region run ksoftirqd-chunk
	if chunk > max {
		chunk = max
	}
	// Consume the work up front; the segment performs it.
	c.daemonBacklog -= float64(chunk)
	b.running = true
	b.runStart = c.kern.Now()
	return Syscall(&SyscallCall{
		Name:     "ksoftirqd-run",
		Segments: []Segment{{Kind: SegWork, D: chunk}},
	})
}

// ActionDone implements ActionCompleter: account a finished run chunk.
// The wait syscall's completion also lands here, filtered by running.
func (b *ksoftirqdBehavior) ActionDone(t *Task, kind ActionKind, now sim.Time) {
	if kind != ActSyscall || !b.running {
		return
	}
	b.running = false
	b.c.SoftirqRuns++
	b.c.SoftirqTime += now.Sub(b.runStart)
}

// BehaviorName implements SnapBehavior.
func (b *ksoftirqdBehavior) BehaviorName() string { return fmt.Sprintf("k.ksoftirqd/%d", b.c.ID) }

// BehaviorState implements SnapBehavior.
func (b *ksoftirqdBehavior) BehaviorState() []uint64 {
	running := uint64(0)
	if b.running {
		running = 1
	}
	return []uint64{running, uint64(b.runStart)}
}

// SetBehaviorState implements SnapBehavior.
func (b *ksoftirqdBehavior) SetBehaviorState(words []uint64) {
	b.running = words[0] != 0
	b.runStart = sim.Time(words[1])
}

// --- preemption and dispatch ---

// shouldPreempt decides whether the current task must yield the CPU.
func (c *CPU) shouldPreempt() bool {
	t := c.cur
	if t == nil {
		return false
	}
	if c.forceResched {
		return true
	}
	if !c.needResched {
		return false
	}
	next := c.kern.sched.Peek(c)
	if next == nil {
		c.needResched = false
		c.sliceExpired = false
		return false
	}
	if next.rtEffective() > t.rtEffective() {
		return true
	}
	if c.sliceExpired && t.Policy != SchedFIFO && next.rtEffective() >= t.rtEffective() {
		return true
	}
	return false
}

// canPreemptTop reports whether the top frame may be preempted right now.
// User mode is always preemptible; kernel mode only with the preemption
// patch and only outside critical sections (§6 of the paper).
func (c *CPU) canPreemptTop() bool {
	f := c.top()
	if f == nil || f.kind != frameTask {
		return false
	}
	if f.seg == nil {
		return true // user mode
	}
	if !c.kern.Cfg.Preemptible {
		return false
	}
	if len(f.locks) > 0 || f.seg.NonPreempt || f.irqsOff {
		return false
	}
	if f.task.call != nil && f.task.call.heldBKL {
		return false
	}
	return true
}

// preemptTop removes the running task's frame and reschedules.
func (c *CPU) preemptTop() {
	f := c.top()
	if f == nil || f.kind != frameTask {
		panic("kernel: preemptTop on non-task frame")
	}
	c.suspendTop()
	c.pop(f)
	t := f.task
	// Save the frame even at workLeft == 0 (preemption tying with
	// completion): resuming arms a zero-length remainder whose
	// continuation still runs, so the action is never silently dropped
	// or redone. A parked frame stays off the free list until then.
	t.saved = f
	c.Preemptions++
	c.kern.Trace.Preempt(c.kern.Now(), c.ID, t.PID, t.Name, false)
	c.requeuePreempted(t)
	c.dispatch()
}

// preemptBetween reschedules the current task at an action or segment
// boundary (no active frame).
func (c *CPU) preemptBetween(t *Task) {
	c.Preemptions++
	c.kern.Trace.Preempt(c.kern.Now(), c.ID, t.PID, t.Name, true)
	c.requeuePreempted(t)
	c.dispatch()
}

// requeuePreempted puts a preempted task back on a runqueue, migrating it
// if this CPU is no longer in its effective affinity (shield enable).
func (c *CPU) requeuePreempted(t *Task) {
	t.state = TaskRunnable
	t.lastQueue = c.kern.Now()
	c.cur = nil
	c.lastRan = t
	c.forceResched = false
	eff := t.EffectiveAffinity()
	if eff != 0 && !eff.Has(c.ID) {
		t.Migrated++
		t.cpu = nil
		c.kern.Trace.Migrate(c.kern.Now(), c.ID, t.PID, t.Name, c.ID, -1)
		c.kern.makeRunnable(t, nil)
		return
	}
	c.kern.sched.Enqueue(t, c)
}

// requestMigration asks a CPU to shed its running task at the next legal
// preemption point (shield enable, affinity change).
func (c *CPU) requestMigration(t *Task) {
	if c.cur != t {
		return
	}
	c.forceResched = true
	if c.canPreemptTop() {
		c.suspendTop()
		c.settle()
	}
}

// kick responds to a task becoming runnable on this CPU.
func (c *CPU) kick(t *Task) {
	if c.Idle() {
		if !c.dispatchTimer.Armed() {
			// Pinned (dispatchTimer): when several idle CPUs are kicked
			// at the same instant, their idle-exit dispatches race for
			// the shared runqueue; the model arbitrates that bus
			// contention in kick order (FIFO), the way a fixed-priority
			// memory bus arbiter would. See "Tie-break determinism" in
			// DESIGN.md §8.
			delay := c.kern.Cfg.scale(c.kern.Cfg.Timing.IdleExit) //simlint:region sched idle-exit
			c.kern.Eng.ArmTimer(&c.dispatchTimer, c.kern.Now().Add(delay))
		}
		return
	}
	if c.cur == nil || (t != nil && t.higherPrioThan(c.cur)) {
		c.needResched = true
	}
	if c.shouldPreempt() && c.canPreemptTop() {
		c.suspendTop()
		c.settle()
	}
}

// idleDispatch is the dispatchTimer body: the CPU wakes from idle and
// settles into the scheduler.
func (c *CPU) idleDispatch() {
	c.settle()
}

// dispatch picks the next task when the CPU has nothing stacked.
func (c *CPU) dispatch() {
	if c.busy() || c.cur != nil {
		return
	}
	next := c.kern.sched.Pick(c)
	c.needResched = false
	c.sliceExpired = false
	c.forceResched = false
	if next == nil {
		return // idle
	}
	cfg := &c.kern.Cfg
	cost := c.kern.sched.PickCost(c)
	if next != c.lastRan {
		swcost := cfg.scale(cfg.Timing.CtxSwitch) + next.rng.Uniform(0, cfg.scale(cfg.Timing.CtxSwitchCachePenalty)) //simlint:region sched ctx-switch
		cost += swcost
	} else {
		cost += cfg.scale(cfg.Timing.CtxSwitch) / 4
	}
	if next.cpu != c {
		next.Migrated++
	}
	next.cpu = c
	next.state = TaskRunning
	next.Switches++
	c.cur = next
	c.kern.Trace.Switch(c.kern.Now(), c.ID, next.PID, next.Name, next.rtEffective())
	f := c.kern.getFrame()
	f.kind, f.task, f.workLeft = frameSwitch, next, float64(cost)
	c.push(f)
}

// beginTask resumes or starts the current task's execution.
func (c *CPU) beginTask(t *Task) {
	c.lastRan = t
	if t.saved != nil {
		f := t.saved
		t.saved = nil
		c.push(f)
		return
	}
	if t.call != nil {
		c.execSyscall(t)
		return
	}
	c.nextAction(t)
}

// --- task actions ---

// nextAction asks the behavior for the task's next step and executes it.
func (c *CPU) nextAction(t *Task) {
	if c.shouldPreempt() {
		c.preemptBetween(t)
		return
	}
	act := t.behavior.Next(t)
	switch act.Kind {
	case ActCompute:
		work := act.D
		if !t.MemLocked && work > 0 {
			// Un-locked pages fault occasionally; each fault costs real
			// time at unpredictable points. Coarse model: ~0.3% of the
			// compute time, exponentially distributed.
			work += t.rng.Exp(work.Scale(0.003))
		}
		f := c.kern.getFrame()
		f.kind, f.task, f.workLeft, f.complete = frameTask, t, float64(work), act.OnComplete
		c.push(f)
	case ActSyscall:
		if act.Call == nil {
			panic("kernel: ActSyscall without call definition")
		}
		t.call = t.beginCall(act, &c.kern.Cfg)
		c.kern.Trace.SyscallEnter(c.kern.Now(), c.ID, t.PID, t.Name, act.Call.Name)
		c.execSyscall(t)
	case ActSleep:
		t.state = TaskBlocked
		c.cur = nil
		c.lastRan = t
		k := c.kern
		wake := k.sleepWakeFn(t, act.OnComplete)
		if k.Cfg.HighResTimers {
			// POSIX timers patch: nanosecond-precision expiry. Tagged only
			// when no OnComplete closure is captured (the snapshot layer
			// rejects untagged events, making a non-restorable sleep loud).
			if act.OnComplete == nil {
				k.Eng.AfterTagged(act.D, evSleepWake.Tag(uint64(t.PID), 0, 0), wake)
			} else {
				k.Eng.After(act.D, wake)
			}
		} else {
			// Stock 2.4: through the jiffy timer wheel.
			if act.OnComplete == nil {
				k.AddTimerTagged(act.D, evSleepWake.Tag(uint64(t.PID), 0, 0), wake)
			} else {
				k.AddTimer(act.D, wake)
			}
		}
		c.dispatch()
	case ActYield:
		t.state = TaskRunnable
		t.lastQueue = c.kern.Now()
		c.cur = nil
		c.lastRan = t
		c.kern.sched.Enqueue(t, c)
		actionDone(t, ActYield, act.OnComplete, c.kern.Now())
		c.dispatch()
	case ActExit:
		t.state = TaskExited
		c.cur = nil
		c.lastRan = t
		actionDone(t, ActExit, act.OnComplete, c.kern.Now())
		c.dispatch()
	default:
		panic(fmt.Sprintf("kernel: unknown action kind %d", act.Kind))
	}
}

// sleepWakeFn is an ActSleep expiry: action completion, then wake.
func (k *Kernel) sleepWakeFn(t *Task, onComplete func(sim.Time)) func() {
	return func() {
		actionDone(t, ActSleep, onComplete, k.Now())
		k.WakeTask(t, nil)
	}
}

// --- syscall execution engine ---

// beginCall prepares the task's in-flight state for a syscall in the
// task's own syscallCall, applying the kernel's critical-section
// splitting (low-latency patches rewrite long critical sections into
// shorter ones with scheduling points; §6). A task has at most one call
// in flight, so the state and its split buffer are reused call to call.
func (t *Task) beginCall(act Action, cfg *Config) *syscallCall {
	call := &t.callBuf
	def := act.Call
	segs := def.Segments
	if max := cfg.MaxCritSection(); max > 0 {
		call.split = splitSegments(call.split[:0], segs, max)
		segs = call.split
	}
	call.def, call.segs, call.idx, call.heldBKL, call.onComplete = def, segs, 0, false, act.OnComplete
	return call
}

// splitSegments appends segs to out with SegWork regions capped at max,
// inserting scheduling points at the split boundaries. Lock-held regions
// become several shorter lock-held regions (release/reacquire between
// chunks), exactly the shape the low-latency patches gave the rewritten
// algorithms. Chunks are built in place at the tail of out, so out must
// not share a backing array with segs.
func splitSegments(out, segs []Segment, max sim.Duration) []Segment {
	for i := range segs {
		s := &segs[i]
		if s.Kind != SegWork || s.D <= max {
			out = append(out, *s)
			continue
		}
		for remaining := s.D; remaining > 0; remaining -= max {
			out = append(out, *s)
			chunk := &out[len(out)-1]
			if remaining > max {
				chunk.D = max
				chunk.SchedPoint = true
				chunk.OnDone = nil
				chunk.DoneTag = sim.EventTag{}
			} else {
				chunk.D = remaining
			}
		}
	}
	return out
}

// execSyscall advances the current syscall to its next segment.
func (c *CPU) execSyscall(t *Task) {
	call := t.call
	cfg := &c.kern.Cfg

	// Acquire (or reacquire after a block) the Big Kernel Lock if this
	// call's path needs it (§6.3).
	if call.needsBKL(cfg) && !call.heldBKL {
		c.acquireLock(t, c.kern.BKL, false, spinForBKL)
		return
	}

	if call.idx >= len(call.segs) {
		// Syscall exit: back to user mode.
		if call.heldBKL {
			c.kern.BKL.release(c.kern.Now(), c)
			call.heldBKL = false
		}
		onComplete := call.onComplete
		t.call = nil
		c.kern.Trace.SyscallExit(c.kern.Now(), c.ID, t.PID, t.Name, call.def.Name)
		actionDone(t, ActSyscall, onComplete, c.kern.Now())
		// Kernel exit is a preemption point on every kernel.
		c.nextAction(t)
		return
	}

	seg := &call.segs[call.idx]
	if seg.Kind == SegBlock {
		call.idx++
		if call.heldBKL {
			// 2.4 semantics: the BKL is dropped across a sleep and
			// reacquired on wakeup.
			c.kern.BKL.release(c.kern.Now(), c)
			call.heldBKL = false
		}
		t.state = TaskBlocked
		t.waitOn = seg.Wait
		seg.Wait.enqueue(t)
		c.cur = nil
		c.lastRan = t
		if seg.OnDone != nil {
			seg.OnDone()
		}
		c.dispatch()
		return
	}

	if seg.Lock != nil {
		c.acquireLock(t, seg.Lock, seg.IRQsOff, spinForSeg)
		return
	}
	c.startSeg(t, seg)
}

// lockAcquired continues the syscall engine once a lock taken by
// acquireLock is held: why says which lock it was. spinForBKL marks the
// BKL held and advances the call; spinForSeg starts the call's current
// segment, whose lock it was.
func (c *CPU) lockAcquired(t *Task, why uint8) {
	call := t.call
	if why == spinForBKL {
		call.heldBKL = true
		c.execSyscall(t)
		return
	}
	c.startSeg(t, &call.segs[call.idx])
}

// startSeg pushes the execution frame for a work segment (after its
// lock, if any, was acquired).
func (c *CPU) startSeg(t *Task, seg *Segment) {
	f := c.kern.getFrame()
	f.kind, f.task, f.seg, f.workLeft, f.irqsOff = frameTask, t, seg, float64(seg.D), seg.IRQsOff
	if seg.Lock != nil {
		f.locks = append(f.locks, seg.Lock)
	}
	c.push(f)
}

// segDone completes a kernel work region: releases its locks, runs its
// side effect, and checks the legal preemption points.
func (c *CPU) segDone(t *Task, seg *Segment, f *frame) {
	call := t.call
	now := c.kern.Now()
	for _, l := range f.locks {
		l.release(now, c)
	}
	if seg.OnDone != nil {
		seg.OnDone()
	}
	call.idx++
	// The low-latency patches' scheduling points drop and reacquire the
	// BKL around the schedule check (the rewritten long paths release it
	// periodically); execSyscall reacquires it before the next region.
	if seg.SchedPoint && call.heldBKL {
		c.kern.BKL.release(now, c)
		call.heldBKL = false
	}
	// A boundary is a legal preemption point on a preemptible kernel, or
	// where the low-latency patches inserted a scheduling point — but
	// never while the BKL is held: the real kernel only drops it inside
	// the syscall exit path (which execSyscall handles) or in schedule()
	// itself. Preempting a BKL holder here would park the lock on the
	// runqueue and livelock every spinner.
	boundaryOK := !call.heldBKL && (c.kern.Cfg.Preemptible || seg.SchedPoint)
	if boundaryOK && c.shouldPreempt() {
		c.preemptBetween(t)
		return
	}
	c.execSyscall(t)
}

// acquireLock takes l for the task's context, spinning if contended;
// lockAcquired(t, why) continues once the lock is held. The spin frame
// is allocated, not pooled: its lockWaiter closures outlive the pop.
func (c *CPU) acquireLock(t *Task, l *SpinLock, irqsOff bool, why uint8) {
	now := c.kern.Now()
	if l.tryAcquire(c, now) {
		c.lockAcquired(t, why)
		return
	}
	c.kern.Trace.LockContend(now, c.ID, l.Name, l.holder.ID)
	f := &frame{kind: frameSpin, task: t, spin: l, irqsOff: irqsOff, spinSince: now, spinWhy: why}
	l.addWaiter(c, now, c.spinActiveFn(f), c.spinGrantedFn(f))
	c.push(f)
}

// spinActiveFn reports whether the spin frame is actively spinning (on
// top of its CPU's stack) — a preempted spinner cannot take a handover.
func (c *CPU) spinActiveFn(f *frame) func() bool {
	return func() bool { return c.top() == f }
}

// spinGrantedFn runs on the waiter's CPU when a released lock is handed
// to its spin frame: convert the spin to execution if it is on top, or
// mark it acquired for settle to convert when it surfaces.
func (c *CPU) spinGrantedFn(f *frame) func() {
	return func() {
		f.acquired = true
		c.kern.Trace.LockAcquire(c.kern.Now(), c.ID, f.spin.Name, c.kern.Now().Sub(f.spinSince))
		if c.top() == f {
			c.pop(f)
			c.frameCont(f)
			c.settle()
		}
		// Otherwise the spin frame is buried under interrupt frames;
		// settle converts it when it surfaces.
	}
}

// --- local timer ---

// startLocalTimer begins the periodic tick, staggered per CPU the way
// real SMP local APIC timers are.
func (c *CPU) startLocalTimer() {
	period := c.tickPeriod()
	offset := sim.Duration(int64(period) * int64(c.ID) / int64(len(c.kern.cpus)))
	// Pinned (tickTimer): CPU 0's local tick is phase-locked with the
	// global timer (both fire at exact multiples of the tick period),
	// and the model resolves that simultaneity as local-APIC-before-PIT,
	// in schedule order. See "Tie-break determinism" in DESIGN.md §8.
	c.kern.Eng.ArmTimer(&c.tickTimer, c.kern.Now().Add(offset))
}

func (c *CPU) tickPeriod() sim.Duration {
	return sim.Duration(int64(sim.Second) / int64(c.kern.Cfg.LocalTimerHz))
}

// tick is the tickTimer body.
func (c *CPU) tick() {
	if c.kern.shieldLTimer.Has(c.ID) {
		// Local timer shielding: the tick is simply not scheduled again
		// until the CPU is unshielded (§3: "the shielded processor
		// mechanism allows this interrupt to be disabled").
		return
	}
	// Pinned for the same reason as startLocalTimer: the re-armed tick
	// stays ordered before the phase-locked global timer interrupt.
	c.kern.Eng.ArmTimer(&c.tickTimer, c.kern.Now().Add(c.tickPeriod()))
	c.raiseIRQ(c.localTimer)
}

// timerTick is the local timer handler body: time accounting and
// timeslice management.
func (c *CPU) timerTick() {
	c.TicksHandled++
	c.sampleTick()
	c.kern.Trace.TimerTick(c.kern.Now(), c.ID)
	t := c.cur
	if t == nil || t.Policy == SchedFIFO {
		return
	}
	t.sliceLeft -= c.tickPeriod()
	if t.sliceLeft <= 0 {
		t.sliceLeft = timesliceFor(t)
		c.sliceExpired = true
		c.needResched = true
	}
}

// --- bus contention sampling ---

// startBusSampling begins the periodic resampling of this CPU's memory
// bus slowdown factor (§5: even a shielded CPU sees ~2% jitter from
// memory contention in an SMP system).
func (c *CPU) startBusSampling() {
	period := c.kern.Cfg.Timing.BusResample
	if period <= 0 || c.kern.Cfg.Timing.BusContention <= 0 {
		return
	}
	offset := sim.Duration(int64(period) * int64(c.ID) / int64(len(c.kern.cpus)))
	c.kern.Eng.AfterTagged(offset, evBusResample.Tag(uint64(c.ID), 0, 0), c.onBusResample)
}

// busResample is the periodic bus-sampling event body: re-arm first,
// then resample — the schedule-before-sample order fixes which sequence
// numbers (and so which RNG draws) each step consumes.
func (c *CPU) busResample() {
	period := c.kern.Cfg.Timing.BusResample
	c.kern.Eng.AfterTagged(c.kern.rng.Jitter(period, 0.2), evBusResample.Tag(uint64(c.ID), 0, 0), c.onBusResample)
	c.resampleBus()
}

func (c *CPU) resampleBus() {
	otherBusy := 0
	otherPhys := 0
	seen := map[int]bool{}
	for _, o := range c.kern.cpus {
		if o.Phys == c.Phys || seen[o.Phys] {
			continue
		}
		seen[o.Phys] = true
		otherPhys++
		if o.busy() || (o.Sibling != nil && o.Sibling.busy()) {
			otherBusy++
		}
	}
	factor := 1.0
	if otherPhys > 0 && otherBusy > 0 {
		load := float64(otherBusy) / float64(otherPhys)
		factor = 1.0 / (1.0 + c.kern.Cfg.Timing.BusContention*load*c.kern.rng.Float64())
	}
	if factor != c.busFactor {
		old := c.rate()
		c.busFactor = factor
		c.rateChangedFrom(old)
	}
}
