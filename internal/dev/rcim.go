package dev

import (
	"repro/internal/kernel"
	"repro/internal/sim"
)

// rcimWaitReturn is the driver's straight-to-user return path after a
// blocking wait: syscall exit plus one PCI read of the mapped count
// register. It is the last leg of the shielded response bound.
const rcimWaitReturn = 1200 * sim.Nanosecond //simlint:region run rcim-wait

// RCIM models Concurrent's Real-Time Clock and Interrupt Module PCI card
// (§4, §6.3): a high-resolution periodic timer with a memory-mapped count
// register, and a fully multithreaded driver whose ioctl wait path does
// not need the Big Kernel Lock.
//
// The count register is loaded with the period, decremented by the
// hardware, and generates an interrupt at zero, automatically reloading.
// Because the register is mapped into the program, reading it costs almost
// nothing — which is why the paper's second interrupt response test uses
// it to timestamp instead of a syscall.
type RCIM struct {
	k   *kernel.Kernel
	irq *kernel.IRQLine
	wq  *kernel.WaitQueue
	id  uint64
	// exts are the attached external inputs, in creation order.
	exts []*ExternalInput

	period   sim.Duration
	running  bool
	lastFire sim.Time
	fires    uint64

	// onFire is fire, bound once so re-arming allocates nothing.
	onFire func()
}

// ExternalInput is one of the RCIM's edge-triggered external interrupt
// inputs (§4: the card "provides the ability to connect external
// edge-triggered device interrupts to the system"). Each input has its
// own kernel interrupt line and wait queue, so an external real-world
// signal can be affined to a shielded CPU exactly like the card's timer.
type ExternalInput struct {
	Name string
	irq  *kernel.IRQLine
	wq   *kernel.WaitQueue
	k    *kernel.Kernel

	// Edges counts signalled edges.
	Edges uint64
	// LastEdge is when the input last fired.
	LastEdge sim.Time
}

// IRQ returns the input's interrupt line.
func (e *ExternalInput) IRQ() *kernel.IRQLine { return e.irq }

// Signal delivers one external edge.
func (e *ExternalInput) Signal() {
	e.Edges++
	e.LastEdge = e.k.Now()
	e.k.Raise(e.irq)
}

// SinceEdge reads the input's timestamp register: time since the last
// edge (mapped, essentially free — like the timer's count register).
func (e *ExternalInput) SinceEdge(now sim.Time) sim.Duration {
	if e.Edges == 0 {
		return 0
	}
	return now.Sub(e.LastEdge)
}

// WaitCall builds a "block until the next edge" ioctl on this input —
// same multithreaded-driver path as the timer.
func (e *ExternalInput) WaitCall() *kernel.SyscallCall {
	return &kernel.SyscallCall{
		Name:        "ioctl(rcim, WAIT_EDGE " + e.Name + ")",
		TakesBKL:    true,
		DriverNoBKL: true,
		Segments: []kernel.Segment{
			{Kind: kernel.SegWork, D: 600 * sim.Nanosecond},
			{Kind: kernel.SegBlock, Wait: e.wq},
			{Kind: kernel.SegWork, D: rcimWaitReturn},
		},
	}
}

// NewRCIM creates the card and registers its edge-triggered interrupt.
func NewRCIM(k *kernel.Kernel, period sim.Duration) *RCIM {
	if period <= 0 {
		panic("dev: RCIM period must be positive")
	}
	r := &RCIM{k: k, wq: k.NewWaitQueue("rcim"), period: period}
	r.id = k.RegisterComponent(r)
	r.onFire = r.fire
	handler := func(rng *sim.RNG) sim.Duration {
		// The handler reads the card's status and acknowledges the
		// interrupt: several PCI transactions at ~1-2µs each. PCI bus
		// latency is fixed hardware cost (it does not scale with CPU
		// frequency) and varies with competing DMA traffic, which is
		// what spreads the paper's 11-27µs band under heavy disk and
		// network load.
		return rng.Jitter(5500*sim.Nanosecond, 0.15) +
			rng.Pareto(600*sim.Nanosecond, 1.3, 10*sim.Microsecond)
	}
	r.irq = k.RegisterIRQ("rcim", 0, handler, func(c *kernel.CPU) {
		k.WakeAll(r.wq, c)
	})
	// Edge-triggered fast handler: runs with interrupts disabled.
	r.irq.Fast = true
	return r
}

// IRQ returns the card's interrupt line.
func (r *RCIM) IRQ() *kernel.IRQLine { return r.irq }

// NewExternalInput attaches an external edge-triggered signal to the
// card, creating a dedicated interrupt line for it.
func (r *RCIM) NewExternalInput(name string) *ExternalInput {
	e := &ExternalInput{
		Name: name,
		k:    r.k,
		wq:   r.k.NewWaitQueue("rcim-ext-" + name),
	}
	r.exts = append(r.exts, e)
	handler := func(rng *sim.RNG) sim.Duration {
		return rng.Jitter(4*sim.Microsecond, 0.2) +
			rng.Pareto(500*sim.Nanosecond, 1.3, 8*sim.Microsecond)
	}
	e.irq = r.k.RegisterIRQ("rcim-"+name, 0, handler, func(c *kernel.CPU) {
		r.k.WakeAll(e.wq, c)
	})
	e.irq.Fast = true
	return e
}

// Period returns the programmed periodic cycle.
func (r *RCIM) Period() sim.Duration { return r.period }

// LastFire returns when the count register last reached zero.
func (r *RCIM) LastFire() sim.Time { return r.lastFire }

// Fires returns the number of periodic expirations.
func (r *RCIM) Fires() uint64 { return r.fires }

// CountElapsed returns the time since the current periodic cycle began,
// i.e. the initial count minus the current count register value. The test
// program computes its interrupt response latency exactly this way (§6.3),
// and because the register is mapped, the read is essentially free.
func (r *RCIM) CountElapsed(now sim.Time) sim.Duration {
	if r.fires == 0 {
		return 0
	}
	return now.Sub(r.lastFire)
}

// Start begins the periodic timer.
func (r *RCIM) Start() {
	if r.running {
		return
	}
	r.running = true
	r.k.Eng.AfterTagged(r.period, evRCIMFire.Tag(r.id, 0, 0), r.onFire)
}

// fire is the count-register-zero event body: raise the edge-triggered
// interrupt and reload the count (re-arm).
func (r *RCIM) fire() {
	if !r.running {
		return
	}
	r.lastFire = r.k.Now()
	r.fires++
	r.k.Raise(r.irq)
	r.k.Eng.AfterTagged(r.period, evRCIMFire.Tag(r.id, 0, 0), r.onFire)
}

// Stop halts the periodic timer.
func (r *RCIM) Stop() { r.running = false }

// WaitCall builds one "block until the next RCIM interrupt" ioctl. The
// 2.4 generic ioctl path takes the BKL before entering the driver; with
// RedHawk's per-driver flag (Config.BKLIoctlFlag) and this driver being
// multithreaded (DriverNoBKL), the BKL is skipped (§6.3). The return path
// is direct — no generic fs layers, no contended locks.
func (r *RCIM) WaitCall() *kernel.SyscallCall {
	return &kernel.SyscallCall{
		Name:        "ioctl(rcim, WAIT)",
		TakesBKL:    true,
		DriverNoBKL: true,
		Segments: []kernel.Segment{
			// sys_ioctl entry + driver dispatch.
			{Kind: kernel.SegWork, D: 600 * sim.Nanosecond},
			{Kind: kernel.SegBlock, Wait: r.wq},
			// Straight back to user space; the first thing user code
			// does is read the mapped count register (one PCI read).
			{Kind: kernel.SegWork, D: rcimWaitReturn},
		},
	}
}
