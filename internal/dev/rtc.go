// Package dev provides the device models the paper's experiments need:
// the Real-Time Clock (/dev/rtc), the Concurrent RCIM PCI card, an
// Ethernet NIC, a SCSI disk and a graphics controller. Each device owns an
// interrupt line on a kernel.Kernel and exposes the syscall profiles its
// driver executes, so experiments exercise the same code paths the paper
// describes: read(2) through generic fs code for the RTC, ioctl(2) with or
// without the BKL for the RCIM.
package dev

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// RTC models the PC Real-Time Clock and its 2.4 driver. The device
// generates periodic interrupts at a programmable rate; the driver's
// read(2) blocks until the next interrupt and — crucially for §6.2 of the
// paper — returns to user space "through various layers of generic file
// system code" whose spinlocks may be contended.
type RTC struct {
	k   *kernel.Kernel
	irq *kernel.IRQLine
	wq  *kernel.WaitQueue
	// fsLock is the contended generic-fs lock on the read exit path.
	fsLock *kernel.SpinLock
	id     uint64

	period  sim.Duration
	running bool
	// lastFire is when the most recent periodic interrupt was raised.
	lastFire sim.Time
	fires    uint64

	// onFire is fire, bound once so re-arming allocates nothing.
	onFire func()
}

// NewRTC creates the device and registers its interrupt line.
// hz is the periodic rate (realfeel uses 2048).
func NewRTC(k *kernel.Kernel, hz int) *RTC {
	if hz <= 0 {
		panic("dev: RTC rate must be positive")
	}
	r := &RTC{
		k:      k,
		wq:     k.NewWaitQueue("rtc"),
		fsLock: k.NamedLock("dcache"),
		period: sim.Duration(int64(sim.Second) / int64(hz)),
	}
	r.id = k.RegisterComponent(r)
	r.onFire = r.fire
	handler := func(rng *sim.RNG) sim.Duration {
		// rtc_interrupt: read the status register, update the counter.
		return rng.Jitter(2*sim.Microsecond, 0.3)
	}
	r.irq = k.RegisterIRQ("rtc", 0, handler, func(c *kernel.CPU) {
		k.WakeAll(r.wq, c)
	})
	// The RTC handler is an SA_INTERRUPT fast handler.
	r.irq.Fast = true
	return r
}

// IRQ returns the device's interrupt line (for affinity configuration).
func (r *RTC) IRQ() *kernel.IRQLine { return r.irq }

// Period returns the interval between periodic interrupts.
func (r *RTC) Period() sim.Duration { return r.period }

// LastFire returns when the last periodic interrupt fired.
func (r *RTC) LastFire() sim.Time { return r.lastFire }

// Fires returns the number of interrupts generated.
func (r *RTC) Fires() uint64 { return r.fires }

// Start begins periodic interrupt generation.
func (r *RTC) Start() {
	if r.running {
		return
	}
	r.running = true
	r.k.Eng.AfterTagged(r.period, evRTCFire.Tag(r.id, 0, 0), r.onFire)
}

// fire is the periodic interrupt event body: raise the line and re-arm.
func (r *RTC) fire() {
	if !r.running {
		return
	}
	r.lastFire = r.k.Now()
	r.fires++
	r.k.Raise(r.irq)
	r.k.Eng.AfterTagged(r.period, evRTCFire.Tag(r.id, 0, 0), r.onFire)
}

// Stop halts interrupt generation (pending wakeups still happen).
func (r *RTC) Stop() { r.running = false }

// ReadCall builds one read(/dev/rtc) invocation: enter the kernel, block
// until the next interrupt, then exit through generic fs code that briefly
// holds the contended fs spinlock. This is the path the paper blames for
// the 0.565 ms worst case on a shielded CPU (§6.2).
func (r *RTC) ReadCall() *kernel.SyscallCall {
	return &kernel.SyscallCall{
		Name: "read(/dev/rtc)",
		Segments: []kernel.Segment{
			// sys_read entry, fd lookup.
			{Kind: kernel.SegWork, D: 800 * sim.Nanosecond},
			{Kind: kernel.SegBlock, Wait: r.wq},
			// Wake path back out: driver copy_to_user then the generic
			// fs return layers, which take the fs lock.
			{Kind: kernel.SegWork, D: 600 * sim.Nanosecond},
			{Kind: kernel.SegWork, D: 900 * sim.Nanosecond, Lock: r.fsLock},
		},
	}
}

// ReadCallFixed is the paper's closing "remaining multithreading issues"
// item, implemented: a /dev/rtc wait path with the same treatment the
// RCIM driver got — a fully multithreaded driver reached through an
// ioctl that skips the BKL (given the per-driver flag) and returns to
// user space without crossing the contended generic fs layers. With this
// path, the RTC reaches RCIM-class guarantees on a shielded CPU (the
// `future-rtc-api` experiment).
func (r *RTC) ReadCallFixed() *kernel.SyscallCall {
	return &kernel.SyscallCall{
		Name:        "ioctl(rtc, WAIT)",
		TakesBKL:    true,
		DriverNoBKL: true,
		Segments: []kernel.Segment{
			{Kind: kernel.SegWork, D: 600 * sim.Nanosecond},
			{Kind: kernel.SegBlock, Wait: r.wq},
			{Kind: kernel.SegWork, D: 500 * sim.Nanosecond},
		},
	}
}

// String describes the device.
func (r *RTC) String() string {
	return fmt.Sprintf("rtc@%dHz", int64(sim.Second)/int64(r.period))
}
