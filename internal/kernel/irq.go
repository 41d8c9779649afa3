package kernel

import (
	"fmt"

	"repro/internal/sim"
)

// IRQLine is one external interrupt line (an IO-APIC input). Devices
// raise it; the kernel routes each occurrence to a CPU allowed by the
// line's smp_affinity mask after shielding semantics are applied.
type IRQLine struct {
	// Num is the IRQ number (-1 for the per-CPU local timer).
	Num  int
	Name string

	kern     *Kernel
	affinity CPUMask

	// Fast marks an SA_INTERRUPT-style handler: it runs with local
	// interrupts disabled (timer, RTC, RCIM). Slow handlers (NIC, disk,
	// GPU) run with interrupts enabled and can be nested by other
	// lines — only their own line stays masked until they complete,
	// 2.4 semantics.
	Fast bool

	// HandlerWork returns the handler execution time for one occurrence.
	HandlerWork func(r *sim.RNG) sim.Duration
	// OnHandle runs at handler completion on the servicing CPU: the
	// device's side effects (waking waiters, raising softirqs).
	OnHandle func(c *CPU)

	rng *sim.RNG
	rr  int // round-robin pointer for multi-CPU delivery

	// Statistics.
	Raised  uint64
	Handled uint64
	// PerCPU counts handled occurrences per servicing CPU.
	PerCPU []uint64
}

// Affinity returns the line's smp_affinity mask.
func (l *IRQLine) Affinity() CPUMask { return l.affinity }

// EffectiveAffinity applies shielding (§3): a shielded CPU receives the
// interrupt only if the line's affinity contains exclusively shielded
// CPUs.
func (l *IRQLine) EffectiveAffinity() CPUMask {
	return EffectiveAffinity(l.affinity, l.kern.shieldIRQs, l.kern.online)
}

// RegisterIRQ creates an interrupt line. affinity 0 means all CPUs.
// handlerWork must be non-nil; onHandle may be nil.
func (k *Kernel) RegisterIRQ(name string, affinity CPUMask, handlerWork func(*sim.RNG) sim.Duration, onHandle func(*CPU)) *IRQLine {
	if handlerWork == nil {
		panic("kernel: IRQ needs a handler work function")
	}
	if affinity == 0 {
		affinity = k.online
	}
	l := &IRQLine{
		Num:         len(k.irqs), // IRQ 0 is the global timer, registered first
		Name:        name,
		kern:        k,
		affinity:    affinity,
		HandlerWork: handlerWork,
		OnHandle:    onHandle,
		rng:         k.rng.Fork(),
		PerCPU:      make([]uint64, k.Cfg.NumCPUs()),
	}
	k.irqs = append(k.irqs, l)
	k.registerIRQProcFile(l)
	return l
}

// SetIRQAffinity changes a line's smp_affinity (the /proc/irq/N/
// smp_affinity write path). Occurrences already pending on a CPU are
// still handled there, matching the paper: "the shielded CPU will handle
// no NEW instances of an interrupt that should be shielded".
func (k *Kernel) SetIRQAffinity(l *IRQLine, m CPUMask) error {
	if m&k.online == 0 {
		return fmt.Errorf("kernel: irq %d affinity %s has no online CPU", l.Num, m)
	}
	l.affinity = m
	return nil
}

// Raise delivers one occurrence of the interrupt. Routing follows the
// kernel config: static first-allowed-CPU delivery (2.4 default — device
// interrupt load piles onto the lowest-numbered allowed CPU) or
// round-robin over the effective affinity (IO-APIC lowest-priority mode).
func (k *Kernel) Raise(l *IRQLine) {
	l.Raised++
	eff := l.EffectiveAffinity()
	if eff == 0 {
		// Nothing online in the mask: hardware still has to deliver it
		// somewhere; fall back to all online CPUs.
		eff = k.online
	}
	var c *CPU
	if k.Cfg.IRQRoundRobin {
		c = k.cpus[eff.nth(l.rr%eff.Count())]
		l.rr++
	} else {
		c = k.cpus[eff.First()]
	}
	k.Trace.IRQRaise(k.Now(), c.ID, l.Num, l.Name, c.ID)
	c.raiseIRQ(l)
}

// SoftirqVec identifies a bottom-half class, after the 2.4 softirq
// vectors.
type SoftirqVec uint8

// Softirq vectors in priority order.
const (
	SoftirqTimer SoftirqVec = iota
	SoftirqNetTx
	SoftirqNetRx
	SoftirqBlock
	SoftirqTasklet
	numSoftirq
)

// String names the vector.
func (v SoftirqVec) String() string {
	switch v {
	case SoftirqTimer:
		return "TIMER"
	case SoftirqNetTx:
		return "NET_TX"
	case SoftirqNetRx:
		return "NET_RX"
	case SoftirqBlock:
		return "BLOCK"
	case SoftirqTasklet:
		return "TASKLET"
	default:
		return fmt.Sprintf("SOFTIRQ(%d)", uint8(v))
	}
}
