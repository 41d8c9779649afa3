package dev

import (
	"repro/internal/kernel"
	"repro/internal/sim"
)

// GPU models a GeForce2-class graphics controller for the X11perf load in
// the paper's final experiment (§6.3). The X server stuffs the command
// FIFO; the card raises an interrupt when the FIFO drains or at vblank,
// and the handler runs a tasklet to kick the next batch.
type GPU struct {
	k    *kernel.Kernel
	irq  *kernel.IRQLine
	name string
	id   uint64

	// Statistics.
	Batches uint64

	// onIRQ is raiseIRQ, bound once so each batch allocates nothing.
	onIRQ func()
}

// NewGPU creates the controller and registers its interrupt line.
func NewGPU(k *kernel.Kernel, name string) *GPU {
	g := &GPU{k: k, name: name}
	g.id = k.RegisterComponent(g)
	g.onIRQ = g.raiseIRQ
	handler := func(rng *sim.RNG) sim.Duration {
		return rng.Jitter(4*sim.Microsecond, 0.4)
	}
	g.irq = k.RegisterIRQ(name, 0, handler, func(c *kernel.CPU) {
		// FIFO housekeeping runs as a tasklet.
		c.RaiseSoftirq(kernel.SoftirqTasklet, 15*sim.Microsecond)
	})
	return g
}

// IRQ returns the controller's interrupt line.
func (g *GPU) IRQ() *kernel.IRQLine { return g.irq }

// SubmitBatch models the X server pushing one batch of rendering
// commands: the FIFO-drain interrupt arrives after the card has chewed
// through it.
func (g *GPU) SubmitBatch(renderTime sim.Duration) {
	g.Batches++
	g.k.Eng.AfterTagged(renderTime, evGPUIRQ.Tag(g.id, 0, 0), g.onIRQ)
}

// raiseIRQ is the FIFO-drain interrupt event body.
func (g *GPU) raiseIRQ() { g.k.Raise(g.irq) }
