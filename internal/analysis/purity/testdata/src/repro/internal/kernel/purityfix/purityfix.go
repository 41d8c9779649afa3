// Package purityfix is clean under the intra-package nondeterminism
// rule — no wall clocks, no math/rand, no env lookups in its own files
// — yet its scheduled callbacks are impure: they launder violations
// through the unprotected repro/helperlib package and through local
// package state. Only the interprocedural purity analyzer sees it.
package purityfix

import (
	"repro/helperlib"
	"repro/internal/sim"
)

var counter int

// Arm registers the callbacks the analysis roots at.
func Arm(e *sim.Engine) {
	e.Schedule(0, tick)
	e.After(5, bump)
	e.Schedule(7, readBack)
	armLoop(e)
	e.Schedule(9, waived)
	e.AfterTagged(11, sim.EventTag{}, tagged)
	d := &device{e: e}
	d.timer.Init(sim.EventTag{}, true, d.fire)
	e.ArmTimer(&d.timer, 13)
}

// tick launders a wall clock through an unprotected helper package —
// the exact hole the intra-package rule cannot see.
func tick() {
	_ = helperlib.Stamp()
}

// bump mutates package state from a callback.
func bump() {
	counter++ // want `write to package-level counter reachable from sim\.Engine callback \(bump\)`
}

// readBack reads state some other function mutates.
func readBack() {
	_ = counter // want `read of mutated package-level counter reachable from sim\.Engine callback \(readBack\)`
}

// armLoop registers a self-re-arming callback through a function-typed
// variable — the pattern the kernel's global tick uses — so resolving
// the callback requires the call graph's assignment map, not just a
// syntactic literal.
func armLoop(e *sim.Engine) {
	var loop func()
	loop = func() {
		_ = helperlib.Rand()
		e.After(1, loop)
	}
	e.After(1, loop)
}

// waived reaches an impure helper whose site carries an allow
// directive; no diagnostic may survive.
func waived() {
	_ = helperlib.Waived()
}

// tagged is registered through a Tagged schedule variant, which the
// analysis must root at like the plain one.
func tagged() {
	_ = helperlib.Elapsed()
}

// device owns a periodic timer; its body is bound once by Timer.Init,
// the registrar every kernel timer goes through.
type device struct {
	e     *sim.Engine
	timer sim.Timer
}

func (d *device) fire() {
	_ = helperlib.Env()
	d.e.ArmTimer(&d.timer, d.e.Now().Add(10))
}
