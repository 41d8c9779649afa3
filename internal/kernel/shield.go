package kernel

import "fmt"

// This file implements the paper's contribution (§3): shielded
// processors. A CPU can be shielded from processes, from device
// interrupts that can be assigned an affinity, and from the local timer
// interrupt — each independently, via a bitmask.
//
// The affinity semantics are the inverted ones the paper defines: a
// shielded CPU is removed from every process's and interrupt's effective
// affinity UNLESS the affinity contains only shielded CPUs, in which case
// the entity has explicitly opted into the shielded set. See
// EffectiveAffinity in mask.go.
//
// Shield changes take effect dynamically: running and queued tasks are
// migrated off newly shielded CPUs, new interrupt deliveries are rerouted
// (instances already pending on a CPU still complete there), and the
// local timer tick is stopped/restarted.

// ErrNoShieldSupport is returned when the kernel was built without the
// shield patch (stock kernel.org configurations).
var ErrNoShieldSupport = fmt.Errorf("kernel: no /proc/shield support in this kernel")

// ShieldProcs returns the process shield mask.
func (k *Kernel) ShieldProcs() CPUMask { return k.shieldProcs }

// ShieldIRQs returns the interrupt shield mask.
func (k *Kernel) ShieldIRQs() CPUMask { return k.shieldIRQs }

// ShieldLTimer returns the local timer shield mask.
func (k *Kernel) ShieldLTimer() CPUMask { return k.shieldLTimer }

func (k *Kernel) checkShieldMask(m CPUMask) error {
	if !k.Cfg.ShieldSupport {
		return ErrNoShieldSupport
	}
	if !m.SubsetOf(k.online) {
		return fmt.Errorf("kernel: shield mask %s names offline CPUs (online %s)", m, k.online)
	}
	return nil
}

// SetShieldProcs shields the CPUs in m from processes.
func (k *Kernel) SetShieldProcs(m CPUMask) error {
	if err := k.checkShieldMask(m); err != nil {
		return err
	}
	old := k.shieldProcs
	k.shieldProcs = m
	k.Trace.Shield(k.Now(), "procs", uint64(old), uint64(m))
	// Dynamic enable: examine every task and push it off CPUs it may no
	// longer use (and allow it back onto ones it now may).
	for _, t := range k.tasks {
		if t.state == TaskExited {
			continue
		}
		k.enforceTaskPlacement(t)
	}
	// CPUs that lost their shield may now run queued work.
	for _, c := range k.cpus {
		if old.Has(c.ID) && !m.Has(c.ID) && c.Idle() {
			c.kick(nil)
		}
	}
	return nil
}

// SetShieldIRQs shields the CPUs in m from assignable device interrupts.
// Already-pending instances still complete on their CPU (§3).
func (k *Kernel) SetShieldIRQs(m CPUMask) error {
	if err := k.checkShieldMask(m); err != nil {
		return err
	}
	k.Trace.Shield(k.Now(), "irqs", uint64(k.shieldIRQs), uint64(m))
	k.shieldIRQs = m
	return nil
}

// SetShieldLTimer shields the CPUs in m from the local timer interrupt.
// Functionality that depends on the tick (CPU time accounting, profiling)
// is lost on those CPUs, as the paper describes.
func (k *Kernel) SetShieldLTimer(m CPUMask) error {
	if err := k.checkShieldMask(m); err != nil {
		return err
	}
	old := k.shieldLTimer
	k.shieldLTimer = m
	k.Trace.Shield(k.Now(), "ltmr", uint64(old), uint64(m))
	for _, c := range k.cpus {
		switch {
		case m.Has(c.ID):
			k.Eng.DisarmTimer(&c.tickTimer)
		case old.Has(c.ID) && !c.tickTimer.Armed() && k.started:
			k.Eng.ArmTimer(&c.tickTimer, k.Now().Add(c.tickPeriod()))
		}
	}
	return nil
}

// SetShieldAll shields the CPUs in m from processes, interrupts and the
// local timer at once (/proc/shield/all).
func (k *Kernel) SetShieldAll(m CPUMask) error {
	if err := k.SetShieldProcs(m); err != nil {
		return err
	}
	if err := k.SetShieldIRQs(m); err != nil {
		return err
	}
	return k.SetShieldLTimer(m)
}

// ShieldedFor reports whether cpu is shielded in all three dimensions.
func (k *Kernel) ShieldedFor(cpu int) bool {
	return k.shieldProcs.Has(cpu) && k.shieldIRQs.Has(cpu) && k.shieldLTimer.Has(cpu)
}
