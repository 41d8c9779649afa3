package kernel

// Exports for the external kernel_test package, whose tests also need
// the reference machines of package core (which imports this one).

// BuildSnapMachine is buildSnapMachine for external tests.
var BuildSnapMachine = buildSnapMachine

// SnapStateKinds names the hard-to-restore kinds of state the machine
// holds right now: an in-flight syscall, a saved frame, an ISR frame, a
// spin frame with its lock waiter, and a queued wheel timer.
func SnapStateKinds(k *Kernel) []string {
	var kinds []string
	add := func(kind string, held bool) {
		if held {
			kinds = append(kinds, kind)
		}
	}
	var call, saved, isr, spin, timer bool
	for _, t := range k.tasks {
		call = call || t.call != nil
		saved = saved || t.saved != nil
	}
	for _, c := range k.cpus {
		for _, f := range c.stack {
			isr = isr || f.kind == frameISR
			spin = spin || f.kind == frameSpin && len(f.spin.waiters) > 0
		}
	}
	for _, b := range k.wheel.tv1 {
		for _, t := range b {
			timer = timer || t.active
		}
	}
	for l := range k.wheel.tv {
		for _, b := range k.wheel.tv[l] {
			for _, t := range b {
				timer = timer || t.active
			}
		}
	}
	add("in-flight syscall", call)
	add("saved frame", saved)
	add("ISR frame", isr)
	add("spin frame with lock waiter", spin)
	add("queued wheel timer", timer)
	return kinds
}
