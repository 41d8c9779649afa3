package kernel

import "repro/internal/snapshot"

// Snapshot field manifests. Every struct the kernel serialises (or
// deliberately does not) registers here; the statecheck reflection test
// in internal/snapshot fails the build the moment a new field appears
// without a "codec" entry or an explicit skip justification — so state
// cannot silently leak past the checkpoint/restore boundary.
func init() {
	snapshot.RegisterState(Kernel{}, snapshot.Manifest{
		"Cfg":          "skip: construction input — the restoring process builds an identical machine from (config, seed) before Restore runs",
		"Eng":          "codec", // the engine writes its own "sim.engine" section
		"Trace":        "codec", // optional "trace.buffer" section, presence validated both ways
		"FS":           "skip: /proc files are stateless renderers over live kernel state, re-registered at construction",
		"cpus":         "codec",
		"online":       "skip: derived from Cfg.OnlineMask at construction",
		"tasks":        "codec",
		"byPID":        "skip: index over tasks, identical by construction (PIDs assigned in creation order)",
		"next":         "codec",
		"irqs":         "codec",
		"sched":        "codec", // "kernel.sched" section, kind-validated
		"shieldProcs":  "codec",
		"shieldIRQs":   "codec",
		"shieldLTimer": "codec",
		"BKL":          "codec",
		"namedLocks":   "codec", // serialised sorted by name; restore recreates on first lookup
		"rng":          "codec",
		"started":      "skip: restore requires an already-started machine and fails loudly otherwise",
		"wheel":        "codec",
		"timerIRQ":     "skip: member of irqs (IRQ 0), serialised there",
		"load":         "codec",
		"waitqs":       "codec",
		"comps":        "codec", // one section per registered component, in registration order
		"frames":       "skip: free list of finished frames, no live state; a restored machine refills it as frames finish",
		"globalTimer":  "codec", // a pending "k.global-tick" event in the engine section; restore re-arms it with RestoreTimer
	})
	snapshot.RegisterState(CPU{}, snapshot.Manifest{
		"ID":            "skip: construction identity",
		"Phys":          "skip: construction topology",
		"Sibling":       "skip: construction topology (HT pairing)",
		"kern":          "skip: construction back-pointer",
		"stack":         "codec",
		"cur":           "codec",
		"lastRan":       "codec",
		"pendingIRQ":    "codec",
		"softirqPend":   "codec",
		"needResched":   "codec",
		"sliceExpired":  "codec",
		"forceResched":  "codec",
		"ksoftirqd":     "skip: construction back-pointer; the daemon task's state is in kernel.tasks",
		"softirqWq":     "skip: registered wait queue, serialised in kernel.waitqs",
		"daemonBacklog": "codec",
		"softirqHanded": "codec",
		"busFactor":     "codec",
		"doneTimer":     "codec", // a pending "k.frame-done" event in the engine section; restore re-arms it with RestoreTimer
		"dispatchTimer": "codec", // a pending "k.idle-dispatch" event in the engine section; restore re-arms it with RestoreTimer
		"tickTimer":     "codec", // a pending "k.cpu-tick" event in the engine section; restore re-arms it with RestoreTimer
		"localTimer":    "codec", // rng + counters inline in kernel.cpus (not a member of irqs)
		"IRQsHandled":   "codec",
		"SoftirqRuns":   "codec",
		"SoftirqTime":   "codec",
		"Preemptions":   "codec",
		"TicksHandled":  "codec",
		"times":         "codec",
		"sampled":       "codec",
		"onBusResample": "skip: busResample bound once in newCPU; rebuildEvent hands it to the restored k.bus-resample event",
	})
	snapshot.RegisterState(frame{}, snapshot.Manifest{
		"kind":       "codec",
		"task":       "codec", // by PID
		"seg":        "codec", // by index into the owning call's segment list
		"workLeft":   "codec",
		"lastAccrue": "codec",
		"armed":      "codec", // the flag here; its completion is the CPU's doneTimer, re-armed from the engine section
		"locks":      "codec", // by name
		"irqsOff":    "codec",
		"irq":        "codec", // by line index (-1 = the CPU's local timer)
		"spin":       "codec", // by name
		"acquired":   "codec",
		"spinSince":  "codec",
		"suspended":  "codec",
		"spinWhy":    "codec",
		"began":      "codec",
		"complete":   "skip: must be nil at snapshot (checked loudly) — ActionCompleter behaviors need no captured closure",
		"pooled":     "skip: free-list mark, false on every stack or saved frame",
	})
	snapshot.RegisterState(Task{}, snapshot.Manifest{
		"PID":       "codec", // validated against the reconstructed machine
		"Name":      "codec", // validated against the reconstructed machine
		"Policy":    "skip: construction-fixed; task identity is validated by PID+Name",
		"RTPrio":    "skip: construction-fixed; task identity is validated by PID+Name",
		"Nice":      "codec",
		"affinity":  "codec",
		"MemLocked": "codec",
		"kern":      "skip: construction back-pointer",
		"state":     "codec",
		"cpu":       "codec", // by id
		"behavior":  "codec", // SnapBehavior name (validated) + opaque state words
		"rng":       "codec",
		"saved":     "codec",
		"call":      "codec",
		"callBuf":   "skip: storage behind call, serialised through it; idle callBuf contents are dead",
		"waitOn":    "codec", // by registered queue id
		"sliceLeft": "codec",
		"Switches":  "codec",
		"Migrated":  "codec",
		"RunTime":   "codec",
		"lastQueue": "codec",
	})
	snapshot.RegisterState(WaitQueue{}, snapshot.Manifest{
		"Name":    "codec", // validated against the reconstructed machine
		"waiters": "codec", // by PID
		"id":      "skip: registration-order identity, identical by construction and validated by section order",
	})
	snapshot.RegisterState(SpinLock{}, snapshot.Manifest{
		"Name":         "codec",
		"holder":       "codec", // by CPU id
		"waiters":      "codec",
		"Acquisitions": "codec",
		"Contentions":  "codec",
		"TotalSpin":    "codec",
		"MaxHold":      "codec",
		"heldAt":       "codec",
		"heldOnce":     "codec",
	})
	snapshot.RegisterState(lockWaiter{}, snapshot.Manifest{
		"cpu":     "codec", // by id
		"since":   "codec",
		"active":  "codec", // rebuilt via spinActiveFn from the CPU's restored spin frame
		"granted": "codec", // rebuilt via spinGrantedFn from the CPU's restored spin frame
	})
	snapshot.RegisterState(timerWheel{}, snapshot.Manifest{
		"k":          "skip: construction back-pointer",
		"jiffies":    "codec",
		"tv1":        "codec", // positional: (level, index) per timer, so mid-cascade layout survives
		"tv":         "codec",
		"pendingRun": "skip: must be empty at snapshot (checked loudly) — runWheelTick drains it synchronously within one event",
		"Added":      "codec",
		"Fired":      "codec",
	})
	snapshot.RegisterState(KTimer{}, snapshot.Manifest{
		"expires": "codec",
		"fn":      "codec", // rebuilt from tag through the registered event-kind rebuilder
		"active":  "skip: lazily-deleted timers are dropped at snapshot — they have no observable future",
		"tag":     "codec",
	})
	snapshot.RegisterState(IRQLine{}, snapshot.Manifest{
		"Num":         "skip: construction identity (registration order)",
		"Name":        "skip: construction identity",
		"kern":        "skip: construction back-pointer",
		"affinity":    "codec",
		"Fast":        "skip: construction-fixed handler class",
		"HandlerWork": "skip: construction closure, deterministic from config",
		"OnHandle":    "skip: construction closure (device side effects), deterministic from config",
		"rng":         "codec",
		"rr":          "codec",
		"Raised":      "codec",
		"Handled":     "codec",
		"PerCPU":      "codec",
	})
	snapshot.RegisterState(syscallCall{}, snapshot.Manifest{
		"def":        "codec", // name + flag word; validated to exist
		"segs":       "codec", // the post-split list actually executing
		"idx":        "codec",
		"heldBKL":    "codec",
		"onComplete": "skip: must be nil at snapshot (checked loudly) — ActionCompleter behaviors need no captured closure",
		"split":      "skip: scratch buffer behind segs, serialised through it",
	})
	snapshot.RegisterState(Segment{}, snapshot.Manifest{
		"Kind":       "codec",
		"D":          "codec",
		"Lock":       "codec", // by name
		"IRQsOff":    "codec",
		"NonPreempt": "codec",
		"SchedPoint": "codec",
		"Wait":       "codec", // by registered queue id
		"OnDone":     "codec", // rebuilt from DoneTag through the registered event-kind rebuilder
		"DoneTag":    "codec",
	})
	snapshot.RegisterState(SyscallCall{}, snapshot.Manifest{
		"Name":                "codec",
		"Segments":            "codec", // restored as the executing call's post-split list
		"TakesBKL":            "codec", // packed into the call's flag word
		"DriverNoBKL":         "codec",
		"ReacquireBKLOnBlock": "codec",
	})
	snapshot.RegisterState(CPUTimes{}, snapshot.Manifest{
		"User":    "codec",
		"System":  "codec",
		"IRQ":     "codec",
		"Softirq": "codec",
		"Spin":    "codec",
	})
	snapshot.RegisterState(loadavg{}, snapshot.Manifest{
		"one":     "codec",
		"five":    "codec",
		"fifteen": "codec",
	})
	snapshot.RegisterState(o1Scheduler{}, snapshot.Manifest{
		"k":   "skip: construction back-pointer",
		"rqs": "codec",
	})
	snapshot.RegisterState(o1Runqueue{}, snapshot.Manifest{
		"queues": "codec", // per-slot PID lists, re-Enqueued in order
		"bitmap": "skip: derived — recomputed by add() during re-Enqueue",
		"nr":     "skip: derived — recomputed by add() during re-Enqueue",
	})
	snapshot.RegisterState(legacyScheduler{}, snapshot.Manifest{
		"k":   "skip: construction back-pointer",
		"run": "codec", // (PID, cpu) pairs, re-Enqueued in order
	})
	snapshot.RegisterState(ksoftirqdBehavior{}, snapshot.Manifest{
		"c":        "skip: construction back-pointer",
		"running":  "codec", // BehaviorState word 0
		"runStart": "codec", // BehaviorState word 1
	})
}
