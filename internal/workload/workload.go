// Package workload implements the background loads from the paper's
// evaluation: the scp-flood and disknoise scripts used for the execution
// determinism tests (§5.1), the Red Hat stress-kernel suite used for the
// interrupt response tests (§6.1), and the X11perf and ttcp loads added in
// the final experiment (§6.3).
//
// Each generator creates SCHED_OTHER tasks and/or device traffic on a
// kernel.Kernel. The point of a workload here is the *kernel activity* it
// induces — syscall residency, spinlock traffic, interrupt and softirq
// load — not its computational output.
package workload

import (
	"repro/internal/kernel"
	"repro/internal/sim"
)

// Workload is anything that can be installed on a machine.
type Workload interface {
	// Start creates the workload's tasks and begins its device traffic.
	// It must be called before kernel.Start.
	Start(k *kernel.Kernel)
	// Name identifies the workload in reports.
	Name() string
}

// fsLocks are the contended 2.4 file-system locks. Splitting them the way
// the real kernel does matters for the shielded-CPU tail (Figure 6): the
// RT read path only collides with holders of the *same* lock.
var fsLocks = []string{"dcache", "inode", "pagecache"}

// reuse fills buf with the syscall name executing segs, keeping buf's
// segment storage, and returns buf. A behavior builds its segments in a
// literal (which stays on the stack) and hands the kernel its one
// reusable definition: a task has one call in flight, and the kernel
// drops the definition at syscall exit, before it asks for the next
// action.
func reuse(buf *kernel.SyscallCall, name string, segs []kernel.Segment) *kernel.SyscallCall {
	*buf = kernel.SyscallCall{Name: name, Segments: append(buf.Segments[:0], segs...)}
	return buf
}

// fsSyscall builds a file-system syscall with the given total kernel
// residency into the caller's reusable buf (see reuse). A fraction of
// the residency holds one of the contended fs locks; the rest is
// preemptible kernel work. Long residencies are exactly the §6
// pathology on stock kernels; on kernels with low-latency work the
// engine splits them automatically.
func fsSyscall(buf *kernel.SyscallCall, k *kernel.Kernel, rng *sim.RNG, name string, residency sim.Duration) *kernel.SyscallCall {
	lockFrac := 0.15 + 0.25*rng.Float64()
	locked := residency.Scale(lockFrac)
	rest := residency - locked
	lock := k.NamedLock(fsLocks[rng.Intn(len(fsLocks))])
	call := kernel.SyscallCall{
		Name: name,
		Segments: []kernel.Segment{
			//simlint:allow latbound the residency is the caller's heavy-tailed draw — the §6 pathology stock kernels cannot bound; capped kernels bound the hold via splitSegments
			{Kind: kernel.SegWork, D: rest / 2},
			{Kind: kernel.SegWork, D: locked, Lock: lock}, //simlint:allow latbound the fs-lock hold is a fraction of the heavy-tailed residency; finite only under the critical-section cap
			{Kind: kernel.SegWork, D: rest - rest/2},
		},
	}
	// 2.4 file-system paths still serialize on the Big Kernel Lock
	// surprisingly often; RedHawk's BKL hold time reduction (§1) pushed
	// the lock out of most of them.
	bklProb := 0.12
	if k.Cfg.BKLHoldReduction {
		bklProb = 0.015
	}
	if rng.Bool(bklProb) {
		call.TakesBKL = true
	}
	reuse(buf, name, call.Segments)
	buf.TakesBKL = call.TakesBKL
	return buf
}

// residencyTail draws a heavy-tailed kernel residency: most calls are
// quick, the tail reaches `cap` — the distribution behind the 92 ms
// worst case of Figure 5.
func residencyTail(rng *sim.RNG, typical sim.Duration, alpha float64, cap sim.Duration) sim.Duration {
	return rng.Pareto(typical, alpha, cap)
}

// netSoftirqHere raises network softirq work on the CPU the task is
// currently on — loopback traffic (NFS over lo, ttcp over lo) is
// processed locally, without a hardware interrupt.
func netSoftirqHere(t *kernel.Task, vec kernel.SoftirqVec, work sim.Duration) {
	cpu := t.CPU()
	if cpu < 0 {
		cpu = 0
	}
	t.Kernel().CPU(cpu).RaiseSoftirq(vec, work)
}
