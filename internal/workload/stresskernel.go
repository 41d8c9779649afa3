package workload

import (
	"fmt"

	"repro/internal/dev"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// StressKernel reproduces the Red Hat stress-kernel RPM load used for the
// interrupt response tests (§6.1), the same workload as Clark Williams'
// scheduler latency study [5]. Six programs run concurrently:
//
//	NFS-COMPILE — repeated kernel compilation over loopback NFS
//	TTCP        — bulk data over the loopback device
//	FIFOS_MMAP  — FIFO ping-pong alternating with mmap'd file ops
//	P3_FPU      — floating-point matrix operations (pure CPU)
//	FS          — pathological file-system operations (holes, truncates)
//	CRASHME     — random byte streams executed as code (faults galore)
//
// What matters for latency is the kernel activity each induces: long
// syscall residencies (FS, CRASHME), fs-spinlock traffic (all the file
// work), loopback softirq storms (NFS, TTCP), page faults (CRASHME,
// FIFOS_MMAP) and raw CPU pressure (P3_FPU, compiles).
type StressKernel struct {
	disk *dev.Disk

	// ResidencyCap bounds the heaviest single kernel entry. The 2.4
	// stock kernel's worst observed sections under this load were tens
	// of milliseconds (Figure 5 tops out at ~92 ms).
	ResidencyCap sim.Duration
	// Compilers is the number of parallel compile tasks.
	Compilers int
}

// NewStressKernel returns the suite with paper-era defaults.
func NewStressKernel(disk *dev.Disk) *StressKernel {
	return &StressKernel{
		disk:         disk,
		ResidencyCap: 90 * sim.Millisecond,
		Compilers:    2,
	}
}

// Name implements Workload.
func (s *StressKernel) Name() string { return "stress-kernel" }

// Start implements Workload.
func (s *StressKernel) Start(k *kernel.Kernel) {
	s.startNFSCompile(k)
	s.startTTCPLoop(k)
	s.startFIFOSMmap(k)
	s.startP3FPU(k)
	s.startFS(k)
	s.startCrashme(k)
}

// phaseBehavior carries the one counter every stress program keeps; the
// concrete behaviors embed it so the counter crosses snapshots as one
// word.
type phaseBehavior struct {
	phase uint64
}

func (b *phaseBehavior) BehaviorState() []uint64         { return []uint64{b.phase} }
func (b *phaseBehavior) SetBehaviorState(words []uint64) { b.phase = words[0] }

// nfsCompile: cc1 burns CPU in bursts; every file involves NFS RPCs
// over loopback (local softirq work) and fs operations.
type nfsCompile struct {
	phaseBehavior
	s    *StressKernel
	call kernel.SyscallCall
}

func (b *nfsCompile) Next(t *kernel.Task) kernel.Action {
	s := b.s
	k := t.Kernel()
	rng := t.RNG()
	b.phase++
	switch b.phase % 4 {
	case 0: // compile a unit
		return kernel.Compute(rng.Exp(25 * sim.Millisecond))
	case 1: // read sources via NFS: RPC + protocol work locally
		netSoftirqHere(t, kernel.SoftirqNetRx, rng.Uniform(20*sim.Microsecond, 120*sim.Microsecond))
		return kernel.Syscall(fsSyscall(&b.call, k, rng, "nfs-read",
			residencyTail(rng, 25*sim.Microsecond, 1.5, s.ResidencyCap/3)))
	case 2: // write the object file back over NFS
		netSoftirqHere(t, kernel.SoftirqNetTx, rng.Uniform(15*sim.Microsecond, 80*sim.Microsecond))
		if s.disk != nil && rng.Bool(0.3) {
			s.disk.Submit(64<<10, nil)
		}
		return kernel.Syscall(fsSyscall(&b.call, k, rng, "nfs-write",
			residencyTail(rng, 22*sim.Microsecond, 1.5, s.ResidencyCap/3)))
	default: // link/stat bookkeeping
		return kernel.Syscall(fsSyscall(&b.call, k, rng, "stat", rng.Uniform(5*sim.Microsecond, 60*sim.Microsecond)))
	}
}

func (b *nfsCompile) BehaviorName() string { return "wl.stress-nfs-compile" }

func (s *StressKernel) startNFSCompile(k *kernel.Kernel) {
	for i := 0; i < s.Compilers; i++ {
		name := fmt.Sprintf("cc1-%d", i)
		k.NewTask(name, kernel.SchedOther, 0, 0, &nfsCompile{s: s})
	}
}

// ttcpTx / ttcpRx: bulk transfer over loopback — sender and receiver
// tasks exchanging via a wait queue, with protocol softirq work per
// chunk. The post-syscall protocol work runs from the ActionDone hook,
// so it survives a snapshot taken while the send is in flight.
const ttcpChunk = 64 << 10

type ttcpTx struct {
	phaseBehavior
	dataReady *kernel.WaitQueue
	call      kernel.SyscallCall // reused: one send in flight
}

func (b *ttcpTx) Next(t *kernel.Task) kernel.Action {
	rng := t.RNG()
	b.phase++
	if b.phase%2 == 0 {
		// User-mode buffer fill between sends.
		return kernel.Compute(rng.Uniform(80*sim.Microsecond, 400*sim.Microsecond))
	}
	return kernel.Syscall(reuse(&b.call, "send(lo)", []kernel.Segment{
		{Kind: kernel.SegWork, D: rng.Uniform(20*sim.Microsecond, 90*sim.Microsecond),
			Lock: t.Kernel().NamedLock("net")},
	}))
}

func (b *ttcpTx) ActionDone(t *kernel.Task, kind kernel.ActionKind, now sim.Time) {
	if kind != kernel.ActSyscall {
		return
	}
	// Loopback skips the wire-driver costs: ~1.5µs/KB.
	netSoftirqHere(t, kernel.SoftirqNetTx, sim.Duration(ttcpChunk/1024)*1500*sim.Nanosecond)
	t.Kernel().WakeAll(b.dataReady, nil)
}

func (b *ttcpTx) BehaviorName() string { return "wl.stress-ttcp-tx" }

type ttcpRx struct {
	phaseBehavior
	dataReady *kernel.WaitQueue
	call      kernel.SyscallCall // reused: one receive in flight
}

func (b *ttcpRx) Next(t *kernel.Task) kernel.Action {
	rng := t.RNG()
	b.phase++
	if b.phase%2 == 0 {
		return kernel.Compute(rng.Uniform(60*sim.Microsecond, 300*sim.Microsecond))
	}
	return kernel.Syscall(reuse(&b.call, "recv(lo)", []kernel.Segment{
		{Kind: kernel.SegBlock, Wait: b.dataReady},
		{Kind: kernel.SegWork, D: rng.Uniform(15*sim.Microsecond, 70*sim.Microsecond)},
	}))
}

func (b *ttcpRx) ActionDone(t *kernel.Task, kind kernel.ActionKind, now sim.Time) {
	if kind != kernel.ActSyscall {
		return
	}
	netSoftirqHere(t, kernel.SoftirqNetRx, sim.Duration(ttcpChunk/1024)*2*sim.Microsecond)
}

func (b *ttcpRx) BehaviorName() string { return "wl.stress-ttcp-rx" }

func (s *StressKernel) startTTCPLoop(k *kernel.Kernel) {
	dataReady := k.NewWaitQueue("ttcp-lo")
	k.NewTask("ttcp-tx", kernel.SchedOther, 0, 0, &ttcpTx{dataReady: dataReady})
	k.NewTask("ttcp-rx", kernel.SchedOther, 0, 0, &ttcpRx{dataReady: dataReady})
}

// fifosA / fifosB: a writer pushes data through a FIFO to a reader, both
// alternating with operations on an mmap'd file (page faults: the tasks
// do not mlock). The writer never blocks on the FIFO, so the pair cannot
// deadlock on a lost wakeup; data flow is writer-paced.
type fifosA struct {
	phaseBehavior
	fifo *kernel.WaitQueue
	call kernel.SyscallCall // reused: one write in flight
}

func (b *fifosA) Next(t *kernel.Task) kernel.Action {
	rng := t.RNG()
	b.phase++
	switch b.phase % 3 {
	case 0: // write into the FIFO, waking the reader (from ActionDone)
		return kernel.Syscall(reuse(&b.call, "fifo-write", []kernel.Segment{
			{Kind: kernel.SegWork, D: rng.Uniform(5*sim.Microsecond, 40*sim.Microsecond),
				Lock: t.Kernel().NamedLock("inode")},
		}))
	case 1: // mmap'd file pass: user-mode touching with page faults
		return kernel.Compute(rng.Uniform(50*sim.Microsecond, 400*sim.Microsecond))
	default: // pace the stream
		return kernel.Sleep(rng.Uniform(50*sim.Microsecond, 300*sim.Microsecond))
	}
}

func (b *fifosA) ActionDone(t *kernel.Task, kind kernel.ActionKind, now sim.Time) {
	if kind == kernel.ActSyscall && b.phase%3 == 0 {
		t.Kernel().WakeAll(b.fifo, nil)
	}
}

func (b *fifosA) BehaviorName() string { return "wl.stress-fifos-a" }

type fifosB struct {
	phaseBehavior
	fifo *kernel.WaitQueue
	call kernel.SyscallCall // reused: one read in flight
}

func (b *fifosB) Next(t *kernel.Task) kernel.Action {
	rng := t.RNG()
	b.phase++
	if b.phase%2 == 1 {
		return kernel.Syscall(reuse(&b.call, "fifo-read", []kernel.Segment{
			{Kind: kernel.SegBlock, Wait: b.fifo},
			{Kind: kernel.SegWork, D: rng.Uniform(5*sim.Microsecond, 30*sim.Microsecond),
				Lock: t.Kernel().NamedLock("inode")},
		}))
	}
	return kernel.Compute(rng.Uniform(50*sim.Microsecond, 400*sim.Microsecond))
}

func (b *fifosB) BehaviorName() string { return "wl.stress-fifos-b" }

func (s *StressKernel) startFIFOSMmap(k *kernel.Kernel) {
	fifo := k.NewWaitQueue("fifo")
	k.NewTask("fifos-a", kernel.SchedOther, 0, 0, &fifosA{fifo: fifo})
	k.NewTask("fifos-b", kernel.SchedOther, 0, 0, &fifosB{fifo: fifo})
}

// p3fpu: the pure floating-point hog.
type p3fpu struct{}

func (p3fpu) Next(t *kernel.Task) kernel.Action {
	return kernel.Compute(t.RNG().Exp(15 * sim.Millisecond))
}

func (p3fpu) BehaviorName() string            { return "wl.stress-p3-fpu" }
func (p3fpu) BehaviorState() []uint64         { return nil }
func (p3fpu) SetBehaviorState(words []uint64) {}

func (s *StressKernel) startP3FPU(k *kernel.Kernel) {
	k.NewTask("p3_fpu", kernel.SchedOther, 0, 0, p3fpu{})
}

// fsStress: "all sorts of unnatural acts on a set of files" — the
// heavy-tailed kernel residencies that dominate Figure 5's worst case.
type fsStress struct {
	phaseBehavior
	s    *StressKernel
	call kernel.SyscallCall
}

func (b *fsStress) Next(t *kernel.Task) kernel.Action {
	s := b.s
	k := t.Kernel()
	rng := t.RNG()
	b.phase++
	switch {
	case b.phase%10 == 0:
		// Truncate/extend a huge holey file: the long one — the
		// residency class behind the stock kernel's ~90ms tail.
		if s.disk != nil {
			s.disk.Submit(256<<10, nil)
		}
		return kernel.Syscall(fsSyscall(&b.call, k, rng, "truncate",
			residencyTail(rng, 150*sim.Microsecond, 0.95, s.ResidencyCap)))
	case b.phase%2 == 0:
		// Buffer preparation between file operations (user mode).
		return kernel.Compute(rng.Uniform(100*sim.Microsecond, 800*sim.Microsecond))
	default:
		return kernel.Syscall(fsSyscall(&b.call, k, rng, "fs-op",
			residencyTail(rng, 18*sim.Microsecond, 1.5, s.ResidencyCap/6)))
	}
}

func (b *fsStress) BehaviorName() string { return "wl.stress-fs" }

func (s *StressKernel) startFS(k *kernel.Kernel) {
	k.NewTask("fs-stress", kernel.SchedOther, 0, 0, &fsStress{s: s})
}

// crashme: random instruction streams — short user bursts ending in
// faults the kernel must clean up, occasionally wedging into long
// exception/teardown paths.
type crashme struct {
	s    *StressKernel
	call kernel.SyscallCall // reused: one fault in flight
}

func (b *crashme) Next(t *kernel.Task) kernel.Action {
	rng := t.RNG()
	if rng.Bool(0.7) {
		return kernel.Compute(rng.Uniform(20*sim.Microsecond, 300*sim.Microsecond))
	}
	// Fault handling: mostly quick fixups, occasionally a heavy
	// teardown (core dump-ish) with real residency.
	res := residencyTail(rng, 20*sim.Microsecond, 1.25, b.s.ResidencyCap/2)
	return kernel.Syscall(reuse(&b.call, "fault", []kernel.Segment{
		{Kind: kernel.SegWork, D: res.Scale(0.6)},
		{Kind: kernel.SegWork, D: res.Scale(0.4), NonPreempt: true},
	}))
}

func (b *crashme) BehaviorName() string            { return "wl.stress-crashme" }
func (b *crashme) BehaviorState() []uint64         { return nil }
func (b *crashme) SetBehaviorState(words []uint64) {}

func (s *StressKernel) startCrashme(k *kernel.Kernel) {
	k.NewTask("crashme", kernel.SchedOther, 0, 0, &crashme{s: s})
}
