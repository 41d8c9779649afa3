package workload

import (
	"repro/internal/dev"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// X11Perf reproduces the graphics load of the final experiment (§6.3):
// the X server runs the x11perf benchmark on the console, continuously
// stuffing the GPU command FIFO. Each batch costs X server CPU, a short
// driver ioctl (which on a stock kernel takes the BKL — part of why
// graphics activity was poison for latency), and a FIFO-drain interrupt
// with tasklet work.
type X11Perf struct {
	gpu *dev.GPU

	Batches uint64
}

// NewX11Perf returns the load.
func NewX11Perf(gpu *dev.GPU) *X11Perf {
	return &X11Perf{gpu: gpu}
}

// Name implements Workload.
func (x *X11Perf) Name() string { return "x11perf" }

// xserver drives the batch loop; the submit happens in ActionDone so a
// snapshot mid-ioctl still submits exactly once on the restored side.
type xserver struct {
	phaseBehavior
	x    *X11Perf
	call kernel.SyscallCall // reused: one ioctl or socket call in flight
}

func (b *xserver) Next(t *kernel.Task) kernel.Action {
	rng := t.RNG()
	b.phase++
	switch b.phase % 3 {
	case 0: // build the rendering batch
		return kernel.Compute(rng.Uniform(500*sim.Microsecond, 3*sim.Millisecond))
	case 1: // submit via the DRM-ish ioctl; legacy driver wants the BKL
		// The literal shows latbound the BKL hold. It stays on the
		// stack as long as only its segments reach reuse.
		ioctl := kernel.SyscallCall{
			TakesBKL: true,
			Segments: []kernel.Segment{
				{Kind: kernel.SegWork, D: rng.Uniform(10*sim.Microsecond, 80*sim.Microsecond)},
			},
		}
		reuse(&b.call, "ioctl(gfx)", ioctl.Segments).TakesBKL = true
		return kernel.Syscall(&b.call)
	default: // handle client requests
		return kernel.Syscall(fsSyscall(&b.call, t.Kernel(), rng, "x11-sock",
			rng.Uniform(10*sim.Microsecond, 100*sim.Microsecond)))
	}
}

func (b *xserver) ActionDone(t *kernel.Task, kind kernel.ActionKind, now sim.Time) {
	if kind == kernel.ActSyscall && b.phase%3 == 1 {
		b.x.Batches++
		b.x.gpu.SubmitBatch(t.RNG().Uniform(sim.Millisecond, 4*sim.Millisecond))
	}
}

func (b *xserver) BehaviorName() string { return "wl.x11perf-xserver" }

// The batch count lives on the X11Perf load but is driven only by this
// task, so it rides in the behavior's state words.
func (b *xserver) BehaviorState() []uint64 { return []uint64{b.phase, b.x.Batches} }
func (b *xserver) SetBehaviorState(words []uint64) {
	b.phase = words[0]
	b.x.Batches = words[1]
}

// Start implements Workload.
func (x *X11Perf) Start(k *kernel.Kernel) {
	k.NewTask("Xserver", kernel.SchedOther, 0, 0, &xserver{x: x})
}

// TTCPNet reproduces the network load of the final experiment: the ttcp
// benchmark reading and writing data across a 10BaseT Ethernet connection
// — a steady bidirectional stream of NIC interrupts and protocol work,
// plus a driver task.
type TTCPNet struct {
	nic *dev.NIC
	// RateBytesPerSec is the wire rate (10BaseT ≈ 1.1 MB/s).
	RateBytesPerSec float64
	BatchBytes      int

	k   *kernel.Kernel
	rng *sim.RNG
	id  uint64
	// dir alternates the wire between rx and tx batches.
	dir uint64

	// onPump is pump, bound once in Start so re-arming allocates nothing.
	onPump func()
}

// NewTTCPNet returns the load at 10BaseT defaults.
func NewTTCPNet(nic *dev.NIC) *TTCPNet {
	return &TTCPNet{nic: nic, RateBytesPerSec: 1.1e6, BatchBytes: 1500}
}

// Name implements Workload.
func (t *TTCPNet) Name() string { return "ttcp-net" }

// ttcpNetProc is the ttcp process: copies between socket and user
// buffers.
type ttcpNetProc struct{}

func (ttcpNetProc) Next(task *kernel.Task) kernel.Action {
	r := task.RNG()
	if r.Bool(0.5) {
		return kernel.Syscall(&kernel.SyscallCall{
			Name: "rw(sock)",
			Segments: []kernel.Segment{
				{Kind: kernel.SegWork, D: r.Uniform(10*sim.Microsecond, 60*sim.Microsecond),
					Lock: task.Kernel().NamedLock("net")},
			},
		})
	}
	return kernel.Sleep(r.Uniform(200*sim.Microsecond, 2*sim.Millisecond))
}

func (ttcpNetProc) BehaviorName() string            { return "wl.ttcp-net-proc" }
func (ttcpNetProc) BehaviorState() []uint64         { return nil }
func (ttcpNetProc) SetBehaviorState(words []uint64) {}

// Start implements Workload.
func (t *TTCPNet) Start(k *kernel.Kernel) {
	t.k = k
	t.rng = k.Eng.RNG().Fork()
	t.id = k.RegisterComponent(t)
	t.onPump = t.pump
	interval := t.interval()
	k.Eng.AfterTagged(t.rng.Uniform(0, interval), evTTCPPump.Tag(t.id, 0, 0), t.onPump)
	k.NewTask("ttcp", kernel.SchedOther, 0, 0, ttcpNetProc{})
}

func (t *TTCPNet) interval() sim.Duration {
	return sim.Duration(float64(t.BatchBytes) / t.RateBytesPerSec * 1e9)
}

// pump is the wire event: alternating rx/tx batches.
func (t *TTCPNet) pump() {
	t.dir++
	if t.dir%2 == 0 {
		t.nic.Receive(t.BatchBytes)
	} else {
		t.nic.Transmit(t.BatchBytes)
	}
	t.k.Eng.AfterTagged(t.rng.Jitter(t.interval(), 0.3), evTTCPPump.Tag(t.id, 0, 0), t.onPump)
}

// SnapName implements kernel.SnapComponent.
func (t *TTCPNet) SnapName() string { return "wl.ttcp-net" }

// SnapVisit implements kernel.SnapComponent.
func (t *TTCPNet) SnapVisit(c *snapshot.Codec) {
	if !c.Section(t.SnapName()) {
		return
	}
	t.rng.Visit(c, 1)
	c.U64(2, &t.dir)
	c.End()
}
