package workload

import (
	"repro/internal/dev"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// DiskNoise reproduces the second determinism-test script (§5.1): a shell
// loop that recursively concatenates files in /tmp, growing them until a
// reset. It is page-cache-heavy: every iteration reads and writes through
// the fs layers (taking fs locks), and the dirtied pages drain to disk as
// asynchronous writeback that completes via disk interrupts and BLOCK
// bottom halves.
type DiskNoise struct {
	disk *dev.Disk

	k      *kernel.Kernel
	ioDone *kernel.WaitQueue
	id     uint64

	// The shell loop's state: the growing file set, the phase within
	// one iteration, and the accumulated dirty bytes.
	size  int
	step  int
	dirty int

	Iterations uint64
}

// NewDiskNoise returns the script model.
func NewDiskNoise(disk *dev.Disk) *DiskNoise {
	return &DiskNoise{disk: disk}
}

// Name implements Workload.
func (d *DiskNoise) Name() string { return "disknoise" }

// dirtyThreshold is the write-throttling point: once this many dirty
// bytes accumulate, the writer blocks until the disk catches up, exactly
// the way 2.4's bdflush throttled heavy page-cache writers. This is what
// keeps the script's CPU duty cycle disk-bound rather than 100%.
const dirtyThreshold = 512 << 10

// flush submits the dirty set to the disk with the throttled writer's
// wakeup attached. It is the writeback segment's OnDone, reconstructed
// from its tag (component id, flush bytes) across a snapshot.
func (d *DiskNoise) flush(bytes int) {
	d.disk.Submit(bytes, d.ioDone)
}

// diskNoiseBehavior drives the shell loop; all state lives on the
// DiskNoise component.
type diskNoiseBehavior struct {
	d    *DiskNoise
	call kernel.SyscallCall // fsSyscall's reusable definition
}

func (b *diskNoiseBehavior) Next(t *kernel.Task) kernel.Action {
	d := b.d
	k := d.k
	rng := t.RNG()
	if d.dirty > dirtyThreshold && d.disk != nil {
		// Writeback throttling: submit the dirty set synchronously
		// and wait for the completion interrupt.
		flush := d.dirty
		d.dirty = 0
		return kernel.Syscall(&kernel.SyscallCall{
			Name: "writeback-wait",
			Segments: []kernel.Segment{
				{Kind: kernel.SegWork, D: rng.Uniform(30*sim.Microsecond, 150*sim.Microsecond),
					Lock:    k.NamedLock("io"),
					OnDone:  func() { d.flush(flush) },
					DoneTag: evDiskNoiseFlush.Tag(d.id, uint64(flush), 0)},
				{Kind: kernel.SegBlock, Wait: d.ioDone},
				{Kind: kernel.SegWork, D: rng.Uniform(5*sim.Microsecond, 30*sim.Microsecond)},
			},
		})
	}
	d.step++
	switch d.step % 3 {
	case 0:
		// The `cat * > $f` iteration: read+write through the page
		// cache. Kernel residency grows with the file set.
		d.Iterations++
		residency := sim.Duration(d.size/2)*sim.Nanosecond + rng.Exp(40*sim.Microsecond)
		if residency > 3*sim.Millisecond {
			residency = 3 * sim.Millisecond
		}
		d.size *= 2
		if d.size > 4<<20 {
			// `rm *; echo boo >9`: reset, with a metadata burst.
			d.size = 1024
			return kernel.Syscall(fsSyscall(&b.call, k, rng, "unlink*", rng.Uniform(100*sim.Microsecond, 600*sim.Microsecond)))
		}
		d.dirty += d.size / 2
		return kernel.Syscall(fsSyscall(&b.call, k, rng, "cat", residency))
	case 1:
		// Shell forking/glob expansion: a bit of user CPU.
		return kernel.Compute(rng.Uniform(100*sim.Microsecond, 500*sim.Microsecond))
	default:
		// expr, test, echo: short syscalls.
		return kernel.Syscall(fsSyscall(&b.call, k, rng, "sh-builtin", rng.Uniform(10*sim.Microsecond, 80*sim.Microsecond)))
	}
}

func (b *diskNoiseBehavior) BehaviorName() string            { return "wl.disknoise" }
func (b *diskNoiseBehavior) BehaviorState() []uint64         { return nil }
func (b *diskNoiseBehavior) SetBehaviorState(words []uint64) {}

// Start implements Workload.
func (d *DiskNoise) Start(k *kernel.Kernel) {
	d.k = k
	d.size = 1024
	d.ioDone = k.NewWaitQueue("disknoise-io")
	d.id = k.RegisterComponent(d)
	k.NewTask("disknoise", kernel.SchedOther, 0, 0, &diskNoiseBehavior{d: d})
}
