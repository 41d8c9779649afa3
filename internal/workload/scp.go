package workload

import (
	"repro/internal/dev"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// ScpFlood reproduces the first determinism-test load script (§5.1): a
// foreign system runs `while true; do scp bzImage wahoo:/tmp; done`,
// flooding the Ethernet with a compressed kernel image over and over.
//
// Locally that means: a stream of receive interrupts and NET_RX bottom-
// half work while a transfer is in flight, an sshd task that burns CPU
// decrypting and issues file-system writes, and writeback disk traffic.
type ScpFlood struct {
	// ImageBytes is the size of the copied kernel image.
	ImageBytes int
	// RateBytesPerSec is the wire throughput during a transfer.
	RateBytesPerSec float64
	// GapMs is the pause between copies (ssh setup of the next scp).
	Gap sim.Duration
	// BatchBytes is how many bytes the NIC coalesces per interrupt.
	BatchBytes int

	nic  *dev.NIC
	disk *dev.Disk

	k       *kernel.Kernel
	rng     *sim.RNG
	sshWake *kernel.WaitQueue
	id      uint64

	// pendingBytes is delivered-but-not-yet-decrypted data waiting for
	// sshd; remaining is what is left of the in-flight transfer.
	pendingBytes int
	remaining    int

	Transfers uint64

	// Event bodies, bound once in Start so re-arming allocates nothing.
	onStart   func()
	onDeliver func()
	// readCall is sshd's blocking socket read; it carries no per-call
	// state, so every read reuses it.
	readCall *kernel.SyscallCall
}

// NewScpFlood returns the load with the paper-era defaults: a ~1.2 MB
// bzImage at 100BaseT speeds with per-few-frames interrupt coalescing.
func NewScpFlood(nic *dev.NIC, disk *dev.Disk) *ScpFlood {
	return &ScpFlood{
		ImageBytes:      1_200_000,
		RateBytesPerSec: 11e6,
		Gap:             150 * sim.Millisecond,
		// The 3c905C driver in 2.4 takes an interrupt per frame at
		// these rates; no effective coalescing.
		BatchBytes: 1500,
		nic:        nic,
		disk:       disk,
	}
}

// Name implements Workload.
func (s *ScpFlood) Name() string { return "scp-flood" }

// scpSshd is the sshd task's behavior: woken as data arrives, it
// decrypts (CPU) and the transfer driver writes the file out through
// writeback disk traffic. All mutable state lives on the ScpFlood
// component, so the behavior itself serialises as zero words.
type scpSshd struct {
	s *ScpFlood
}

func (b *scpSshd) Next(t *kernel.Task) kernel.Action {
	s := b.s
	if s.pendingBytes <= 0 {
		return kernel.Syscall(s.readCall)
	}
	chunk := s.pendingBytes
	if chunk > 128<<10 {
		chunk = 128 << 10
	}
	s.pendingBytes -= chunk
	// Blowfish-era ssh decryption: ~40 ns/byte at 1 GHz (scp was
	// nearly CPU-bound on 2002 hardware).
	decrypt := sim.Duration(chunk) * 40 * sim.Nanosecond
	return kernel.Compute(s.rng.Jitter(decrypt, 0.2))
}

func (b *scpSshd) BehaviorName() string            { return "wl.scp-sshd" }
func (b *scpSshd) BehaviorState() []uint64         { return nil }
func (b *scpSshd) SetBehaviorState(words []uint64) {}

// Start implements Workload.
func (s *ScpFlood) Start(k *kernel.Kernel) {
	s.k = k
	s.rng = k.Eng.RNG().Fork()
	s.sshWake = k.NewWaitQueue("sshd-data")
	s.id = k.RegisterComponent(s)
	s.onStart, s.onDeliver = s.startTransfer, s.deliver
	s.readCall = &kernel.SyscallCall{
		Name:     "read(ssh-sock)",
		Segments: []kernel.Segment{{Kind: kernel.SegBlock, Wait: s.sshWake}},
	}

	k.NewTask("sshd", kernel.SchedOther, 0, 0, &scpSshd{s: s})

	// The wire: one transfer = ImageBytes delivered in BatchBytes
	// interrupts at RateBytesPerSec, then a gap, forever.
	k.Eng.AfterTagged(s.rng.Uniform(0, 20*sim.Millisecond),
		evScpStart.Tag(s.id, 0, 0), s.onStart)
}

// startTransfer begins one scp copy.
func (s *ScpFlood) startTransfer() {
	s.Transfers++
	s.remaining = s.ImageBytes
	s.deliver()
}

// batchInterval is the wire time for one coalesced interrupt's bytes.
func (s *ScpFlood) batchInterval() sim.Duration {
	return sim.Duration(float64(s.BatchBytes) / s.RateBytesPerSec * 1e9)
}

// deliver is one receive-interrupt batch of the in-flight transfer;
// the copy ends with the file written out and a gap before the next.
func (s *ScpFlood) deliver() {
	if s.remaining <= 0 {
		// sshd's write(2) path drains to disk as writeback.
		if s.disk != nil && s.ImageBytes > 0 {
			s.disk.Submit(s.ImageBytes, nil)
		}
		s.k.Eng.AfterTagged(s.rng.Jitter(s.Gap, 0.4),
			evScpStart.Tag(s.id, 0, 0), s.onStart)
		return
	}
	n := s.BatchBytes
	if n > s.remaining {
		n = s.remaining
	}
	s.remaining -= n
	s.nic.Receive(n)
	s.pendingBytes += n
	s.k.WakeAll(s.sshWake, nil)
	s.k.Eng.AfterTagged(s.rng.Jitter(s.batchInterval(), 0.3),
		evScpDeliver.Tag(s.id, 0, 0), s.onDeliver)
}
