package workload

import (
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// Serialisable identities for the events and segment callbacks the
// workloads schedule; A0 is always the owning component's id.
var (
	// wl.scp-start: begin the next scp transfer.
	evScpStart = sim.RegisterEventKind("wl.scp-start")
	// wl.scp-deliver: the next coalesced receive batch.
	evScpDeliver = sim.RegisterEventKind("wl.scp-deliver")
	// wl.disknoise-flush: writeback submit OnDone; A1 = flush bytes.
	evDiskNoiseFlush = sim.RegisterEventKind("wl.disknoise-flush")
	// wl.ttcp-pump: the next wire batch of the ttcp-net load.
	evTTCPPump = sim.RegisterEventKind("wl.ttcp-pump")
)

func init() {
	kernel.RegisterComponentRebuild("wl.scp-start", func(s *ScpFlood, _ uint64) (func(), error) { return s.onStart, nil })
	kernel.RegisterComponentRebuild("wl.scp-deliver", func(s *ScpFlood, _ uint64) (func(), error) { return s.onDeliver, nil })
	kernel.RegisterComponentRebuild("wl.disknoise-flush", func(d *DiskNoise, bytes uint64) (func(), error) {
		return func() { d.flush(int(bytes)) }, nil
	})
	kernel.RegisterComponentRebuild("wl.ttcp-pump", func(t *TTCPNet, _ uint64) (func(), error) { return t.onPump, nil })
}

// --- ScpFlood ---

// SnapName implements kernel.SnapComponent.
func (s *ScpFlood) SnapName() string { return "wl.scp-flood" }

// SnapVisit implements kernel.SnapComponent.
func (s *ScpFlood) SnapVisit(c *snapshot.Codec) {
	if !c.Section(s.SnapName()) {
		return
	}
	s.rng.Visit(c, 1)
	snapshot.Int(c, 2, &s.pendingBytes)
	snapshot.Int(c, 3, &s.remaining)
	c.U64(4, &s.Transfers)
	c.End()
}

// --- DiskNoise ---

// SnapName implements kernel.SnapComponent.
func (d *DiskNoise) SnapName() string { return "wl.disknoise" }

// SnapVisit implements kernel.SnapComponent.
func (d *DiskNoise) SnapVisit(c *snapshot.Codec) {
	if !c.Section(d.SnapName()) {
		return
	}
	snapshot.Int(c, 1, &d.size)
	snapshot.Int(c, 2, &d.step)
	snapshot.Int(c, 3, &d.dirty)
	c.U64(4, &d.Iterations)
	c.End()
}

func init() {
	snapshot.RegisterState(ScpFlood{}, snapshot.Manifest{
		"ImageBytes":      "skip: construction-fixed load parameter",
		"RateBytesPerSec": "skip: construction-fixed load parameter",
		"Gap":             "skip: construction-fixed load parameter",
		"BatchBytes":      "skip: construction-fixed load parameter",
		"nic":             "skip: construction back-pointer",
		"disk":            "skip: construction back-pointer",
		"k":               "skip: construction back-pointer",
		"rng":             "codec",
		"sshWake":         "skip: registered wait queue, serialised in kernel.waitqs",
		"id":              "skip: registration-order identity",
		"pendingBytes":    "codec",
		"remaining":       "codec",
		"Transfers":       "codec",
		"onStart":         "skip: startTransfer bound once in Start; the wl.scp-start rebuilder hands it back",
		"onDeliver":       "skip: deliver bound once in Start; the wl.scp-deliver rebuilder hands it back",
		"readCall":        "skip: construction-fixed syscall definition; an in-flight read is serialised by the kernel",
	})
	snapshot.RegisterState(DiskNoise{}, snapshot.Manifest{
		"disk":       "skip: construction back-pointer",
		"k":          "skip: construction back-pointer",
		"ioDone":     "skip: registered wait queue, serialised in kernel.waitqs",
		"id":         "skip: registration-order identity",
		"size":       "codec",
		"step":       "codec",
		"dirty":      "codec",
		"Iterations": "codec",
	})
	snapshot.RegisterState(StressKernel{}, snapshot.Manifest{
		"disk":         "skip: construction back-pointer",
		"ResidencyCap": "skip: construction-fixed load parameter",
		"Compilers":    "skip: construction-fixed load parameter",
	})
	snapshot.RegisterState(X11Perf{}, snapshot.Manifest{
		"gpu":     "skip: construction back-pointer",
		"Batches": "codec", // rides in the Xserver task's behavior words
	})
	snapshot.RegisterState(TTCPNet{}, snapshot.Manifest{
		"nic":             "skip: construction back-pointer",
		"RateBytesPerSec": "skip: construction-fixed load parameter",
		"BatchBytes":      "skip: construction-fixed load parameter",
		"k":               "skip: construction back-pointer",
		"rng":             "codec",
		"id":              "skip: registration-order identity",
		"dir":             "codec",
		"onPump":          "skip: pump bound once in Start; the wl.ttcp-pump rebuilder hands it back",
	})
	snapshot.RegisterState(phaseBehavior{}, snapshot.Manifest{
		"phase": "codec", // behavior state word 0
	})
	snapshot.RegisterState(scpSshd{}, snapshot.Manifest{
		"s": "skip: component back-pointer; mutable state in the wl.scp-flood section",
	})
	snapshot.RegisterState(diskNoiseBehavior{}, snapshot.Manifest{
		"d":    "skip: component back-pointer; mutable state in the wl.disknoise section",
		"call": "skip: reusable storage for the one syscall definition in flight; an in-flight call is serialised through the task's syscall state",
	})
	snapshot.RegisterState(nfsCompile{}, snapshot.Manifest{
		"phaseBehavior": "codec",
		"s":             "skip: component back-pointer, immutable parameters only",
		"call":          "skip: reusable storage for the one syscall definition in flight; an in-flight call is serialised through the task's syscall state",
	})
	snapshot.RegisterState(ttcpTx{}, snapshot.Manifest{
		"phaseBehavior": "codec",
		"dataReady":     "skip: registered wait queue, serialised in kernel.waitqs",
		"call":          "skip: reusable storage for the one syscall definition in flight; an in-flight call is serialised through the task's syscall state",
	})
	snapshot.RegisterState(ttcpRx{}, snapshot.Manifest{
		"phaseBehavior": "codec",
		"dataReady":     "skip: registered wait queue, serialised in kernel.waitqs",
		"call":          "skip: reusable storage for the one syscall definition in flight; an in-flight call is serialised through the task's syscall state",
	})
	snapshot.RegisterState(fifosA{}, snapshot.Manifest{
		"phaseBehavior": "codec",
		"fifo":          "skip: registered wait queue, serialised in kernel.waitqs",
		"call":          "skip: reusable storage for the one syscall definition in flight; an in-flight call is serialised through the task's syscall state",
	})
	snapshot.RegisterState(fifosB{}, snapshot.Manifest{
		"phaseBehavior": "codec",
		"fifo":          "skip: registered wait queue, serialised in kernel.waitqs",
		"call":          "skip: reusable storage for the one syscall definition in flight; an in-flight call is serialised through the task's syscall state",
	})
	snapshot.RegisterState(p3fpu{}, snapshot.Manifest{})
	snapshot.RegisterState(fsStress{}, snapshot.Manifest{
		"phaseBehavior": "codec",
		"s":             "skip: component back-pointer, immutable parameters only",
		"call":          "skip: reusable storage for the one syscall definition in flight; an in-flight call is serialised through the task's syscall state",
	})
	snapshot.RegisterState(crashme{}, snapshot.Manifest{
		"s":    "skip: component back-pointer, immutable parameters only",
		"call": "skip: reusable storage for the one syscall definition in flight; an in-flight call is serialised through the task's syscall state",
	})
	snapshot.RegisterState(xserver{}, snapshot.Manifest{
		"phaseBehavior": "codec",
		"x":             "skip: component back-pointer; Batches rides in the behavior words",
		"call":          "skip: reusable storage for the one syscall definition in flight; an in-flight call is serialised through the task's syscall state",
	})
	snapshot.RegisterState(ttcpNetProc{}, snapshot.Manifest{})
}
