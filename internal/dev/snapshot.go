package dev

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// Serialisable event identities for the events the devices schedule.
// The kernel's restore path reconstructs each pending event's callback
// through the rebuilders registered below, addressing the owning device
// by its component id (A0) — which agrees across processes because
// construction order does.
var (
	// dev.disk-complete: A0 = disk component id, A1 = wake queue id (0
	// for fire-and-forget writeback).
	evDiskComplete = sim.RegisterEventKind("dev.disk-complete")
	// dev.gpu-irq: A0 = GPU component id.
	evGPUIRQ = sim.RegisterEventKind("dev.gpu-irq")
	// dev.rtc-fire: A0 = RTC component id.
	evRTCFire = sim.RegisterEventKind("dev.rtc-fire")
	// dev.rcim-fire: A0 = RCIM component id.
	evRCIMFire = sim.RegisterEventKind("dev.rcim-fire")
)

func init() {
	kernel.RegisterComponentRebuild("dev.disk-complete", func(d *Disk, wq uint64) (func(), error) {
		if wq != 0 && d.k.WaitQueueByID(wq) == nil {
			return nil, fmt.Errorf("dev: disk completion names unknown wait queue %d", wq)
		}
		return func() { d.complete(wq) }, nil
	})
	kernel.RegisterComponentRebuild("dev.gpu-irq", func(g *GPU, _ uint64) (func(), error) { return g.onIRQ, nil })
	kernel.RegisterComponentRebuild("dev.rtc-fire", func(r *RTC, _ uint64) (func(), error) { return r.onFire, nil })
	kernel.RegisterComponentRebuild("dev.rcim-fire", func(r *RCIM, _ uint64) (func(), error) { return r.onFire, nil })
}

// --- Disk ---

// SnapName implements kernel.SnapComponent.
func (d *Disk) SnapName() string { return "dev.disk/" + d.name }

// SnapVisit implements kernel.SnapComponent. A completion queued for an
// unregistered wait queue cannot be named in an image, so encoding
// refuses it before writing anything.
func (d *Disk) SnapVisit(c *snapshot.Codec) {
	if !c.Decoding() {
		for _, wq := range d.completions {
			if wq.ID() == 0 {
				c.Failf("dev: disk %s has a pending completion for unregistered wait queue %q", d.name, wq.Name)
			}
		}
	}
	if !c.Section(d.SnapName()) {
		return
	}
	snapshot.Int(c, 1, &d.busyUntil)
	d.rng.Visit(c, 2)
	c.U64(3, &d.Requests)
	c.U64(4, &d.BytesDone)
	snapshot.Slice(c, 5, &d.completions)
	for i := range d.completions {
		d.k.VisitWaitQueue(c, 6, &d.completions[i])
		if d.completions[i] == nil {
			c.Failf("dev: disk %s completion %d names no wait queue", d.name, i)
		}
	}
	c.End()
}

// --- NIC ---

// SnapName implements kernel.SnapComponent.
func (n *NIC) SnapName() string { return "dev.nic/" + n.name }

// SnapVisit implements kernel.SnapComponent.
func (n *NIC) SnapVisit(c *snapshot.Codec) {
	if !c.Section(n.SnapName()) {
		return
	}
	c.F64(1, &n.pendingRxKB)
	c.F64(2, &n.pendingTxKB)
	c.U64(3, &n.RxBytes)
	c.U64(4, &n.TxBytes)
	c.U64(5, &n.RxIRQs)
	c.U64(6, &n.TxIRQs)
	c.End()
}

// --- GPU ---

// SnapName implements kernel.SnapComponent.
func (g *GPU) SnapName() string { return "dev.gpu/" + g.name }

// SnapVisit implements kernel.SnapComponent.
func (g *GPU) SnapVisit(c *snapshot.Codec) {
	if !c.Section(g.SnapName()) {
		return
	}
	c.U64(1, &g.Batches)
	c.End()
}

// --- RTC ---

// SnapName implements kernel.SnapComponent.
func (r *RTC) SnapName() string { return "dev.rtc" }

// SnapVisit implements kernel.SnapComponent.
func (r *RTC) SnapVisit(c *snapshot.Codec) {
	if !c.Section(r.SnapName()) {
		return
	}
	c.Bool(1, &r.running)
	snapshot.Int(c, 2, &r.lastFire)
	c.U64(3, &r.fires)
	c.End()
}

// --- RCIM ---

// SnapName implements kernel.SnapComponent.
func (r *RCIM) SnapName() string { return "dev.rcim" }

// SnapVisit implements kernel.SnapComponent.
func (r *RCIM) SnapVisit(c *snapshot.Codec) {
	if !c.Section(r.SnapName()) {
		return
	}
	c.Bool(1, &r.running)
	snapshot.Int(c, 2, &r.lastFire)
	c.U64(3, &r.fires)
	c.Expect(4, uint64(len(r.exts)), "dev: rcim image has %d external inputs, machine has %d")
	for _, e := range r.exts {
		c.U64(5, &e.Edges)
		snapshot.Int(c, 6, &e.LastEdge)
	}
	c.End()
}

func init() {
	snapshot.RegisterState(Disk{}, snapshot.Manifest{
		"k":           "skip: construction back-pointer",
		"irq":         "skip: line state lives in kernel.machine",
		"rng":         "codec",
		"name":        "skip: construction identity (section name)",
		"id":          "skip: registration-order identity",
		"seekMin":     "skip: construction-fixed device parameter",
		"seekMax":     "skip: construction-fixed device parameter",
		"bytesPerSec": "skip: construction-fixed device parameter",
		"busyUntil":   "codec",
		"completions": "codec", // by registered wait queue id
		"Requests":    "codec",
		"BytesDone":   "codec",
	})
	snapshot.RegisterState(NIC{}, snapshot.Manifest{
		"k":           "skip: construction back-pointer",
		"irq":         "skip: line state lives in kernel.machine",
		"name":        "skip: construction identity (section name)",
		"id":          "skip: registration-order identity",
		"perKB":       "skip: construction-fixed (from config timing)",
		"pendingRxKB": "codec",
		"pendingTxKB": "codec",
		"RxBytes":     "codec",
		"TxBytes":     "codec",
		"RxIRQs":      "codec",
		"TxIRQs":      "codec",
	})
	snapshot.RegisterState(GPU{}, snapshot.Manifest{
		"k":       "skip: construction back-pointer",
		"irq":     "skip: line state lives in kernel.machine",
		"name":    "skip: construction identity (section name)",
		"id":      "skip: registration-order identity",
		"Batches": "codec",
		"onIRQ":   "skip: raiseIRQ bound once at construction; the dev.gpu-irq rebuilder hands it back",
	})
	snapshot.RegisterState(RTC{}, snapshot.Manifest{
		"k":        "skip: construction back-pointer",
		"irq":      "skip: line state lives in kernel.machine",
		"wq":       "skip: registered wait queue, serialised in kernel.waitqs",
		"fsLock":   "skip: named lock, serialised in kernel.locks",
		"id":       "skip: registration-order identity",
		"period":   "skip: construction-fixed device parameter",
		"running":  "codec",
		"lastFire": "codec",
		"fires":    "codec",
		"onFire":   "skip: fire bound once at construction; the dev.rtc-fire rebuilder hands it back",
	})
	snapshot.RegisterState(RCIM{}, snapshot.Manifest{
		"k":        "skip: construction back-pointer",
		"irq":      "skip: line state lives in kernel.machine",
		"wq":       "skip: registered wait queue, serialised in kernel.waitqs",
		"id":       "skip: registration-order identity",
		"exts":     "codec", // count validated; per-input counters inline
		"period":   "skip: construction-fixed device parameter",
		"running":  "codec",
		"lastFire": "codec",
		"fires":    "codec",
		"onFire":   "skip: fire bound once at construction; the dev.rcim-fire rebuilder hands it back",
	})
	snapshot.RegisterState(ExternalInput{}, snapshot.Manifest{
		"Name":     "skip: construction identity",
		"irq":      "skip: line state lives in kernel.machine",
		"wq":       "skip: registered wait queue, serialised in kernel.waitqs",
		"k":        "skip: construction back-pointer",
		"Edges":    "codec",
		"LastEdge": "codec",
	})
}
