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
	kernel.RegisterEventRebuild("dev.disk-complete", func(rc *kernel.RestoreContext, a0, a1, a2 uint64) (func(), error) {
		d, err := kernel.RestoredComponent[*Disk](rc, a0, "dev.disk-complete")
		if err != nil {
			return nil, err
		}
		if a1 != 0 && rc.K.WaitQueueByID(a1) == nil {
			return nil, fmt.Errorf("dev: disk completion names unknown wait queue %d", a1)
		}
		return func() { d.complete(a1) }, nil
	})
	kernel.RegisterEventRebuild("dev.gpu-irq", func(rc *kernel.RestoreContext, a0, a1, a2 uint64) (func(), error) {
		g, err := kernel.RestoredComponent[*GPU](rc, a0, "dev.gpu-irq")
		if err != nil {
			return nil, err
		}
		return g.onIRQ, nil
	})
	kernel.RegisterEventRebuild("dev.rtc-fire", func(rc *kernel.RestoreContext, a0, a1, a2 uint64) (func(), error) {
		r, err := kernel.RestoredComponent[*RTC](rc, a0, "dev.rtc-fire")
		if err != nil {
			return nil, err
		}
		return r.onFire, nil
	})
	kernel.RegisterEventRebuild("dev.rcim-fire", func(rc *kernel.RestoreContext, a0, a1, a2 uint64) (func(), error) {
		r, err := kernel.RestoredComponent[*RCIM](rc, a0, "dev.rcim-fire")
		if err != nil {
			return nil, err
		}
		return r.onFire, nil
	})
}

// --- Disk ---

// SnapName implements kernel.SnapComponent.
func (d *Disk) SnapName() string { return "dev.disk/" + d.name }

// Snapshot implements kernel.SnapComponent.
func (d *Disk) Snapshot(w *snapshot.Writer) error {
	for _, wq := range d.completions {
		if wq.ID() == 0 {
			return fmt.Errorf("dev: disk %s has a pending completion for unregistered wait queue %q", d.name, wq.Name)
		}
	}
	w.Begin(d.SnapName())
	w.I64(1, int64(d.busyUntil))
	w.U64(2, d.rng.State())
	w.U64(3, d.Requests)
	w.U64(4, d.BytesDone)
	w.U64(5, uint64(len(d.completions)))
	for _, wq := range d.completions {
		w.U64(6, wq.ID())
	}
	w.End()
	return nil
}

// Restore implements kernel.SnapComponent.
func (d *Disk) Restore(r *snapshot.Reader, rc *kernel.RestoreContext) error {
	r.Section(d.SnapName())
	d.busyUntil = sim.Time(r.I64(1))
	d.rng.SetState(r.U64(2))
	d.Requests = r.U64(3)
	d.BytesDone = r.U64(4)
	n := int(r.U64(5))
	d.completions = nil
	for i := 0; i < n; i++ {
		id := r.U64(6)
		wq := rc.K.WaitQueueByID(id)
		if wq == nil {
			return fmt.Errorf("dev: disk %s restore names unknown wait queue %d", d.name, id)
		}
		d.completions = append(d.completions, wq)
	}
	r.EndSection()
	return r.Err()
}

// --- NIC ---

// SnapName implements kernel.SnapComponent.
func (n *NIC) SnapName() string { return "dev.nic/" + n.name }

// Snapshot implements kernel.SnapComponent.
func (n *NIC) Snapshot(w *snapshot.Writer) error {
	w.Begin(n.SnapName())
	w.F64(1, n.pendingRxKB)
	w.F64(2, n.pendingTxKB)
	w.U64(3, n.RxBytes)
	w.U64(4, n.TxBytes)
	w.U64(5, n.RxIRQs)
	w.U64(6, n.TxIRQs)
	w.End()
	return nil
}

// Restore implements kernel.SnapComponent.
func (n *NIC) Restore(r *snapshot.Reader, rc *kernel.RestoreContext) error {
	r.Section(n.SnapName())
	n.pendingRxKB = r.F64(1)
	n.pendingTxKB = r.F64(2)
	n.RxBytes = r.U64(3)
	n.TxBytes = r.U64(4)
	n.RxIRQs = r.U64(5)
	n.TxIRQs = r.U64(6)
	r.EndSection()
	return r.Err()
}

// --- GPU ---

// SnapName implements kernel.SnapComponent.
func (g *GPU) SnapName() string { return "dev.gpu/" + g.name }

// Snapshot implements kernel.SnapComponent.
func (g *GPU) Snapshot(w *snapshot.Writer) error {
	w.Begin(g.SnapName())
	w.U64(1, g.Batches)
	w.End()
	return nil
}

// Restore implements kernel.SnapComponent.
func (g *GPU) Restore(r *snapshot.Reader, rc *kernel.RestoreContext) error {
	r.Section(g.SnapName())
	g.Batches = r.U64(1)
	r.EndSection()
	return r.Err()
}

// --- RTC ---

// SnapName implements kernel.SnapComponent.
func (r *RTC) SnapName() string { return "dev.rtc" }

// Snapshot implements kernel.SnapComponent.
func (r *RTC) Snapshot(w *snapshot.Writer) error {
	w.Begin(r.SnapName())
	w.Bool(1, r.running)
	w.I64(2, int64(r.lastFire))
	w.U64(3, r.fires)
	w.End()
	return nil
}

// Restore implements kernel.SnapComponent.
func (r *RTC) Restore(rd *snapshot.Reader, rc *kernel.RestoreContext) error {
	rd.Section(r.SnapName())
	r.running = rd.Bool(1)
	r.lastFire = sim.Time(rd.I64(2))
	r.fires = rd.U64(3)
	rd.EndSection()
	return rd.Err()
}

// --- RCIM ---

// SnapName implements kernel.SnapComponent.
func (r *RCIM) SnapName() string { return "dev.rcim" }

// Snapshot implements kernel.SnapComponent.
func (r *RCIM) Snapshot(w *snapshot.Writer) error {
	w.Begin(r.SnapName())
	w.Bool(1, r.running)
	w.I64(2, int64(r.lastFire))
	w.U64(3, r.fires)
	w.U64(4, uint64(len(r.exts)))
	for _, e := range r.exts {
		w.U64(5, e.Edges)
		w.I64(6, int64(e.LastEdge))
	}
	w.End()
	return nil
}

// Restore implements kernel.SnapComponent.
func (r *RCIM) Restore(rd *snapshot.Reader, rc *kernel.RestoreContext) error {
	rd.Section(r.SnapName())
	r.running = rd.Bool(1)
	r.lastFire = sim.Time(rd.I64(2))
	r.fires = rd.U64(3)
	if n := int(rd.U64(4)); n != len(r.exts) {
		return fmt.Errorf("dev: rcim image has %d external inputs, machine has %d", n, len(r.exts))
	}
	for _, e := range r.exts {
		e.Edges = rd.U64(5)
		e.LastEdge = sim.Time(rd.I64(6))
	}
	rd.EndSection()
	return rd.Err()
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
