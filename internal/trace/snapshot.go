package trace

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/snapshot"
)

// Section is the trace buffer's section name in a snapshot image.
const Section = "trace.buffer"

// Snapshot serialises the buffer — intern table, filter, and every
// per-CPU ring with its cursor — so a restored run renders the exact
// trace stream the snapshotted one would have, drops included.
func (b *Buffer) Snapshot(w *snapshot.Writer) {
	w.Begin(Section)
	w.U64(1, uint64(b.perCPU))
	w.U64(2, b.seq)
	w.Bool(3, b.filtered)
	var filterBits uint64
	for k, on := range b.filter {
		if on {
			filterBits |= 1 << uint(k)
		}
	}
	w.U64(4, filterBits)
	w.U64(5, uint64(len(b.names)))
	for i, name := range b.names {
		if i == 0 {
			continue // names[0] is the empty-string sentinel
		}
		w.Str(6, name)
	}
	w.U64(7, uint64(len(b.rings)))
	for i := range b.rings {
		rg := &b.rings[i]
		w.U64(8, uint64(len(rg.recs)))
		w.U64(9, uint64(rg.next))
		w.Bool(10, rg.wrapped)
		w.U64(11, rg.dropped)
		for _, r := range rg.recs {
			w.U64(12, r.Seq)
			w.I64(13, int64(r.At))
			w.U64(14, uint64(r.Kind))
			w.I64(15, int64(r.CPU))
			w.I64(16, int64(r.A))
			w.I64(17, int64(r.B))
			w.I64(18, int64(r.C))
			w.I64(19, int64(r.D))
			w.I64(20, int64(r.Msg))
		}
	}
	w.End()
}

// Restore overwrites the buffer from a snapshot image. The buffer must
// have been constructed with the same per-CPU capacity as the one that
// wrote the image (construction determinism, as everywhere in restore).
func (b *Buffer) Restore(r *snapshot.Reader) error {
	r.Section(Section)
	perCPU := int(r.U64(1))
	if perCPU != b.perCPU {
		return fmt.Errorf("trace: restore: image ring capacity %d, buffer has %d", perCPU, b.perCPU)
	}
	b.seq = r.U64(2)
	b.filtered = r.Bool(3)
	filterBits := r.U64(4)
	b.filter = [numKinds]bool{}
	for k := range b.filter {
		b.filter[k] = filterBits&(1<<uint(k)) != 0
	}
	nNames := int(r.U64(5))
	b.names = nil
	b.nameIDs = nil
	b.nameCache = [nameCacheSlots]nameSlot{}
	if nNames > 0 {
		b.names = make([]string, 1, nNames)
		b.nameIDs = make(map[string]NameID, nNames)
		for i := 1; i < nNames; i++ {
			name := r.Str(6)
			b.names = append(b.names, name)
			b.nameIDs[name] = NameID(i)
		}
	}
	nRings := int(r.U64(7))
	b.rings = make([]ring, nRings)
	for i := 0; i < nRings; i++ {
		rg := &b.rings[i]
		nRecs := int(r.U64(8))
		rg.next = int(r.U64(9))
		rg.wrapped = r.Bool(10)
		rg.dropped = r.U64(11)
		// Readers rely on logical order (oldest at next): only a full
		// ring may have a non-zero write position, and it must be in range.
		if nRecs < 0 || nRecs > b.perCPU || rg.next < 0 || (rg.next != 0 && (nRecs != b.perCPU || rg.next >= nRecs)) {
			return fmt.Errorf("trace: restore: ring %d holds %d records with write position %d (capacity %d)", i, nRecs, rg.next, b.perCPU)
		}
		if nRecs > 0 {
			rg.recs = make([]Record, 0, b.perCPU)
		}
		for j := 0; j < nRecs; j++ {
			rg.recs = append(rg.recs, Record{
				Seq:  r.U64(12),
				At:   sim.Time(r.I64(13)),
				Kind: Kind(r.U64(14)),
				CPU:  int32(r.I64(15)),
				A:    int32(r.I64(16)),
				B:    int32(r.I64(17)),
				C:    int32(r.I64(18)),
				D:    int32(r.I64(19)),
				Msg:  NameID(r.I64(20)),
			})
		}
	}
	r.EndSection()
	return r.Err()
}

func init() {
	snapshot.RegisterState(Buffer{}, snapshot.Manifest{
		"perCPU":    "codec", // validated against the restoring buffer's construction
		"seq":       "codec",
		"filtered":  "codec",
		"filter":    "codec", // packed as a bitmask
		"rings":     "codec",
		"names":     "codec",
		"nameIDs":   "skip: inverse index of names; rebuilt while reading the intern table back",
		"nameCache": "skip: lookup cache in front of nameIDs; cleared on restore and refilled by Intern",
	})
	snapshot.RegisterState(ring{}, snapshot.Manifest{
		"recs":    "codec",
		"next":    "codec",
		"wrapped": "codec",
		"dropped": "codec",
	})
	snapshot.RegisterState(Record{}, snapshot.Manifest{
		"Seq":  "codec",
		"At":   "codec",
		"Kind": "codec",
		"CPU":  "codec",
		"A":    "codec",
		"B":    "codec",
		"C":    "codec",
		"D":    "codec",
		"Msg":  "codec",
	})
}
