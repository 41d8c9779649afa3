package trace

import "repro/internal/snapshot"

// Section is the trace buffer's section name in a snapshot image.
const Section = "trace.buffer"

// Visit codes the buffer — intern table, filter, and every per-CPU ring
// with its cursor — so a restored run renders the exact trace stream
// the snapshotted one would have, drops included. A restoring buffer
// must have been constructed with the same per-CPU capacity as the one
// that wrote the image (construction determinism, as everywhere in
// restore).
func (b *Buffer) Visit(c *snapshot.Codec) {
	if !c.Section(Section) {
		return
	}
	c.Expect(1, uint64(b.perCPU), "trace: restore: image ring capacity %d, buffer has %d")
	c.U64(2, &b.seq)
	c.Bool(3, &b.filtered)
	var filterBits uint64
	for k, on := range b.filter {
		if on {
			filterBits |= 1 << uint(k)
		}
	}
	c.U64(4, &filterBits)
	// names[0] is the empty-string sentinel: counted, never written.
	snapshot.Slice(c, 5, &b.names)
	for i := 1; i < len(b.names); i++ {
		c.Str(6, &b.names[i])
	}
	if c.Decoding() {
		for k := range b.filter {
			b.filter[k] = filterBits&(1<<uint(k)) != 0
		}
		b.nameIDs = nil
		b.nameCache = [nameCacheSlots]nameSlot{}
		if len(b.names) > 0 {
			b.nameIDs = make(map[string]NameID, len(b.names))
			for i, name := range b.names[1:] {
				b.nameIDs[name] = NameID(i + 1)
			}
		}
	}
	snapshot.Slice(c, 7, &b.rings)
	for i := range b.rings {
		rg := &b.rings[i]
		nRecs := len(rg.recs)
		c.Len(8, &nRecs)
		snapshot.Uint(c, 9, &rg.next)
		c.Bool(10, &rg.wrapped)
		c.U64(11, &rg.dropped)
		// Readers rely on logical order (oldest at next): only a full
		// ring may have a non-zero write position, and it must be in range.
		if nRecs > b.perCPU || rg.next < 0 || (rg.next != 0 && (nRecs != b.perCPU || rg.next >= nRecs)) {
			c.Failf("trace: restore: ring %d holds %d records with write position %d (capacity %d)", i, nRecs, rg.next, b.perCPU)
			return
		}
		if c.Decoding() && nRecs > 0 {
			rg.recs = make([]Record, nRecs, b.perCPU)
		}
		for j := range rg.recs {
			r := &rg.recs[j]
			c.U64(12, &r.Seq)
			snapshot.Int(c, 13, &r.At)
			snapshot.Uint(c, 14, &r.Kind)
			snapshot.Int(c, 15, &r.CPU)
			snapshot.Int(c, 16, &r.A)
			snapshot.Int(c, 17, &r.B)
			snapshot.Int(c, 18, &r.C)
			snapshot.Int(c, 19, &r.D)
			snapshot.Int(c, 20, &r.Msg)
		}
	}
	c.End()
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
