package kernel_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// imageField is one field of a parsed snapshot image: its section, tag
// and wire type, and where its value bytes sit in the image.
type imageField struct {
	section    string
	tag, wire  byte
	start, end int
	value      uint64 // for the varint wires
}

// parseImage splits a snapshot image into its fields. It knows the wire
// format (a field header is tag<<3|wire; uvarint and zigzag values are
// varints, fixed64 is 8 bytes, bytes are length-prefixed), which is all
// a crafted-image test needs to find a count and rewrite it.
func parseImage(t *testing.T, img []byte) []imageField {
	t.Helper()
	var fields []imageField
	pos, end := 6, len(img)-8 // magic and version; hash trailer
	uvarint := func() uint64 {
		v, n := binary.Uvarint(img[pos:end])
		if n <= 0 {
			t.Fatalf("bad varint at byte %d", pos)
		}
		pos += n
		return v
	}
	for pos < end {
		nameLen := int(uvarint())
		name := string(img[pos : pos+nameLen])
		pos += nameLen
		secEnd := int(uvarint())
		secEnd += pos
		for pos < secEnd {
			f := imageField{section: name, tag: img[pos] >> 3, wire: img[pos] & 7}
			pos++
			f.start = pos
			switch f.wire {
			case 0, 1:
				f.value = uvarint()
			case 2:
				pos += 8
			case 3:
				pos += int(uvarint())
			}
			f.end = pos
			fields = append(fields, f)
		}
	}
	return fields
}

// craftCount rewrites one uvarint field of img to v, re-lengths its
// section and re-seals the hash trailer, so the image passes every
// integrity check and only the count is wrong.
func craftCount(t *testing.T, img []byte, f imageField, v uint64) []byte {
	t.Helper()
	val := binary.AppendUvarint(nil, v)
	// Find the section's payload-length prefix to grow it.
	pos := 6
	var out []byte
	out = append(out, img[:6]...)
	for pos < len(img)-8 {
		nameLen, n := binary.Uvarint(img[pos:])
		nameEnd := pos + n + int(nameLen)
		payLen, m := binary.Uvarint(img[nameEnd:])
		payStart := nameEnd + m
		payEnd := payStart + int(payLen)
		payload := img[payStart:payEnd]
		if f.start >= payStart && f.end <= payEnd {
			payload = append(append(append([]byte(nil), img[payStart:f.start]...), val...), img[f.end:payEnd]...)
		}
		out = append(out, img[pos:nameEnd]...)
		out = binary.AppendUvarint(out, uint64(len(payload)))
		out = append(out, payload...)
		pos = payEnd
	}
	h := fnv.New64a()
	h.Write(out)
	return binary.LittleEndian.AppendUint64(out, h.Sum64())
}

// TestSnapshotCraftedCounts: the FNV trailer proves an image intact,
// not that its writer was honest, and images reach restore from outside
// the process (rtsim -restore, the simd disk tier). A hash-valid image
// whose element count is huge must make restore return an error naming
// the section and tag — never panic sizing a slice by it, and never
// loop over it. Each case rewrites one count site of a real image to
// 1<<62: the snap machine's for the kernel, engine and trace sections,
// the stock reference machine's for the device sections.
func TestSnapshotCraftedCounts(t *testing.T) {
	// build returns a started machine: the snap machine, or with ref the
	// stock reference machine (the one with devices).
	build := func(ref bool) *kernel.Kernel {
		if !ref {
			k := kernel.BuildSnapMachine(42)
			k.Start()
			return k
		}
		s, err := core.BuildReference(core.RefStock, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s.K
	}
	images := map[bool][]byte{}
	for _, ref := range []bool{false, true} {
		k := build(ref)
		k.Eng.Run(sim.Time(50 * sim.Millisecond))
		img, err := k.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		images[ref] = img
	}
	for _, tc := range []struct {
		site    string
		section string
		tag     byte
		// after, when set, skips to the first field with this tag and
		// value 1 in the section: the count sits in the sub-record it
		// opens.
		after byte
		ref   bool // craft the reference machine's image
	}{
		{"engine kind names", "sim.engine", 7, 0, false},
		{"engine pending events", "sim.engine", 9, 0, false},
		{"wheel timers", "kernel.machine", 13, 0, false},
		{"task behavior words", "kernel.tasks", 17, 0, false},
		{"syscall segments", "kernel.tasks", 4, 19, false},
		{"cpu pending irqs", "kernel.cpus", 20, 0, false},
		{"cpu frame stack", "kernel.cpus", 22, 0, false},
		{"frame locks", "kernel.cpus", 7, 0, false},
		{"locks", "kernel.locks", 1, 0, false},
		{"lock waiters", "kernel.locks", 10, 0, false},
		{"wait queue waiters", "kernel.waitqs", 3, 0, false},
		{"run queue", "kernel.sched", 2, 0, false},
		{"trace names", "trace.buffer", 5, 0, false},
		{"trace rings", "trace.buffer", 7, 0, false},
		{"trace ring records", "trace.buffer", 8, 0, false},
		{"disk completions", "dev.disk/sda", 5, 0, true},
	} {
		t.Run(tc.site, func(t *testing.T) {
			img := images[tc.ref]
			f, ok := findCount(parseImage(t, img), tc.section, tc.tag, tc.after)
			if !ok {
				t.Fatalf("image has no uvarint tag %d in %s", tc.tag, tc.section)
			}
			bad := craftCount(t, img, f, 1<<62)
			err := restoreNoPanic(build(tc.ref), bad)
			want := fmt.Sprintf("section %s: field tag %d: count", tc.section, tc.tag)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("restore of a crafted count: err = %v, want one containing %q", err, want)
			}
		})
	}
}

// findCount returns the first uvarint field with the given tag in the
// section, after the first field tagged after with value 1 when after
// is non-zero.
func findCount(fields []imageField, section string, tag, after byte) (imageField, bool) {
	armed := after == 0
	for _, f := range fields {
		if f.section != section || f.wire != 0 {
			continue
		}
		if !armed {
			armed = f.tag == after && f.value == 1
			continue
		}
		if f.tag == tag {
			return f, true
		}
	}
	return imageField{}, false
}

// restoreNoPanic restores img into the freshly built machine k, turning
// a panic into an error so one bad site does not end the table.
func restoreNoPanic(k *kernel.Kernel, img []byte) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("restore panicked: %v", p)
		}
	}()
	return k.RestoreImage(img)
}
