package trace

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/snapshot"
)

// appendSinceScan is the reference cursor read: scan every retained
// record, keep Seq > since, and sort the result by Seq. AppendSince must
// return exactly what it returns.
func appendSinceScan(b *Buffer, dst []Record, since uint64) ([]Record, uint64) {
	if b == nil {
		return dst, 0
	}
	start := len(dst)
	for i := range b.rings {
		for _, r := range b.rings[i].recs {
			if r.Seq > since {
				dst = append(dst, r)
			}
		}
	}
	got := dst[start:]
	sort.Slice(got, func(i, j int) bool { return got[i].Seq < got[j].Seq })
	var lost uint64
	if b.seq > since {
		lost = b.seq - since - uint64(len(got))
	}
	return dst, lost
}

// diffAppendSince replays ops against a buffer of the given per-CPU
// capacity and checks every cursor read against appendSinceScan. An op
// below 0xc0 emits one record on CPU op%5-1 (the global ring and CPUs
// 0..3); any other op reads from a cursor chosen by bits 2..4 into a
// reused dst carrying op&3 sentinel records of prefix.
func diffAppendSince(t *testing.T, capacity int, ops []byte) {
	t.Helper()
	b := NewBuffer(capacity)
	var got, want []Record
	var cursor uint64
	for i, op := range ops {
		if op < 0xc0 {
			b.TimerTick(sim.Time(i), int(op%5)-1)
			continue
		}
		var since uint64
		switch (op >> 2) & 7 {
		case 0:
			since = 0
		case 1:
			since = b.Seq() / 2 // mid-stream
		case 2:
			since = overwrittenSeq(b) // inside the overwritten range
		case 3:
			since = b.Seq()
		case 4:
			since = b.Seq() + 1 // ahead of the stream
		default:
			since = cursor // the attributor's rolling cursor
		}
		got, want = got[:0], want[:0]
		for j := 0; j < int(op&3); j++ {
			sentinel := Record{Seq: ^uint64(j), CPU: -7}
			got = append(got, sentinel)
			want = append(want, sentinel)
		}
		var gotLost, wantLost uint64
		got, gotLost = b.AppendSince(got, since)
		want, wantLost = appendSinceScan(b, want, since)
		if gotLost != wantLost || !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d: AppendSince(since=%d) on capacity %d = %v lost %d; reference %v lost %d",
				i, since, capacity, seqs(got), gotLost, seqs(want), wantLost)
		}
		cursor = b.Seq()
	}
}

// overwrittenSeq returns a cursor just below the oldest retained record
// of some ring that has dropped records, so at least one record newer
// than the cursor is gone; 0 if no ring has wrapped.
func overwrittenSeq(b *Buffer) uint64 {
	for i := range b.rings {
		if rg := &b.rings[i]; rg.dropped > 0 {
			return rg.at(0).Seq - 2
		}
	}
	return 0
}

func seqs(recs []Record) []uint64 {
	out := make([]uint64, len(recs))
	for i, r := range recs {
		out[i] = r.Seq
	}
	return out
}

// FuzzAppendSince is the differential oracle for the cursor read:
// arbitrary emit streams over the global ring and four CPUs into rings
// of capacity 1..8, so they wrap, read from cursors at 0, mid-stream,
// inside the overwritten range, at and past Seq() and rolling, must
// return the reference's records, order and lost count.
func FuzzAppendSince(f *testing.F) {
	// Unwrapped rings, every cursor kind.
	f.Add(uint8(7), []byte{0x00, 0x01, 0x02, 0xc0, 0xc4, 0xc8, 0xcc, 0xd0, 0xd4})
	// One ring, wrapping many times, rolling cursor.
	f.Add(uint8(1), []byte{0x01, 0x01, 0x01, 0xd5, 0x01, 0x01, 0xd6, 0x01, 0xd7, 0xc0})
	// Interleaved CPUs on capacity-2 rings: the merge path, with prefix.
	f.Add(uint8(1), []byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x01, 0x02, 0xc1, 0xc9, 0xc6, 0xcf})
	// Long runs on one CPU, then another: contiguous suffixes.
	f.Add(uint8(3), []byte{0x01, 0x01, 0x01, 0x01, 0x02, 0x02, 0x02, 0x00, 0xc3, 0xc5, 0xca, 0xd9})
	// Reads from the overwritten range after heavy wrap on every ring.
	f.Add(uint8(2), []byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x00, 0x01, 0x02, 0x03, 0x04, 0x00, 0x01, 0xc8, 0xc9, 0xca, 0xcb, 0xdc})
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		diffAppendSince(t, 1+int(capacity%8), ops)
	})
}

// TestAppendSinceSteadyStateZeroAlloc pins the cursor read's contract:
// on wrapped rings, with a dst the caller reuses, a read allocates
// nothing, including when records from several rings interleave.
func TestAppendSinceSteadyStateZeroAlloc(t *testing.T) {
	b := NewBuffer(64)
	for i := 0; i < 1000; i++ {
		b.TimerTick(sim.Time(i), i%3-1)
	}
	for cpu := -1; cpu <= 1; cpu++ {
		if b.DroppedOn(cpu) == 0 {
			t.Fatalf("ring for cpu %d did not wrap", cpu)
		}
	}
	dst := make([]Record, 0, 64)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		for j := 0; j < 16; j++ {
			b.TimerTick(sim.Time(i), i%3-1)
			i++
		}
		dst, _ = b.AppendSince(dst[:0], b.Seq()-48)
	}); n != 0 {
		t.Fatalf("steady-state AppendSince allocates %v/op", n)
	}
	if len(dst) != 48 {
		t.Fatalf("read %d records, want 48", len(dst))
	}
}

// TestRestoreRejectsMisorderedRing checks that a snapshot image whose
// ring write position contradicts its fill level is refused rather than
// read out of order, and that a wrapped ring round-trips intact.
func TestRestoreRejectsMisorderedRing(t *testing.T) {
	b := NewBuffer(4)
	for i := 0; i < 11; i++ {
		b.TimerTick(sim.Time(i), i%2)
	}
	w := snapshot.NewWriter()
	b.Visit(w.Codec())
	r, err := snapshot.OpenReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	restored := NewBuffer(4)
	if restored.Visit(r.Codec()); r.Err() != nil {
		t.Fatalf("restore of a wrapped buffer: %v", r.Err())
	}
	if !reflect.DeepEqual(restored.Records(), b.Records()) {
		t.Fatalf("restored records %v, want %v", seqs(restored.Records()), seqs(b.Records()))
	}

	// Two records in a capacity-4 ring with write position 1.
	w = snapshot.NewWriter()
	w.Begin(Section)
	w.U64(1, 4)
	w.U64(2, 2)
	w.Bool(3, false)
	w.U64(4, 0)
	w.U64(5, 0)
	w.U64(7, 1)
	w.U64(8, 2)
	w.U64(9, 1)
	w.Bool(10, false)
	w.U64(11, 0)
	for seq := uint64(1); seq <= 2; seq++ {
		w.U64(12, seq)
		for tag := uint8(13); tag <= 20; tag++ {
			if tag == 14 {
				w.U64(tag, 0)
			} else {
				w.I64(tag, 0)
			}
		}
	}
	w.End()
	if r, err = snapshot.OpenReader(w.Finish()); err != nil {
		t.Fatal(err)
	}
	if NewBuffer(4).Visit(r.Codec()); r.Err() == nil {
		t.Fatal("restore accepted a partly filled ring with a non-zero write position")
	}
}

var sinkRecords []Record

// BenchmarkAppendSince reads the newest k records from three wrapped,
// round-robin interleaved rings (the merge's worst case) at two ring
// capacities: the per-call cost depends on k, not on capacity.
func BenchmarkAppendSince(b *testing.B) {
	const k = 1024
	for _, capacity := range []int{1 << 12, 1 << 15} {
		b.Run(fmt.Sprintf("cap=%d", capacity), func(b *testing.B) {
			buf := NewBuffer(capacity)
			for i := 0; i < 4*capacity; i++ {
				buf.TimerTick(sim.Time(i), i%3-1)
			}
			dst := make([]Record, 0, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst, _ = buf.AppendSince(dst[:0], buf.Seq()-k)
			}
			sinkRecords = dst
			if len(dst) != k {
				b.Fatalf("read %d records, want %d", len(dst), k)
			}
		})
	}
}
