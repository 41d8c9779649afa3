package snapshot

import (
	"strings"
	"testing"
)

// codecRecord is a small section with one field of each codec shape.
type codecRecord struct {
	n     uint64
	i     int64
	f     float64
	b     bool
	s     string
	mask  uint16
	when  int32
	items []uint64
}

func (x *codecRecord) visit(c *Codec) {
	if !c.Section("rec") {
		return
	}
	c.Expect(1, 3, "rec: image version %d, want %d")
	c.U64(2, &x.n)
	c.I64(3, &x.i)
	c.F64(4, &x.f)
	c.Bool(5, &x.b)
	c.Str(6, &x.s)
	Uint(c, 7, &x.mask)
	Int(c, 8, &x.when)
	Slice(c, 9, &x.items)
	for i := range x.items {
		c.U64(10, &x.items[i])
	}
	c.End()
}

// TestCodecRoundTrip: one visit function writes a record and reads it
// back unchanged, and its bytes are those of the hand-written Writer
// calls the codec stands for.
func TestCodecRoundTrip(t *testing.T) {
	in := codecRecord{n: 1 << 40, i: -7, f: 2.5, b: true, s: "lock", mask: 0xf0, when: -3, items: []uint64{4, 5}}
	w := NewWriter()
	in.visit(w.Codec())
	if err := w.Codec().Err(); err != nil {
		t.Fatal(err)
	}
	img := w.Finish()

	hand := NewWriter()
	hand.Begin("rec")
	hand.U64(1, 3)
	hand.U64(2, in.n)
	hand.I64(3, in.i)
	hand.F64(4, in.f)
	hand.Bool(5, in.b)
	hand.Str(6, in.s)
	hand.U64(7, uint64(in.mask))
	hand.I64(8, int64(in.when))
	hand.U64(9, 2)
	hand.U64(10, 4)
	hand.U64(10, 5)
	hand.End()
	if want := hand.Finish(); string(img) != string(want) {
		t.Fatalf("codec bytes differ from the hand-written image")
	}

	r, err := OpenReader(img)
	if err != nil {
		t.Fatal(err)
	}
	var out codecRecord
	c := r.Codec()
	out.visit(c)
	if err := c.Err(); err != nil || !r.Exhausted() {
		t.Fatalf("decode: err %v, exhausted %v", err, r.Exhausted())
	}
	if out.n != in.n || out.i != in.i || out.f != in.f || out.b != in.b || out.s != in.s ||
		out.mask != in.mask || out.when != in.when || len(out.items) != 2 || out.items[1] != 5 {
		t.Fatalf("decoded %+v, want %+v", out, in)
	}
}

// TestCodecExpectMismatch: Expect fails decoding with its format, the
// image's value and the expected one.
func TestCodecExpectMismatch(t *testing.T) {
	w := NewWriter()
	w.Begin("rec")
	w.U64(1, 4)
	w.End()
	r, err := OpenReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	var x codecRecord
	c := r.Codec()
	x.visit(c)
	if err := c.Err(); err == nil || err.Error() != "rec: image version 4, want 3" {
		t.Fatalf("err = %v, want the Expect text", err)
	}
}

// TestCodecLenRejectsOversizedCount: a count larger than the payload
// left is an error naming the section and tag, and the slice stays
// unallocated.
func TestCodecLenRejectsOversizedCount(t *testing.T) {
	w := NewWriter()
	w.Begin("rec")
	w.U64(9, 1<<62)
	w.End()
	r, err := OpenReader(w.Finish())
	if err != nil {
		t.Fatal(err)
	}
	c := r.Codec()
	c.Section("rec")
	var items []uint64
	Slice(c, 9, &items)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "section rec: field tag 9: count") {
		t.Fatalf("err = %v, want an oversized-count error", err)
	}
	if items != nil {
		t.Fatalf("rejected count allocated %d elements", len(items))
	}
}

// TestCodecEncodeFailure: an encoding failure is sticky, and the visit
// function stops writing.
func TestCodecEncodeFailure(t *testing.T) {
	w := NewWriter()
	c := w.Codec()
	c.Failf("refused %d", 1)
	c.Failf("refused %d", 2)
	if c.Section("rec") {
		t.Fatal("Section opened after a failure")
	}
	if err := c.Err(); err == nil || err.Error() != "refused 1" {
		t.Fatalf("err = %v, want the first failure", err)
	}
}
