package snapshot

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter()
	w.Begin("alpha")
	w.U64(1, 0)
	w.U64(2, math.MaxUint64)
	w.I64(3, -1)
	w.I64(4, math.MinInt64)
	w.F64(5, 3.141592653589793)
	w.F64(6, math.Inf(-1))
	w.Bool(7, true)
	w.Bool(8, false)
	w.Str(9, "hello, snapshot")
	w.Str(10, "\x00\x01\x02\xff")
	w.Str(11, "")
	w.End()
	w.Begin("beta")
	w.U64(1, 42)
	w.End()
	img := w.Finish()

	r, err := OpenReader(img)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	r.Section("alpha")
	if got := r.U64(1); got != 0 {
		t.Errorf("U64(1) = %d", got)
	}
	if got := r.U64(2); got != math.MaxUint64 {
		t.Errorf("U64(2) = %d", got)
	}
	if got := r.I64(3); got != -1 {
		t.Errorf("I64(3) = %d", got)
	}
	if got := r.I64(4); got != math.MinInt64 {
		t.Errorf("I64(4) = %d", got)
	}
	if got := r.F64(5); got != 3.141592653589793 {
		t.Errorf("F64(5) = %v", got)
	}
	if got := r.F64(6); !math.IsInf(got, -1) {
		t.Errorf("F64(6) = %v", got)
	}
	if !r.Bool(7) || r.Bool(8) {
		t.Errorf("Bool fields wrong")
	}
	if got := r.Str(9); got != "hello, snapshot" {
		t.Errorf("Str(9) = %q", got)
	}
	if got := r.Bytes(10); string(got) != "\x00\x01\x02\xff" {
		t.Errorf("Bytes(10) = %v", got)
	}
	if got := r.Str(11); got != "" {
		t.Errorf("Str(11) = %q", got)
	}
	r.EndSection()
	r.Section("beta")
	if got := r.U64(1); got != 42 {
		t.Errorf("beta U64(1) = %d", got)
	}
	r.EndSection()
	if err := r.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	if !r.Exhausted() {
		t.Fatalf("reader not exhausted")
	}
}

func TestHashTrailer(t *testing.T) {
	w := NewWriter()
	w.Begin("s")
	w.U64(1, 7)
	w.End()
	img := w.Finish()
	if Hash(img) == 0 {
		t.Fatalf("zero content hash")
	}
	// Flip one payload byte: the trailer must catch it.
	bad := append([]byte(nil), img...)
	bad[len(bad)/2] ^= 0x40
	if _, err := OpenReader(bad); err == nil || !strings.Contains(err.Error(), "content hash") {
		t.Fatalf("corrupted image opened: %v", err)
	}
}

func TestOpenReaderRejects(t *testing.T) {
	if _, err := OpenReader([]byte("short")); err == nil {
		t.Errorf("truncated image opened")
	}
	w := NewWriter()
	img := w.Finish()

	mangled := append([]byte(nil), img...)
	copy(mangled, "JUNK")
	if _, err := OpenReader(mangled); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic opened: %v", err)
	}

	future := append([]byte(nil), img...)
	binary.LittleEndian.PutUint16(future[4:], Version+1)
	// Re-seal so only the version check can object.
	body := future[:len(future)-8]
	binary.LittleEndian.PutUint64(future[len(future)-8:], fnv1a(fnvOffset, body))
	if _, err := OpenReader(future); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version opened: %v", err)
	}
}

func TestStrictFieldMismatch(t *testing.T) {
	w := NewWriter()
	w.Begin("s")
	w.U64(1, 7)
	w.End()
	img := w.Finish()

	r, _ := OpenReader(img)
	r.Section("s")
	if got := r.I64(1); got != 0 { // wrong wire type
		t.Errorf("mismatched read returned %d", got)
	}
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "want field tag 1") {
		t.Fatalf("wire mismatch not sticky: %v", err)
	}
	// Sticky: later reads stay zero without panicking.
	if r.U64(1) != 0 || r.Str(2) != "" {
		t.Errorf("reads after error not zero")
	}

	r2, _ := OpenReader(img)
	r2.Section("s")
	if r2.U64(2) != 0 { // wrong tag
		t.Errorf("mismatched tag returned a value")
	}
	if err := r2.Err(); err == nil {
		t.Fatalf("tag mismatch not recorded")
	}
}

func TestSectionErrors(t *testing.T) {
	w := NewWriter()
	w.Begin("a")
	w.U64(1, 1)
	w.End()
	w.Begin("b")
	w.End()
	img := w.Finish()

	// Wrong section name.
	r, _ := OpenReader(img)
	r.Section("zzz")
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), `want section "zzz"`) {
		t.Errorf("wrong section name: %v", err)
	}

	// Leftover payload at EndSection.
	r2, _ := OpenReader(img)
	r2.Section("a")
	r2.EndSection()
	if err := r2.Err(); err == nil || !strings.Contains(err.Error(), "unread payload") {
		t.Errorf("leftover payload: %v", err)
	}

	// Reading past the last section.
	r3, _ := OpenReader(img)
	r3.Section("a")
	_ = r3.U64(1)
	r3.EndSection()
	r3.Section("b")
	r3.EndSection()
	if !r3.Exhausted() {
		t.Errorf("image should be exhausted")
	}
	r3.Section("c")
	if err := r3.Err(); err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Errorf("read past end: %v", err)
	}
}

// TestWriterPanics: misuse of the section protocol panics with a message
// naming the misuse, also after sections have been opened and closed.
func TestWriterPanics(t *testing.T) {
	mustPanic := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			t.Helper()
			if got := recover(); got != want {
				t.Errorf("%s: panic %v, want %q", name, got, want)
			}
		}()
		fn()
	}
	mustPanic("nested Begin", `snapshot: Begin("b") inside open section "a"`, func() {
		w := NewWriter()
		w.Begin("a")
		w.Begin("b")
	})
	mustPanic("End outside section", "snapshot: End with no open section", func() { NewWriter().End() })
	mustPanic("End after End", "snapshot: End with no open section", func() {
		w := NewWriter()
		w.Begin("a")
		w.U64(1, 1)
		w.End()
		w.End()
	})
	mustPanic("field outside section", "snapshot: field tag 1 written outside a section", func() { NewWriter().U64(1, 1) })
	mustPanic("field after End", "snapshot: field tag 2 written outside a section", func() {
		w := NewWriter()
		w.Begin("a")
		w.U64(1, 1)
		w.End()
		w.Str(2, "x")
	})
	mustPanic("Finish with open section", `snapshot: Finish with section "a" still open`, func() {
		w := NewWriter()
		w.Begin("a")
		w.Finish()
	})
	mustPanic("empty section name", "snapshot: empty section name", func() { NewWriter().Begin("") })
}

// TestWriterSectionReuse: every section is encoded on its own, whatever
// sections came before it. A long section followed by a short one must
// encode to the committed bytes, with no byte of the long payload left in
// the short one.
func TestWriterSectionReuse(t *testing.T) {
	w := NewWriter()
	w.Begin("long")
	w.Str(1, strings.Repeat("x", 300))
	w.U64(2, 300)
	w.End()
	w.Begin("s")
	w.U64(1, 7)
	w.End()
	w.Begin("e")
	w.End()
	got := hex.EncodeToString(w.Finish())
	want := "534e41500200" + // magic, version 2
		"046c6f6e67" + "b202" + // "long", 306-byte payload:
		"0bac02" + strings.Repeat("78", 300) + "10ac02" + // Str(1, 300 x "x"), U64(2, 300)
		"0173" + "02" + "0807" + // "s", 2-byte payload: U64(1, 7)
		"0165" + "00" + // "e", empty payload
		"efc7ce1b1b653510" // FNV-1a trailer
	if got != want {
		t.Fatalf("encoding\n got %s\nwant %s", got, want)
	}
}
