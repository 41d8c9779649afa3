// Package snapshot is the versioned binary codec behind checkpoint /
// restore of whole simulations (DESIGN.md §10). A snapshot is a
// self-describing sequence of named, length-prefixed sections; inside a
// section every field carries an explicit numeric tag and a wire type,
// and the whole image ends in an FNV-1a 64 content-hash trailer that
// OpenReader verifies before handing out a single byte.
//
// The format is deliberately boring: no reflection, no interface
// registry, no compression — just uvarints, zigzag, fixed64 bits and
// length-prefixed byte strings. Each section is coded by one visit
// function over a Codec, which writes the fields when snapshotting and
// reads them back when restoring, so the two directions cannot disagree
// on tags, wire types or order. Readers are strict and sticky-error: the
// first mismatch (wrong section name, wrong tag, wrong wire type,
// truncated payload, a count larger than the payload left) poisons the
// reader and every later getter returns zero values, so a visit
// function can run a whole section and check Err() once at the end.
//
// Versioning policy: the header carries a format version; OpenReader
// refuses images from any other version. Snapshots are a debugging and
// warm-start artifact pinned to the code that wrote them — cross-version
// migration is explicitly out of scope (see DESIGN.md §10).
package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Version is the snapshot format version this build writes and the only
// one it accepts back.
const Version = 2

// magic opens every snapshot image.
const magic = "SNAP"

// Wire types, encoded in the low 3 bits of every field header byte; the
// field tag occupies the remaining high bits (header = tag<<3 | wire).
const (
	wireUvarint = 0 // U64, Bool
	wireZigzag  = 1 // I64 (and Time/Duration)
	wireFixed64 = 2 // F64 as IEEE-754 bits
	wireBytes   = 3 // Str, Bytes: uvarint length + raw bytes
)

func wireName(w byte) string {
	switch w {
	case wireUvarint:
		return "uvarint"
	case wireZigzag:
		return "zigzag"
	case wireFixed64:
		return "fixed64"
	case wireBytes:
		return "bytes"
	}
	return fmt.Sprintf("wire(%d)", w)
}

// fnvOffset / fnvPrime are the FNV-1a 64 parameters used for the
// content-hash trailer (the same hash family the golden figure hashes
// use).
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func fnv1a(h uint64, p []byte) uint64 {
	for _, b := range p {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

// Writer builds a snapshot image. Sections must be strictly nested:
// Begin(name) ... typed fields ... End(), with no fields outside a
// section. Finish seals the image with the hash trailer.
type Writer struct {
	buf []byte
	// sec buffers the current section's payload. One buffer serves every
	// section: End copies the payload into buf and the next Begin
	// truncates sec, so no section sees another's bytes. open is true
	// between Begin and End.
	sec     []byte
	open    bool
	secName string
	codec   Codec
}

// imageSizeHint and sectionSizeHint presize a Writer's buffers. They
// cover both reference machines' post-boot images (about 2.6 KB) and
// their largest section (the task table, about 1.2 KB).
const (
	imageSizeHint   = 4 << 10
	sectionSizeHint = 2 << 10
)

// NewWriter returns a Writer with the header already emitted.
func NewWriter() *Writer {
	w := &Writer{buf: make([]byte, 0, imageSizeHint), sec: make([]byte, 0, sectionSizeHint)}
	w.buf = append(w.buf, magic...)
	w.buf = binary.LittleEndian.AppendUint16(w.buf, Version)
	return w
}

// Begin opens a section. Sections do not nest.
func (w *Writer) Begin(name string) {
	if w.open {
		panic(fmt.Sprintf("snapshot: Begin(%q) inside open section %q", name, w.secName))
	}
	if name == "" {
		panic("snapshot: empty section name")
	}
	w.sec = w.sec[:0]
	w.open = true
	w.secName = name
}

// End closes the current section, emitting name + length + payload.
func (w *Writer) End() {
	if !w.open {
		panic("snapshot: End with no open section")
	}
	w.buf = binary.AppendUvarint(w.buf, uint64(len(w.secName)))
	w.buf = append(w.buf, w.secName...)
	w.buf = binary.AppendUvarint(w.buf, uint64(len(w.sec)))
	w.buf = append(w.buf, w.sec...)
	w.open = false
	w.secName = ""
}

func (w *Writer) field(tag uint8, wire byte) {
	if !w.open {
		panic(fmt.Sprintf("snapshot: field tag %d written outside a section", tag))
	}
	w.sec = append(w.sec, tag<<3|wire)
}

// U64 writes an unsigned field.
func (w *Writer) U64(tag uint8, v uint64) {
	w.field(tag, wireUvarint)
	w.sec = binary.AppendUvarint(w.sec, v)
}

// I64 writes a signed field (zigzag). sim.Time and sim.Duration go
// through here as int64s.
func (w *Writer) I64(tag uint8, v int64) {
	w.field(tag, wireZigzag)
	w.sec = binary.AppendUvarint(w.sec, uint64(v)<<1^uint64(v>>63))
}

// F64 writes a float field as its IEEE-754 bits (exact round-trip).
func (w *Writer) F64(tag uint8, v float64) {
	w.field(tag, wireFixed64)
	w.sec = binary.LittleEndian.AppendUint64(w.sec, math.Float64bits(v))
}

// Bool writes a boolean field.
func (w *Writer) Bool(tag uint8, v bool) {
	var u uint64
	if v {
		u = 1
	}
	w.U64(tag, u)
}

// Str writes a string field.
func (w *Writer) Str(tag uint8, s string) {
	w.field(tag, wireBytes)
	w.sec = binary.AppendUvarint(w.sec, uint64(len(s)))
	w.sec = append(w.sec, s...)
}

// Finish seals the image: it appends the FNV-1a 64 trailer over
// everything written so far and returns the complete snapshot bytes.
// The Writer must not be used afterwards.
func (w *Writer) Finish() []byte {
	if w.open {
		panic(fmt.Sprintf("snapshot: Finish with section %q still open", w.secName))
	}
	h := fnv1a(fnvOffset, w.buf)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, h)
	out := w.buf
	w.buf = nil
	return out
}

// Reader decodes a snapshot image. All errors are sticky: after the
// first failure every getter returns the zero value and Err() reports
// the original cause.
type Reader struct {
	data  []byte // remaining section stream (header and trailer stripped)
	sec   []byte // remaining payload of the current section; nil between sections
	name  string // current section name
	err   error
	codec Codec
}

// OpenReader validates the header, the version and the content-hash
// trailer, and returns a Reader positioned at the first section.
func OpenReader(data []byte) (*Reader, error) {
	const headerLen = len(magic) + 2
	const trailerLen = 8
	if len(data) < headerLen+trailerLen {
		return nil, fmt.Errorf("snapshot: image truncated (%d bytes)", len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("snapshot: bad magic %q", data[:len(magic)])
	}
	if v := binary.LittleEndian.Uint16(data[len(magic):]); v != Version {
		return nil, fmt.Errorf("snapshot: format version %d, this build reads only version %d", v, Version)
	}
	body, trailer := data[:len(data)-trailerLen], data[len(data)-trailerLen:]
	want := binary.LittleEndian.Uint64(trailer)
	if got := fnv1a(fnvOffset, body); got != want {
		return nil, fmt.Errorf("snapshot: content hash mismatch: image says %016x, bytes hash to %016x", want, got)
	}
	return &Reader{data: body[headerLen:]}, nil
}

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(format string, args ...interface{}) {
	if r.err == nil {
		where := r.name
		if where == "" {
			where = "(between sections)"
		}
		r.err = fmt.Errorf("snapshot: section %s: %s", where, fmt.Sprintf(format, args...))
	}
}

func (r *Reader) uvarint(buf []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, false
	}
	return v, buf[n:], true
}

// Section opens the next section, which must be named name. Any
// unconsumed bytes of the previous section are an error — restore code
// must account for every field it wrote.
func (r *Reader) Section(name string) {
	if r.err != nil {
		return
	}
	if r.sec != nil {
		r.fail("section closed with %d unread payload bytes", len(r.sec))
		return
	}
	nameLen, rest, ok := r.uvarint(r.data)
	if !ok || uint64(len(rest)) < nameLen {
		r.name = ""
		r.fail("want section %q, image exhausted", name)
		return
	}
	got := rest[:nameLen]
	rest = rest[nameLen:]
	payLen, rest, ok := r.uvarint(rest)
	if !ok || uint64(len(rest)) < payLen {
		r.name = ""
		r.fail("section %q payload truncated", got)
		return
	}
	if string(got) != name {
		r.name = ""
		r.fail("want section %q, image has %q", name, got)
		return
	}
	r.sec = rest[:payLen]
	r.name = name
	r.data = rest[payLen:]
}

// EndSection closes the current section; leftover payload is an error.
func (r *Reader) EndSection() {
	if r.err != nil {
		return
	}
	if r.sec == nil {
		r.fail("EndSection with no open section")
		return
	}
	if len(r.sec) != 0 {
		r.fail("section %q closed with %d unread payload bytes", r.name, len(r.sec))
	}
	r.sec = nil
	r.name = ""
}

// Exhausted reports whether every section has been consumed.
func (r *Reader) Exhausted() bool {
	return r.err == nil && r.sec == nil && len(r.data) == 0
}

func (r *Reader) header(tag uint8, wire byte) bool {
	if r.err != nil {
		return false
	}
	if r.sec == nil {
		r.fail("field tag %d read outside a section", tag)
		return false
	}
	if len(r.sec) == 0 {
		r.fail("want field tag %d (%s), payload exhausted", tag, wireName(wire))
		return false
	}
	h := r.sec[0]
	r.sec = r.sec[1:]
	if h>>3 != tag || h&7 != wire {
		r.fail("want field tag %d (%s), image has tag %d (%s)",
			tag, wireName(wire), h>>3, wireName(h&7))
		return false
	}
	return true
}

// U64 reads an unsigned field with the given tag.
func (r *Reader) U64(tag uint8) uint64 {
	if !r.header(tag, wireUvarint) {
		return 0
	}
	v, rest, ok := r.uvarint(r.sec)
	if !ok {
		r.fail("field tag %d: bad uvarint", tag)
		return 0
	}
	r.sec = rest
	return v
}

// I64 reads a signed field with the given tag.
func (r *Reader) I64(tag uint8) int64 {
	if !r.header(tag, wireZigzag) {
		return 0
	}
	u, rest, ok := r.uvarint(r.sec)
	if !ok {
		r.fail("field tag %d: bad zigzag varint", tag)
		return 0
	}
	r.sec = rest
	return int64(u>>1) ^ -int64(u&1)
}

// F64 reads a float field with the given tag.
func (r *Reader) F64(tag uint8) float64 {
	if !r.header(tag, wireFixed64) {
		return 0
	}
	if len(r.sec) < 8 {
		r.fail("field tag %d: fixed64 truncated", tag)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.sec))
	r.sec = r.sec[8:]
	return v
}

// Bool reads a boolean field with the given tag.
func (r *Reader) Bool(tag uint8) bool {
	v := r.U64(tag)
	if r.err != nil {
		return false
	}
	if v > 1 {
		r.fail("field tag %d: boolean value %d", tag, v)
		return false
	}
	return v == 1
}

// Str reads a string field with the given tag.
func (r *Reader) Str(tag uint8) string {
	return string(r.Bytes(tag))
}

// Bytes reads a byte-string field with the given tag. The returned
// slice aliases the image; callers that retain it must copy.
func (r *Reader) Bytes(tag uint8) []byte {
	if !r.header(tag, wireBytes) {
		return nil
	}
	n, rest, ok := r.uvarint(r.sec)
	if !ok || uint64(len(rest)) < n {
		r.fail("field tag %d: byte string truncated", tag)
		return nil
	}
	r.sec = rest[n:]
	return rest[:n]
}

// Hash returns the FNV-1a 64 content hash of a finished image (the
// trailer value). It assumes data came from Finish; images too short to
// carry a trailer hash to zero.
func Hash(data []byte) uint64 {
	if len(data) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(data[len(data)-8:])
}
