package snapshot

import "fmt"

// Codec runs one visit function in either direction: encoding through a
// Writer, or decoding through a Reader. Each field method takes a
// pointer: encoding writes the pointee, decoding sets it from the
// image. A section coded by one function cannot disagree with itself on
// tags, wire types or order.
//
// Errors are sticky, as on the Reader: after the first failure every
// field method is a no-op on encode and sets zero values on decode, so a
// visit function checks Err only before it dereferences something it
// decoded.
type Codec struct {
	w   *Writer
	r   *Reader
	err error // encoding only; a decoding error is the Reader's
}

// Codec returns the encoding Codec over w. It is part of w, so taking it
// allocates nothing.
func (w *Writer) Codec() *Codec {
	w.codec.w = w
	return &w.codec
}

// Codec returns the decoding Codec over r. It is part of r, so taking it
// allocates nothing.
func (r *Reader) Codec() *Codec {
	r.codec.r = r
	return &r.codec
}

// Decoding reports whether the codec reads an image (restore) rather
// than writes one (snapshot).
func (c *Codec) Decoding() bool { return c.r != nil }

// Err returns the first error, or nil.
func (c *Codec) Err() error {
	if c.r != nil {
		return c.r.Err()
	}
	return c.err
}

// Failf fails the codec with a formatted error, unless it has already
// failed. Visit functions report refusals (encoding) and inconsistent
// images (decoding) through it.
func (c *Codec) Failf(format string, args ...any) {
	if c.Err() != nil {
		return
	}
	err := fmt.Errorf(format, args...)
	if c.r != nil {
		c.r.err = err
	} else {
		c.err = err
	}
}

// Section opens the named section and reports whether the codec is
// still healthy; a visit function returns at once when it is not.
func (c *Codec) Section(name string) bool {
	if c.Err() != nil {
		return false
	}
	if c.r != nil {
		c.r.Section(name)
	} else {
		c.w.Begin(name)
	}
	return c.Err() == nil
}

// End closes the current section.
func (c *Codec) End() {
	if c.r != nil {
		c.r.EndSection()
	} else if c.err == nil {
		c.w.End()
	}
}

// U64 codes an unsigned field.
func (c *Codec) U64(tag uint8, v *uint64) {
	if c.r != nil {
		*v = c.r.U64(tag)
	} else if c.err == nil {
		c.w.U64(tag, *v)
	}
}

// I64 codes a signed (zigzag) field.
func (c *Codec) I64(tag uint8, v *int64) {
	if c.r != nil {
		*v = c.r.I64(tag)
	} else if c.err == nil {
		c.w.I64(tag, *v)
	}
}

// F64 codes a float field as its IEEE-754 bits.
func (c *Codec) F64(tag uint8, v *float64) {
	if c.r != nil {
		*v = c.r.F64(tag)
	} else if c.err == nil {
		c.w.F64(tag, *v)
	}
}

// Bool codes a boolean field.
func (c *Codec) Bool(tag uint8, v *bool) {
	if c.r != nil {
		*v = c.r.Bool(tag)
	} else if c.err == nil {
		c.w.Bool(tag, *v)
	}
}

// Str codes a string field. Decoding allocates the string.
func (c *Codec) Str(tag uint8, v *string) {
	if c.r != nil {
		*v = c.r.Str(tag)
	} else if c.err == nil {
		c.w.Str(tag, *v)
	}
}

// Name codes a string field that decoding resolves instead of storing:
// encoding writes s and returns nil, decoding returns the image's bytes.
// They alias the image, so the caller looks them up (a lock by name, an
// event kind by name) and never keeps them.
func (c *Codec) Name(tag uint8, s string) []byte {
	if c.r != nil {
		return c.r.Bytes(tag)
	}
	if c.err == nil {
		c.w.Str(tag, s)
	}
	return nil
}

// Len codes an element count. Decoding rejects a count larger than the
// section's remaining payload: every element takes at least one byte,
// so a larger count can only come from a crafted image, and checking it
// here keeps the caller from sizing an allocation or a loop by it.
func (c *Codec) Len(tag uint8, n *int) {
	v := uint64(*n)
	c.U64(tag, &v)
	if c.r != nil && v > uint64(len(c.r.sec)) {
		c.r.fail("field tag %d: count %d exceeds the %d payload bytes left", tag, v, len(c.r.sec))
		v = 0
	}
	*n = int(v)
}

// Expect codes a field whose value construction fixes: encoding writes
// v, decoding reads the image's value and fails the codec when it is
// not v. The error is format applied to args followed by the image's
// value and v.
func (c *Codec) Expect(tag uint8, v uint64, format string, args ...any) {
	got := v
	c.U64(tag, &got)
	if got != v {
		c.mismatch(format, args, got, v)
	}
}

// ExpectStr is Expect for a string field; decoding compares without
// allocating.
func (c *Codec) ExpectStr(tag uint8, v string, format string, args ...any) {
	if got := c.Name(tag, v); c.r != nil && string(got) != v {
		c.mismatch(format, args, string(got), v)
	}
}

// mismatch fails an Expect. It copies args rather than appending to
// them, so callers' argument slices stay on their stacks.
func (c *Codec) mismatch(format string, args []any, got, want any) {
	if c.Err() == nil {
		c.Failf(format, append(append([]any(nil), args...), got, want)...)
	}
}

// integer is every integer kind a snapshotted field may have.
type integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// Uint codes an integer-kinded field (a CPUMask, a count, a state enum)
// on the uvarint wire. Encoding stores back the value it wrote.
func Uint[T integer](c *Codec, tag uint8, v *T) {
	u := uint64(*v)
	c.U64(tag, &u)
	*v = T(u)
}

// Int codes an integer-kinded field (a sim.Time, a sim.Duration, a
// signed counter) on the zigzag wire. Encoding stores back the value it
// wrote.
func Int[T integer](c *Codec, tag uint8, v *T) {
	i := int64(*v)
	c.I64(tag, &i)
	*v = T(i)
}

// Slice codes a slice's length under tag; decoding replaces *s with a
// new slice of that length (nil when empty) for the caller to fill
// element by element.
func Slice[T any](c *Codec, tag uint8, s *[]T) {
	n := len(*s)
	c.Len(tag, &n)
	if c.r != nil {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
}
