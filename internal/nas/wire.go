package nas

import (
	"encoding/binary"
	"fmt"
)

// writer accumulates wire bytes. It never fails: lengths are validated by
// the IE constructors before encoding.
type writer struct {
	buf []byte
	// pool, when set (a pooled Codec's writer), learns every string the
	// writer encodes, so that the peer decoding it finds it held.
	pool *Pool
}

func (w *writer) byte(b byte)     { w.buf = append(w.buf, b) }
func (w *writer) bytes() []byte   { return w.buf }
func (w *writer) raw(b []byte)    { w.buf = append(w.buf, b...) }
func (w *writer) uint16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }
func (w *writer) uint32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }

// lv writes a length-prefixed value (1-byte length).
func (w *writer) lv(v []byte) {
	if len(v) > 255 {
		panic(fmt.Sprintf("nas: LV value too long: %d", len(v)))
	}
	w.byte(byte(len(v)))
	w.raw(v)
}

// tlv writes a tagged length-prefixed value.
func (w *writer) tlv(tag byte, v []byte) {
	w.byte(tag)
	w.lv(v)
}

// lvString writes a length-prefixed string without converting it to bytes
// first.
func (w *writer) lvString(s string) {
	if len(s) > 255 {
		panic(fmt.Sprintf("nas: LV value too long: %d", len(s)))
	}
	w.byte(byte(len(s)))
	w.buf = append(w.buf, s...)
	w.pool.hold(s)
}

// tlvString writes a TLV whose value is a string.
func (w *writer) tlvString(tag byte, s string) {
	w.byte(tag)
	w.lvString(s)
}

// tlvOpen starts a TLV whose value the caller encodes straight into w; the
// returned mark goes to tlvClose, which fills in the length. Writing the
// value in place costs neither a sub-writer nor a copy.
func (w *writer) tlvOpen(tag byte) (mark int) {
	w.buf = append(w.buf, tag, 0)
	return len(w.buf)
}

func (w *writer) tlvClose(mark int) {
	n := len(w.buf) - mark
	if n > 255 {
		panic(fmt.Sprintf("nas: LV value too long: %d", n))
	}
	w.buf[mark-1] = byte(n)
}

// reader consumes wire bytes with sticky error semantics: after the first
// failure every subsequent read is a no-op returning zero values, and the
// error is surfaced once by Unmarshal.
type reader struct {
	buf []byte
	off int
	err error
	// codec, when set (a Codec's readers), lends ie the reader it runs its
	// callback on, so decoding an optional IE allocates none (one is
	// enough: IE callbacks read values and never open an IE of their own),
	// and its pool's strings.
	codec *Codec
}

// str returns b as a string the message may keep.
func (r *reader) str(b []byte) string {
	if r.codec != nil {
		return r.codec.Pool.intern(b)
	}
	return string(b)
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", ErrTruncated, fmt.Sprintf(format, args...), r.off)
	}
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 1 {
		r.fail("need 1 byte")
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.remaining() < n {
		r.fail("need %d bytes, have %d", n, r.remaining())
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) uint16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *reader) uint32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// lv reads a 1-byte-length-prefixed value.
func (r *reader) lv() []byte {
	n := int(r.byte())
	return r.take(n)
}

// optionals iterates the trailing optional TLV section, invoking fn for
// each (tag, value) pair. Unknown tags are skipped (forward compatibility,
// mirroring the "comprehension not required" IE behaviour).
func (r *reader) optionals(fn func(tag byte, val []byte)) {
	for r.err == nil && r.remaining() > 0 {
		tag := r.byte()
		val := r.lv()
		if r.err != nil {
			return
		}
		fn(tag, val)
	}
}

// ie decodes a known optional IE value with strict framing: fn runs on a
// sub-reader over val, and a sub-reader error or unconsumed bytes fail the
// outer reader. A recognized IE whose value is short, over-long, or not a
// whole number of list elements therefore rejects the whole message rather
// than silently decoding to a truncated prefix or a zero value.
func (r *reader) ie(tag byte, val []byte, fn func(rr *reader)) {
	if r.err != nil {
		return
	}
	var rr *reader
	if r.codec != nil {
		rr = &r.codec.sub
	} else {
		rr = new(reader)
	}
	*rr = reader{buf: val, codec: r.codec}
	fn(rr)
	switch {
	case rr.err != nil:
		r.err = fmt.Errorf("%w: tag %#02x: %v", ErrMalformedIE, tag, rr.err)
	case rr.remaining() != 0:
		r.err = fmt.Errorf("%w: tag %#02x: %d trailing bytes", ErrMalformedIE, tag, rr.remaining())
	}
}

// ieList decodes an IE value that is a whole number of fixed-size list
// elements, invoking elem once per element. A partial trailing element
// fails the outer reader via ie's framing check.
func (r *reader) ieList(tag byte, val []byte, elem func(rr *reader)) {
	r.ie(tag, val, func(rr *reader) {
		for rr.err == nil && rr.remaining() > 0 {
			elem(rr)
		}
	})
}
