package packet

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Each header's layout is written once, as a layout method over the
// header's own bytes at fixed offsets: with enc it writes every field
// into the bytes, without it reads every field out. The movers below are
// its lines; a constant is written on encode and checked on decode by
// the same line. A header's length and checksum are one step after its
// fields, finish, which writes them on encode and verifies them on
// decode. Arena.Decode and AppendEncode are the two drivers. Bytes no
// field covers are zero on encode and skipped on decode.

// u8 moves a one-byte field.
func u8[T ~uint8](b []byte, v *T, enc bool) {
	if enc {
		b[0] = byte(*v)
	} else {
		*v = T(b[0])
	}
}

// u16 moves a big-endian two-byte field.
func u16[T ~uint16](b []byte, v *T, enc bool) {
	if enc {
		binary.BigEndian.PutUint16(b, uint16(*v))
	} else {
		*v = T(binary.BigEndian.Uint16(b))
	}
}

// u32 moves a big-endian four-byte field.
func u32[T ~uint32](b []byte, v *T, enc bool) {
	if enc {
		binary.BigEndian.PutUint32(b, uint32(*v))
	} else {
		*v = T(binary.BigEndian.Uint32(b))
	}
}

// addr moves an address field, whose bytes are v.
func addr(b, v []byte, enc bool) {
	if enc {
		copy(b, v)
	} else {
		copy(v, b)
	}
}

// constant writes want into b on encode; on decode it fails unless b
// holds want. what names the constant.
func constant(b []byte, want, what string, enc bool) error {
	if enc {
		copy(b, want)
		return nil
	}
	for i := 0; i < len(want); i++ {
		if b[i] != want[i] {
			return &constantError{what, string(b[:len(want)]), want}
		}
	}
	return nil
}

// constantError is a decode that found other bytes where a layout has a
// constant. A type rather than a fmt.Errorf call keeps constant small
// enough to inline into the layouts.
type constantError struct{ what, got, want string }

func (e *constantError) Error() string {
	return fmt.Sprintf("packet: %s %x, want %x", e.what, e.got, e.want)
}

// checksum is the internet checksum over seg, seeded with initial (a
// pseudo-header sum, or 0), kept at seg[at:at+2]: encode writes it,
// decode reports whether it verifies.
func checksum(seg []byte, at int, initial uint32, enc bool) bool {
	if !enc {
		return internetChecksum(seg, initial) == 0
	}
	seg[at], seg[at+1] = 0, 0
	binary.BigEndian.PutUint16(seg[at:], internetChecksum(seg, initial))
	return true
}

// extend appends n zero bytes to b for a header to be laid out in
// place, returning the longer buffer and the header's bytes. It
// allocates only when b lacks the capacity (append of a make would
// allocate the make under the race detector).
func extend(b []byte, n int) ([]byte, []byte) {
	b = slices.Grow(b, n)[:len(b)+n]
	h := b[len(b)-n:]
	clear(h)
	return b, h
}

// cursor runs the walk of a variable-length L7 layer in one direction:
// encode appends to b, decode reads b from off. take hands out the next
// n bytes either way, so a walk lays out its fixed runs in place with
// the movers above. The first error sticks; decoding past it reads
// zeros, and the caller checks err once the walk is done.
type cursor struct {
	b   []byte
	off int
	enc bool
	err error
}

// zeros are the bytes take appends on encode and hands out past the end
// on decode. No walk takes more than a DHCP option's value, 255 bytes.
var zeros [256]byte

// take calls no function, so it inlines into the walks (a call alone
// costs most of the inliner's budget): encode appends from zeros rather
// than through extend, and a decode past the end records a
// truncatedError, formatted only if it is read.
func (c *cursor) take(n int) []byte {
	switch {
	case c.enc:
		c.b = append(c.b, zeros[:n]...)
		return c.b[len(c.b)-n:]
	case c.off+n > len(c.b):
		c.check(&truncatedError{n, c.off, len(c.b)})
		return zeros[:n:n]
	}
	c.off += n
	return c.b[c.off-n : c.off]
}

// truncatedError is a decode that wanted n bytes at off of an L7 layer
// of length len.
type truncatedError struct{ n, off, len int }

func (e *truncatedError) Error() string {
	return fmt.Sprintf("packet: truncated L7 layer (want %d bytes at offset %d of %d)", e.n, e.off, e.len)
}

func (c *cursor) failf(format string, args ...any) { c.check(fmt.Errorf(format, args...)) }

// check records err unless an earlier error stands.
func (c *cursor) check(err error) {
	if c.err == nil {
		c.err = err
	}
}
