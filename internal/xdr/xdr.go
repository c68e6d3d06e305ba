// Package xdr implements architecture-independent data conversion for
// SNIPE, in the spirit of Sun XDR as used by PVM and RCDS.
//
// All multi-byte quantities are encoded big-endian ("network order") so
// that heterogeneous hosts interoperate: the SNIPE paper (§3.4) lists
// "data conversion (e.g. between different host architectures)" as a
// client-library responsibility. Two layers are provided:
//
//   - Encoder/Decoder: a low-level, append-only binary encoder and a
//     cursor-based decoder used by every wire protocol in the repository.
//   - Packer/Unpacker: a typed, self-describing message buffer in the
//     style of PVM's pvm_pk*/pvm_upk* routines. Each item carries a type
//     tag so that receivers can validate the shape of incoming data.
package xdr

import (
	"errors"
	"fmt"
	"math"
)

// Errors returned by decoding routines.
var (
	// ErrShortBuffer indicates a read past the end of the encoded data.
	ErrShortBuffer = errors.New("xdr: short buffer")
	// ErrStringTooLong indicates a declared length that exceeds the
	// remaining buffer or the sanity limit.
	ErrStringTooLong = errors.New("xdr: declared length exceeds buffer")
	// ErrTypeMismatch indicates an unpack of a different type than packed.
	ErrTypeMismatch = errors.New("xdr: type mismatch")
	// ErrTrailingData indicates extra bytes after a complete decode.
	ErrTrailingData = errors.New("xdr: trailing data")
)

// MaxDecodeLen bounds any single declared string/byte-slice length, as
// a defence against corrupt or hostile length prefixes: no decode path
// ever sizes an allocation from a declared length above this, so a
// frame claiming a 2 GB string fails fast without allocating.
//
// Wire decoders should normally pass a much tighter, field-appropriate
// cap to the *Max variants (StringMax, BytesMax, BytesCopyMax,
// StringSliceMax); the snipe-lint xdrbound analyzer enforces that the
// uncapped forms are not used outside this package.
const MaxDecodeLen = 1 << 28 // 256 MiB

// Encoder accumulates a big-endian binary encoding. The zero value is
// ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an Encoder with capacity preallocated.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded data. The slice aliases the encoder's
// internal buffer; callers that keep encoding must copy it first.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards all encoded data, retaining the buffer.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Truncate discards the data encoded past the first n bytes.
func (e *Encoder) Truncate(n int) { e.buf = e.buf[:n] }

// PutUint8 appends a single byte.
func (e *Encoder) PutUint8(v uint8) { e.buf = append(e.buf, v) }

// PutUint16 appends a big-endian 16-bit value.
func (e *Encoder) PutUint16(v uint16) {
	e.buf = append(e.buf, byte(v>>8), byte(v))
}

// PutUint32 appends a big-endian 32-bit value.
func (e *Encoder) PutUint32(v uint32) {
	e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// PutUint64 appends a big-endian 64-bit value.
func (e *Encoder) PutUint64(v uint64) {
	e.buf = append(e.buf,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// PutInt8 appends a signed byte.
func (e *Encoder) PutInt8(v int8) { e.PutUint8(uint8(v)) }

// PutInt16 appends a big-endian signed 16-bit value.
func (e *Encoder) PutInt16(v int16) { e.PutUint16(uint16(v)) }

// PutInt32 appends a big-endian signed 32-bit value.
func (e *Encoder) PutInt32(v int32) { e.PutUint32(uint32(v)) }

// PutInt64 appends a big-endian signed 64-bit value.
func (e *Encoder) PutInt64(v int64) { e.PutUint64(uint64(v)) }

// PutFloat32 appends an IEEE-754 float in big-endian bit order.
func (e *Encoder) PutFloat32(v float32) { e.PutUint32(math.Float32bits(v)) }

// PutFloat64 appends an IEEE-754 double in big-endian bit order.
func (e *Encoder) PutFloat64(v float64) { e.PutUint64(math.Float64bits(v)) }

// PutBool appends a boolean as a single 0/1 byte.
func (e *Encoder) PutBool(v bool) {
	if v {
		e.PutUint8(1)
	} else {
		e.PutUint8(0)
	}
}

// PutString appends a uint32 length prefix followed by the string bytes.
func (e *Encoder) PutString(s string) {
	e.PutUint32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// PutBytes appends a uint32 length prefix followed by the raw bytes.
func (e *Encoder) PutBytes(b []byte) {
	e.PutUint32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// PutRaw appends bytes with no length prefix.
func (e *Encoder) PutRaw(b []byte) { e.buf = append(e.buf, b...) }

// PutStringSlice appends a count followed by each string.
func (e *Encoder) PutStringSlice(ss []string) {
	e.PutUint32(uint32(len(ss)))
	for _, s := range ss {
		e.PutString(s)
	}
}

// Decoder reads values from a big-endian binary encoding produced by
// Encoder. Decoders are value types; copying one yields an independent
// cursor over the same data.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder returns a Decoder reading from data. The decoder does not
// copy data; the caller must not mutate it while decoding.
func NewDecoder(data []byte) *Decoder { return &Decoder{buf: data} }

// Reset points the decoder at data, from its start.
func (d *Decoder) Reset(data []byte) { d.buf, d.off = data, 0 }

// Remaining reports the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Offset reports the current read offset.
func (d *Decoder) Offset() int { return d.off }

// Finish returns ErrTrailingData if unread bytes remain, nil otherwise.
func (d *Decoder) Finish() error {
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d bytes", ErrTrailingData, d.Remaining())
	}
	return nil
}

// errShort builds an ErrShortBuffer that names the kind being decoded
// and the offset where the buffer ran out, so a corrupted frame (or a
// fuzzer crash) is diagnosable from the error alone.
func (d *Decoder) errShort(kind string, need int) error {
	return fmt.Errorf("%w: %s at offset %d: need %d bytes, have %d",
		ErrShortBuffer, kind, d.off, need, d.Remaining())
}

func (d *Decoder) need(n int) error {
	if d.Remaining() < n {
		return ErrShortBuffer
	}
	return nil
}

// Uint8 reads a single byte.
func (d *Decoder) Uint8() (uint8, error) {
	if d.Remaining() < 1 {
		return 0, d.errShort("uint8", 1)
	}
	v := d.buf[d.off]
	d.off++
	return v, nil
}

// Uint16 reads a big-endian 16-bit value.
func (d *Decoder) Uint16() (uint16, error) {
	if d.Remaining() < 2 {
		return 0, d.errShort("uint16", 2)
	}
	v := uint16(d.buf[d.off])<<8 | uint16(d.buf[d.off+1])
	d.off += 2
	return v, nil
}

// Uint32 reads a big-endian 32-bit value.
func (d *Decoder) Uint32() (uint32, error) {
	if d.Remaining() < 4 {
		return 0, d.errShort("uint32", 4)
	}
	b := d.buf[d.off:]
	v := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	d.off += 4
	return v, nil
}

// Uint64 reads a big-endian 64-bit value.
func (d *Decoder) Uint64() (uint64, error) {
	if d.Remaining() < 8 {
		return 0, d.errShort("uint64", 8)
	}
	b := d.buf[d.off:]
	v := uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
	d.off += 8
	return v, nil
}

// Int8 reads a signed byte.
func (d *Decoder) Int8() (int8, error) {
	v, err := d.Uint8()
	return int8(v), err
}

// Int16 reads a big-endian signed 16-bit value.
func (d *Decoder) Int16() (int16, error) {
	v, err := d.Uint16()
	return int16(v), err
}

// Int32 reads a big-endian signed 32-bit value.
func (d *Decoder) Int32() (int32, error) {
	v, err := d.Uint32()
	return int32(v), err
}

// Int64 reads a big-endian signed 64-bit value.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.Uint64()
	return int64(v), err
}

// Float32 reads an IEEE-754 float.
func (d *Decoder) Float32() (float32, error) {
	v, err := d.Uint32()
	return math.Float32frombits(v), err
}

// Float64 reads an IEEE-754 double.
func (d *Decoder) Float64() (float64, error) {
	v, err := d.Uint64()
	return math.Float64frombits(v), err
}

// Bool reads a boolean byte; any nonzero value is true.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint8()
	return v != 0, err
}

// lengthPrefixed reads one length-prefixed field of the given kind,
// rejecting declared lengths above max (and always above MaxDecodeLen)
// before anything is allocated or consumed past the prefix.
func (d *Decoder) lengthPrefixed(kind string, max int) ([]byte, error) {
	if max < 0 || max > MaxDecodeLen {
		max = MaxDecodeLen
	}
	off := d.off
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if int64(n) > int64(max) {
		return nil, fmt.Errorf("%w: %s at offset %d: declared %d exceeds cap %d",
			ErrStringTooLong, kind, off, n, max)
	}
	if d.Remaining() < int(n) {
		return nil, fmt.Errorf("%w: %s at offset %d: declared %d, remaining %d",
			ErrStringTooLong, kind, off, n, d.Remaining())
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

// String reads a length-prefixed string.
//
// Wire decoders should prefer StringMax with a field-appropriate cap.
func (d *Decoder) String() (string, error) {
	b, err := d.lengthPrefixed("string", MaxDecodeLen)
	return string(b), err
}

// StringMax reads a length-prefixed string, rejecting declared lengths
// above max.
func (d *Decoder) StringMax(max int) (string, error) {
	b, err := d.lengthPrefixed("string", max)
	return string(b), err
}

// Bytes reads a length-prefixed byte slice. The returned slice aliases
// the decoder's underlying buffer.
//
// Wire decoders should prefer BytesMax with a field-appropriate cap.
func (d *Decoder) Bytes() ([]byte, error) {
	return d.lengthPrefixed("bytes", MaxDecodeLen)
}

// BytesMax reads a length-prefixed byte slice, rejecting declared
// lengths above max. The returned slice aliases the decoder's
// underlying buffer.
func (d *Decoder) BytesMax(max int) ([]byte, error) {
	return d.lengthPrefixed("bytes", max)
}

// BytesCopy reads a length-prefixed byte slice into fresh storage.
//
// Wire decoders should prefer BytesCopyMax with a field-appropriate
// cap.
func (d *Decoder) BytesCopy() ([]byte, error) {
	return d.BytesCopyMax(MaxDecodeLen)
}

// BytesCopyMax reads a length-prefixed byte slice into fresh storage,
// rejecting declared lengths above max.
func (d *Decoder) BytesCopyMax(max int) ([]byte, error) {
	b, err := d.lengthPrefixed("bytes", max)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// Raw reads exactly n bytes with no length prefix. The returned slice
// aliases the decoder's underlying buffer.
func (d *Decoder) Raw(n int) ([]byte, error) {
	if n < 0 {
		return nil, ErrShortBuffer
	}
	if err := d.need(n); err != nil {
		return nil, d.errShort("raw", n)
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

// StringSlice reads a count-prefixed sequence of strings.
//
// Wire decoders should prefer StringSliceMax with field-appropriate
// caps.
func (d *Decoder) StringSlice() ([]string, error) {
	return d.StringSliceMax(MaxDecodeLen, MaxDecodeLen)
}

// StringSliceMax reads a count-prefixed sequence of strings, rejecting
// counts above maxItems and individual strings longer than maxEach. A
// declared count that could not fit in the remaining bytes (each
// element costs at least its 4-byte length prefix) fails fast before
// any element is decoded.
func (d *Decoder) StringSliceMax(maxItems, maxEach int) ([]string, error) {
	if maxItems < 0 || maxItems > MaxDecodeLen {
		maxItems = MaxDecodeLen
	}
	off := d.off
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if int64(n) > int64(maxItems) {
		return nil, fmt.Errorf("%w: string slice at offset %d: declared %d items exceeds cap %d",
			ErrStringTooLong, off, n, maxItems)
	}
	if int64(n)*4 > int64(d.Remaining()) {
		return nil, fmt.Errorf("%w: string slice at offset %d: declared %d items, remaining %d bytes",
			ErrStringTooLong, off, n, d.Remaining())
	}
	out := make([]string, 0, min(int(n), 1024))
	for i := uint32(0); i < n; i++ {
		s, err := d.StringMax(maxEach)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
