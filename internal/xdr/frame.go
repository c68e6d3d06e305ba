package xdr

import (
	"encoding/binary"
	"io"
	"net"
	"slices"
)

// Record framing. Every stream protocol in the repository delimits its
// messages the way XDR record marking does: a 4-byte big-endian length,
// then that many bytes of body. FrameReader and FrameWriter are the one
// implementation of that framing, shared by the comm stream transports
// and the rcds RPC connections. Neither bounds a frame: the caller knows
// its protocol's limit and checks the length Next returns against it
// before sizing a buffer.

// FrameReadAhead is the read-ahead a FrameReader holds, in bytes. A
// small message frame and the acknowledgement behind it are a few
// hundred bytes together, so one read(2) of this size returns a header,
// its body and whatever short frames are queued behind it — where a
// header read followed by a body read costs two system calls per frame.
// It is a constant so that what a connection keeps resident is known.
const FrameReadAhead = 512

// frameGrowStep is the most ReadBodyInto adds to a buffer before any of
// the body has arrived. The length in a header is the peer's claim;
// memory follows the bytes that actually arrive.
const frameGrowStep = 64 << 10

// FrameReader reads length-prefixed frames from a byte stream through a
// fixed read-ahead. It is not safe for concurrent use.
type FrameReader struct {
	r      io.Reader
	err    error   // from the last Read; surfaces once the read-ahead is used up
	lo, hi int     // buf[lo:hi] is read but not yet consumed
	hdr    [4]byte // Next's scratch; a local would escape through Read
	buf    [FrameReadAhead]byte
}

// NewFrameReader returns a FrameReader on r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Next consumes the next frame's header and returns the body length it
// declares. The caller must consume exactly that many body bytes
// (ReadBody or ReadBodyInto) before calling Next again. At a clean end
// of stream it returns io.EOF, inside a header io.ErrUnexpectedEOF.
func (fr *FrameReader) Next() (uint32, error) {
	if err := fr.ReadBody(fr.hdr[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(fr.hdr[:]), nil
}

// ReadBody fills dst with the next len(dst) bytes of the stream. Bytes
// already read ahead are copied out; once at least a read-ahead's worth
// is still missing it is read straight into dst, so a large body is
// never staged. A stream that ends first is an error, as io.ReadFull
// reports it: io.EOF if no byte of dst arrived, io.ErrUnexpectedEOF
// otherwise.
func (fr *FrameReader) ReadBody(dst []byte) error {
	got := 0
	for got < len(dst) {
		if fr.lo < fr.hi {
			n := copy(dst[got:], fr.buf[fr.lo:fr.hi])
			fr.lo += n
			got += n
			continue
		}
		if fr.err != nil {
			err := fr.err
			fr.err = nil // reported once; a caller that retries reads again
			if err == io.EOF && got > 0 {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		if len(dst)-got >= len(fr.buf) {
			var n int
			n, fr.err = fr.r.Read(dst[got:])
			got += n
			continue
		}
		fr.lo = 0
		fr.hi, fr.err = fr.r.Read(fr.buf[:])
	}
	return nil
}

// ReadBodyInto reads an n-byte body into buf's storage, from its start,
// and returns it; a caller that hands the slice back for its next frame
// allocates only when a frame is larger than any before it. Storage is
// added as bytes arrive — up to 64 KiB at first, then doubling — so a
// peer that declares a large frame and then stalls holds only what it
// has sent, and a nil buf costs a small frame no more than its size.
func (fr *FrameReader) ReadBodyInto(buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		got := len(buf)
		buf = slices.Grow(buf, min(n, max(2*got, frameGrowStep))-got)
		buf = buf[:min(n, cap(buf))]
		if err := fr.ReadBody(buf[got:]); err != nil {
			if err == io.EOF && got > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}

// FrameWriter writes length-prefixed frames with one vectored write per
// frame (writev on TCP and Unix sockets) and no allocation: the header
// and the write vector live in the writer. It is not safe for
// concurrent use; callers serialise writers of one connection.
type FrameWriter struct {
	w    io.Writer
	hdr  [4]byte
	vec  [3][]byte
	bufs net.Buffers // a window on vec; WriteTo consumes it, so it is rebuilt per frame
}

// NewFrameWriter returns a FrameWriter on w.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// WriteFrame writes one frame whose body is body followed by trailer
// (an authentication code, or nil). The caller has checked the total
// against its protocol's limit.
func (fw *FrameWriter) WriteFrame(body, trailer []byte) error {
	binary.BigEndian.PutUint32(fw.hdr[:], uint32(len(body)+len(trailer)))
	fw.vec = [3][]byte{fw.hdr[:], body, trailer}
	fw.bufs = fw.vec[:2]
	if len(trailer) > 0 {
		fw.bufs = fw.vec[:3]
	}
	_, err := fw.bufs.WriteTo(fw.w)
	fw.vec = [3][]byte{} // do not pin the caller's buffers until the next frame
	return err
}
