package xdr

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"slices"
)

// Record framing. Every stream protocol in the repository delimits its
// messages the way XDR record marking does: a 4-byte big-endian length,
// then that many bytes of body. FrameReader and FrameWriter are the one
// implementation of that framing, shared by the comm stream transports
// and the rcds RPC connections. The limit on a frame is its protocol's:
// a caller that pulls frames checks the length Next returns before sizing
// a buffer, one that has them pushed tells Serve.

// ErrFrameTooLarge is Serve's refusal of a header beyond the caller's limit.
var ErrFrameTooLarge = errors.New("xdr: frame too large")

// FrameReadAhead is the read-ahead a FrameReader holds, in bytes. A
// small message frame and the acknowledgement behind it are a few
// hundred bytes together, so one read(2) of this size returns a header,
// its body and whatever short frames are queued behind it — where a
// header read followed by a body read costs two system calls per frame.
// It is a constant so that what a connection keeps resident is known.
const FrameReadAhead = 512

// frameGrowStep is the most Serve adds to a buffer before any of the
// body has arrived. The length in a header is the peer's claim;
// memory follows the bytes that actually arrive.
const frameGrowStep = 64 << 10

// FrameReader reads length-prefixed frames from a byte stream through a
// fixed read-ahead: pulled with Next and ReadBody (comm, whose Recv is a
// pull interface) or pushed by Serve (rcds). It is not safe for concurrent use.
type FrameReader struct {
	r      io.Reader
	err    error   // from the last Read; surfaces once the read-ahead is used up
	lo, hi int     // buf[lo:hi] is read but not yet consumed
	hdr    [4]byte // Next's scratch; a local would escape through Read
	buf    [FrameReadAhead]byte

	// Serve's frame state machine: a source of bytes reads into next() and tells took().
	limit         uint32
	fn            func([]byte) ([]byte, error)
	flush         func() error // nil: fn's answers need no flush
	n             int          // the body length the current header declared; -1 between frames and inside a header
	body          []byte       // the current body's storage, filled to its length
	direct        bool         // next() returned body's storage, not the read-ahead
	reads, frames uint64       // read calls issued, frames delivered
}

// NewFrameReader returns a FrameReader on r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Next consumes the next frame's header and returns the body length it
// declares. The caller must consume exactly that many body bytes
// (ReadBody) before calling Next again. At a clean end
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

// Serve hands fn every frame of the stream, in order, until fn or the
// stream ends it, and returns why: io.EOF between frames; inside one
// io.ErrUnexpectedEOF, or io.EOF if no byte of the body had come, as
// io.ReadFull reports it. A header that declares more than limit is refused
// with ErrFrameTooLarge before anything is sized. A body is assembled in
// buf's storage, then in what fn returned for the frame before (the frame
// is fn's until then; nil is legal). Storage is added as bytes arrive — up
// to 64 KiB at first, then doubling — so a peer that declares a large frame
// and stalls holds only what it has sent. flush, if not nil, is called once
// the frames one read completed have all been handed to fn, before the loop
// reads or waits again — also when fn or the stream has ended it, whose
// error then wins over flush's — so that a caller answering its frames can
// write the answers to a read's frames together. On a stream socket Serve
// waits inside the descriptor's read lock (serveFD), which Close waits for:
// fn and flush must return an error for Serve's caller to close on, not
// close themselves.
func (fr *FrameReader) Serve(limit uint32, buf []byte, fn func(frame []byte) ([]byte, error), flush func() error) error {
	fr.limit, fr.fn, fr.flush, fr.n, fr.body = limit, fn, flush, -1, buf[:0]
	defer func() { fr.fn, fr.flush, fr.body = nil, nil, nil }() // the reader may outlive the loop; what fn and flush captured and the last buffer need not
	if err := fr.deliver(); err != nil {
		return err
	}
	if served, err := fr.serveFD(); served {
		return err
	}
	for {
		n, err := fr.r.Read(fr.next())
		if err = fr.took(n, err); err != nil {
			return err
		}
	}
}

// Counts reports Serve's read calls, EAGAIN ones included, and the frames it
// handed to fn. Another goroutine asks once Serve has returned.
func (fr *FrameReader) Counts() (reads, frames uint64) { return fr.reads, fr.frames }

// window returns the body's storage still to fill, adding some once it is full.
func (fr *FrameReader) window() []byte {
	got := len(fr.body)
	if got == cap(fr.body) {
		fr.body = slices.Grow(fr.body, min(fr.n, max(2*got, frameGrowStep))-got)
	}
	return fr.body[got:min(fr.n, cap(fr.body))]
}

// next returns where the next read goes: the body itself (never staged) while
// its window lacks a read-ahead's worth, else the read-ahead behind what it holds.
func (fr *FrameReader) next() []byte {
	if fr.direct = false; fr.n >= 0 {
		if w := fr.window(); len(w) >= len(fr.buf) {
			fr.direct = true
			return w
		}
	}
	fr.lo, fr.hi = 0, copy(fr.buf[:], fr.buf[fr.lo:fr.hi])
	return fr.buf[fr.hi:]
}

// took accounts for a read of n bytes into next()'s slice that returned
// err, and serves what it completed.
func (fr *FrameReader) took(n int, err error) error {
	fr.reads++
	if fr.direct {
		fr.body = fr.body[:len(fr.body)+n]
	} else {
		fr.hi += n
	}
	if ferr := fr.deliver(); ferr != nil {
		return ferr
	}
	if err == io.EOF && (fr.lo < fr.hi || fr.n >= 0 && len(fr.body) > 0) {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// deliver is advance followed by the flush of what it handed fn, if it
// handed fn a frame.
func (fr *FrameReader) deliver() error {
	frames := fr.frames
	err := fr.advance()
	if fr.flush != nil && fr.frames != frames {
		if ferr := fr.flush(); err == nil {
			err = ferr
		}
	}
	return err
}

// advance moves what the read-ahead holds into frames and hands fn every
// complete one, until it is short of a header or used up inside a body.
func (fr *FrameReader) advance() (err error) {
	for {
		if fr.n < 0 {
			if fr.hi-fr.lo < 4 {
				return nil
			}
			n := binary.BigEndian.Uint32(fr.buf[fr.lo:])
			if n > fr.limit {
				return ErrFrameTooLarge
			}
			fr.lo += 4
			fr.n, fr.body = int(n), fr.body[:0]
		}
		for len(fr.body) < fr.n {
			if fr.lo == fr.hi {
				return nil
			}
			k := copy(fr.window(), fr.buf[fr.lo:fr.hi])
			fr.lo += k
			fr.body = fr.body[:len(fr.body)+k]
		}
		fr.frames++
		fr.n = -1
		if fr.body, err = fr.fn(fr.body); err != nil {
			return err
		}
	}
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
