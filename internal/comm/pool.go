package comm

import (
	"sync"

	"snipe/internal/xdr"
)

// Buffer pools for the comm hot paths. What a small message still
// allocates is what outlives it: the sender's outMsg and its ack
// channel, the receiver's Message and its right-sized payload copy.
// Everything with a shorter life is recycled here — the system-buffer
// copy of the application payload made by send(), the per-fragment wire
// frame, the per-frame receive buffer that streamFrameConn.Recv and the
// RUDP data path fill, and the payload a multi-fragment message is
// reassembled into:
//
//   - Payload buffers are reference-counted on the outMsg (see
//     acquirePayload/releasePayload in endpoint.go) because the ack
//     path and a concurrent retry transmission may race; the buffer
//     returns to the pool only when the last reader drops its
//     reference.
//   - Receive-side frame buffers are owned by the FrameConn caller:
//     every Recv hands the buffer over, and the endpoint read loop
//     recycles it unless frame handling retained it (a fragment of a
//     multi-fragment message parked in a reassembly, recycled when the
//     message is assembled or abandoned).
//   - A reassembled payload bound for a handler (WithHandler) is
//     assembled into a pooled buffer, lent, and returned to the pool
//     when the handler returns (reclaim in endpoint.go). One endpoint
//     lends one at a time: a message that arrives while its handler is
//     busy waits in its receive buffers and is assembled in its turn.
//     A payload for the mailbox, or relayed by a gateway, is the
//     receiver's for good, in a right-sized buffer left to the GC.
//   - Frame encoders are owned by exactly one sender goroutine at a
//     time and can be reused immediately after FrameConn.Send
//     returns: every FrameConn implementation either writes the frame
//     synchronously (streamFrameConn), copies it into its own packet
//     buffer (rudpConn, inprocConn), or seals it into a fresh
//     ciphertext buffer (encryptedConn) before returning. Message
//     frames and acknowledgement frames are both built in them.
//
// A sync.Pool stores interface values, and a slice header does not fit
// in one: the pools hold *[]byte boxes, and the boxes are themselves
// recycled (bufBoxes), so neither Get nor Put allocates once warm.

// maxPooledPayload bounds payload buffers kept for reuse; anything
// larger is handed to the GC so one huge message doesn't pin memory.
const maxPooledPayload = 8 << 20

// maxPooledEncoder bounds the capacity of recycled frame encoders.
const maxPooledEncoder = 2 << 20

// payloadClasses are the pooled buffer size classes. A single pool
// mixed 1 KiB receive frames with 8 MiB payload copies, so a getter
// could draw a buffer 8000× its need (pinning memory) or, worse, a
// small buffer forced a fresh allocation anyway. Classes keep each
// pool right-sized: RUDP datagrams in the smallest, stream frames
// (≤ tcpFragmentSize, and anything up to maxWireFrame) in the middle
// two, whole-message payload copies in the largest.
var payloadClasses = [...]int{4 << 10, tcpFragmentSize + 1024, unixFragmentSize + 1024, maxWireFrame, maxPooledPayload}

var payloadPools [len(payloadClasses)]sync.Pool

// bufBoxes holds the empty *[]byte boxes between a getPayloadBuf, which
// takes the slice out of one, and the putPayloadBuf that needs one again.
var bufBoxes sync.Pool

// payloadClassFor returns the index of the smallest class that fits n,
// or -1 when n exceeds every class.
func payloadClassFor(n int) int {
	for i, c := range payloadClasses {
		if n <= c {
			return i
		}
	}
	return -1
}

// getPayloadBuf returns a length-n buffer, reusing a pooled one from
// n's size class when available.
func getPayloadBuf(n int) []byte {
	ci := payloadClassFor(n)
	if ci < 0 {
		return make([]byte, n)
	}
	if v := payloadPools[ci].Get(); v != nil {
		box := v.(*[]byte)
		b := *box
		*box = nil
		bufBoxes.Put(box)
		return b[:n]
	}
	return make([]byte, n, payloadClasses[ci])
}

// putPayloadBuf recycles a buffer obtained from getPayloadBuf (or any
// other buffer the caller is done with) into the largest size class
// its capacity can serve. Buffers below the smallest class or above
// the pooling bound go to the GC.
func putPayloadBuf(b []byte) {
	c := cap(b)
	if c == 0 || c > maxPooledPayload {
		return
	}
	for i := len(payloadClasses) - 1; i >= 0; i-- {
		if c >= payloadClasses[i] {
			box, _ := bufBoxes.Get().(*[]byte)
			if box == nil {
				box = new([]byte)
			}
			*box = b[:0]
			payloadPools[i].Put(box)
			return
		}
	}
}

var frameEncPool = sync.Pool{
	New: func() any { return xdr.NewEncoder(tcpFragmentSize + 256) },
}

// getFrameEncoder returns a pooled wire-frame encoder.
func getFrameEncoder() *xdr.Encoder { return frameEncPool.Get().(*xdr.Encoder) }

// putFrameEncoder recycles an encoder obtained from getFrameEncoder.
func putFrameEncoder(e *xdr.Encoder) {
	if cap(e.Bytes()) > maxPooledEncoder {
		return
	}
	e.Reset()
	frameEncPool.Put(e)
}
