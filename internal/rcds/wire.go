package rcds

import (
	"encoding/binary"
	"errors"
	"fmt"

	"snipe/internal/seckey"
	"snipe/internal/xdr"
)

// Command codes of the RC server protocol. The 1997 implementation used
// SUN RPC with MD5-hashed shared secrets (§6); this build speaks a
// length-prefixed binary protocol with optional HMAC-SHA256 message
// authentication — the same shared-secret mechanism with a current hash
// (see DESIGN.md substitutions).
//
// Framing is multiplexed: every request and response body begins with a
// uint64 request ID chosen by the client (muxHeader bytes). One connection
// carries many in-flight requests; the server answers them in arrival
// order from the connection's read loop, except that a long-poll Wait
// parks beside the loop, so it never blocks a concurrent Get. Request ID
// 0 marks a frame that asks for no answer, which is how, and the only
// way, cmdApply travels: replication is a one-way, in-order stream per
// connection, and a lost push is anti-entropy's to repair. ID 0 on
// another command, or cmdApply under another ID, ends the connection.
const (
	cmdPing uint8 = iota + 1
	cmdSet
	cmdAdd
	cmdAddSigned
	cmdRemove
	cmdRemoveAll
	cmdGet
	cmdValues
	cmdFirst
	cmdURIs
	cmdVector
	cmdOpsSince
	cmdApply
	cmdWait
	cmdStats
	cmdCatchup
	cmdSnapshotPage
)

// Response status codes.
const (
	statusOK  uint8 = 0
	statusErr uint8 = 1
	// statusWrongShard redirects an op on a URI this replica's group
	// does not own; the payload carries the owning group index (uint32)
	// and the server's shard-map epoch (uint64).
	statusWrongShard uint8 = 2
)

// Catchup response modes (cmdCatchup).
const (
	// catchupModeTail: the response carries an assertion tail the
	// requester applies directly (its vector is above the server's
	// log-compaction floor).
	catchupModeTail uint8 = 1
	// catchupModeSnapshot: the requester is behind the compaction
	// horizon; it must page the compacted snapshot (cmdSnapshotPage)
	// and then pull the tail.
	catchupModeSnapshot uint8 = 2
)

// Frame size limit: a single RPC may carry at most this many bytes.
const maxFrame = 16 << 20

// Errors of the wire layer.
var (
	// ErrFrameTooLarge indicates a frame beyond maxFrame, declared or to be written.
	ErrFrameTooLarge = xdr.ErrFrameTooLarge
	// ErrBadMAC indicates a frame failing HMAC verification.
	ErrBadMAC = errors.New("rcds: bad frame MAC")
	// ErrServer wraps an error string returned by the server.
	ErrServer = errors.New("rcds: server error")
	// ErrNoServers indicates every configured RC server failed.
	ErrNoServers = errors.New("rcds: no reachable RC server")
	// ErrUnknownStatus indicates a response status tag the protocol does
	// not define — a version skew or corruption signal, distinct from a
	// server-reported error.
	ErrUnknownStatus = errors.New("rcds: unknown response status")
	// ErrBadFlags indicates an assertion whose flags byte carries a bit
	// this build does not define, or Sole and Deleted together.
	ErrBadFlags = errors.New("rcds: bad assertion flags")
)

const macSize = 32

// frameHeader is the length prefix a frame begins with. Both ends build a
// frame whole in an encoder — the prefix, the body, its MAC — so that what
// goes out is one run of bytes, and frames written together are runs side
// by side.
const frameHeader = 4

// beginFrame starts a frame at e's end: its length prefix, which sealFrame
// fills in. The body follows.
func beginFrame(e *xdr.Encoder) { e.PutUint32(0) }

// sealFrame ends the frame whose body is the last n bytes of e: it appends
// the body's HMAC when secret is non-empty and fills in the length prefix
// in front of the body. A frame past maxFrame is refused and dropped from
// e, leaving the frames before it whole.
func sealFrame(e *xdr.Encoder, n int, secret []byte) error {
	b := e.Bytes()
	start := len(b) - n - frameHeader
	total := n
	if len(secret) > 0 {
		total += macSize
	}
	if total > maxFrame {
		e.Truncate(start)
		return ErrFrameTooLarge
	}
	if len(secret) > 0 {
		e.PutRaw(seckey.SumMAC(secret, b[start+frameHeader:]))
	}
	binary.BigEndian.PutUint32(e.Bytes()[start:], uint32(total))
	return nil
}

// maxKeptBuffer bounds what a reused buffer — a connection's frame
// buffer and response encoder, a call record's request and response — may
// keep between uses: one a large frame grew past it is dropped after that
// use, so a 16 MiB snapshot page pins nothing.
const maxKeptBuffer = 64 << 10

// kept returns b's storage emptied for its next use, or nil if b grew
// past maxKeptBuffer.
func kept(b []byte) []byte {
	if cap(b) > maxKeptBuffer {
		return nil
	}
	return b[:0]
}

// keepEncoder is kept for an encoder's buffer.
func keepEncoder(e *xdr.Encoder) {
	if cap(e.Bytes()) > maxKeptBuffer {
		*e = xdr.Encoder{}
	}
}

// openFrame verifies a received frame's HMAC when secret is non-empty —
// over the whole body, before the caller parses any of it — and returns the
// body. xdr.FrameReader.Serve has bounded the frame by maxFrame and grown its
// buffer with the bytes that arrived, not with what an unauthenticated peer declared.
func openFrame(frame, secret []byte) ([]byte, error) {
	if len(secret) == 0 {
		return frame, nil
	}
	if len(frame) < macSize {
		return nil, ErrBadMAC
	}
	body, mac := frame[:len(frame)-macSize], frame[len(frame)-macSize:]
	if !seckey.CheckMAC(secret, body, mac) {
		return nil, ErrBadMAC
	}
	return body, nil
}

// muxHeader is the request ID at the head of every frame body (and
// under the MAC).
const muxHeader = 8

// setMuxID writes the request ID into a request's frame body. A request
// re-sent on another connection is patched again with that attempt's ID.
func setMuxID(frame []byte, id uint64) {
	binary.BigEndian.PutUint64(frame[:muxHeader], id)
}

// splitMux separates a frame body into its request ID and payload.
func splitMux(frame []byte) (uint64, []byte, error) {
	if len(frame) < muxHeader {
		return 0, nil, errors.New("rcds: short mux frame")
	}
	return binary.BigEndian.Uint64(frame), frame[muxHeader:], nil
}

// respond starts the body of the response to request id at e's end: the
// ID and the status. The payload is the caller's to append.
func respond(e *xdr.Encoder, id uint64, status uint8) {
	e.PutUint64(id)
	e.PutUint8(status)
}

// respondErr makes e the error response to request id.
func respondErr(e *xdr.Encoder, id uint64, err error) {
	respond(e, id, statusErr)
	e.PutString(err.Error())
}

// parseResponse reads the status at the head of a response (d is at the
// frame body after its request ID) and leaves d at the payload, or
// returns the server-side error.
func parseResponse(d *xdr.Decoder) error {
	status, err := d.Uint8()
	if err != nil {
		return err
	}
	switch status {
	case statusOK:
		return nil
	case statusErr:
		msg, err := d.StringMax(maxWireValue)
		if err != nil {
			return err
		}
		return fmt.Errorf("%w: %s", ErrServer, msg)
	case statusWrongShard:
		group, err := d.Uint32()
		if err != nil {
			return err
		}
		epoch, err := d.Uint64()
		if err != nil {
			return err
		}
		return &WrongShardError{Group: int(group), Epoch: epoch}
	default:
		return fmt.Errorf("%w: %d", ErrUnknownStatus, status)
	}
}
