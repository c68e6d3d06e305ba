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
// uint64 request ID chosen by the client (muxHeader bytes, reserved by
// the body's builder and filled in by whoever sends it). One connection
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
	// ErrFrameTooLarge indicates a declared frame beyond maxFrame.
	ErrFrameTooLarge = errors.New("rcds: frame too large")
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

// writeFrame sends one length-prefixed frame through the connection's
// frame writer, appending an HMAC of the body when secret is non-empty.
func writeFrame(fw *xdr.FrameWriter, body []byte, secret []byte) error {
	total := len(body)
	if len(secret) > 0 {
		total += macSize
	}
	if total > maxFrame {
		return ErrFrameTooLarge
	}
	var mac []byte
	if len(secret) > 0 {
		mac = seckey.SumMAC(secret, body)
	}
	return fw.WriteFrame(body, mac)
}

// readFrame receives one frame from the connection's frame reader,
// verifying its HMAC when secret is non-empty and returning the body.
// A declared length beyond maxFrame is refused before any buffer is
// sized, and the buffer then grows with the bytes that arrive, not with
// the length an unauthenticated peer declared. The HMAC is verified
// over the whole body before the caller parses any of it.
func readFrame(fr *xdr.FrameReader, secret []byte) ([]byte, error) {
	n, err := fr.Next()
	if err != nil {
		return nil, err
	}
	if n > maxFrame {
		return nil, ErrFrameTooLarge
	}
	buf, err := fr.ReadBodyAlloc(int(n))
	if err != nil {
		return nil, err
	}
	if len(secret) > 0 {
		if len(buf) < macSize {
			return nil, ErrBadMAC
		}
		body, mac := buf[:len(buf)-macSize], buf[len(buf)-macSize:]
		if !seckey.CheckMAC(secret, body, mac) {
			return nil, ErrBadMAC
		}
		return body, nil
	}
	return buf, nil
}

// muxHeader is the request ID at the head of every frame body (and
// under the MAC).
const muxHeader = 8

// noMuxID is what request and the response builders put where the
// request ID goes; setMuxID writes the ID over it. (PutRaw of an array,
// not PutUint64(0): request and okResponse must stay cheap enough to
// inline, which keeps their encoder on the caller's stack.)
var noMuxID [muxHeader]byte

// setMuxID writes the request ID into a frame body built by request or
// one of the response builders. A request re-sent on another connection
// is patched again with that attempt's ID.
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

// request assembles cmd+payload into a frame body.
func request(cmd uint8, payload func(*xdr.Encoder)) []byte {
	e := xdr.NewEncoder(64)
	e.PutRaw(noMuxID[:])
	e.PutUint8(cmd)
	if payload != nil {
		payload(e)
	}
	return e.Bytes()
}

// okResponse assembles a success response.
func okResponse(payload func(*xdr.Encoder)) []byte {
	e := xdr.NewEncoder(64)
	e.PutRaw(noMuxID[:])
	e.PutUint8(statusOK)
	if payload != nil {
		payload(e)
	}
	return e.Bytes()
}

// errResponse assembles an error response.
func errResponse(err error) []byte {
	e := xdr.NewEncoder(64)
	e.PutRaw(noMuxID[:])
	e.PutUint8(statusErr)
	e.PutString(err.Error())
	return e.Bytes()
}

// wrongShardResponse assembles a wrong-shard redirect naming the owning
// group under the server's shard map of the given epoch.
func wrongShardResponse(group int, epoch uint64) []byte {
	e := xdr.NewEncoder(32)
	e.PutRaw(noMuxID[:])
	e.PutUint8(statusWrongShard)
	e.PutUint32(uint32(group))
	e.PutUint64(epoch)
	return e.Bytes()
}

// parseResponse splits a response (the frame body after its request ID)
// into a decoder positioned at the payload, or the server-side error.
func parseResponse(body []byte) (*xdr.Decoder, error) {
	d := xdr.NewDecoder(body)
	status, err := d.Uint8()
	if err != nil {
		return nil, err
	}
	switch status {
	case statusOK:
		return d, nil
	case statusErr:
		msg, err := d.StringMax(maxWireValue)
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %s", ErrServer, msg)
	case statusWrongShard:
		group, err := d.Uint32()
		if err != nil {
			return nil, err
		}
		epoch, err := d.Uint64()
		if err != nil {
			return nil, err
		}
		return nil, &WrongShardError{Group: int(group), Epoch: epoch}
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownStatus, status)
	}
}
