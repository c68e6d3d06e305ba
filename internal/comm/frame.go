// Package comm implements the SNIPE communications module (paper §3.4,
// §5.3–5.4, §6): message passing between globally named processes over
// multiple transports and media, with fragmentation, system-side
// buffering of messages for unavailable or migrating tasks, and
// automatic route/interface failover.
//
// The module's layering follows the 1998 implementation:
//
//   - FrameConn: a reliable, message-boundary-preserving connection.
//     Two transports are provided, as in the paper: TCP/IP, and a
//     "selective re-send UDP protocol" (RUDP) — a sliding-window
//     selective-repeat ARQ with SACK bitmaps and adaptive RTO.
//   - Endpoint: a process's communications identity. It listens on any
//     number of transport addresses, resolves destination URNs to
//     routes (via RC metadata in the full system), picks the best
//     common network, fragments and sequences messages, acknowledges
//     end-to-end, retries over alternate routes, and buffers traffic
//     for peers that are temporarily unreachable — which is what makes
//     "no loss of data while migration is in progress" (§5.6) hold.
//
// Route selection is adaptive: each route carries per-route EWMAs of
// observed ack RTT, goodput and error rate (see score.go), blended
// with the advertised media profile, and large messages to multi-homed
// peers are striped — fragmented across every healthy route in
// parallel, each route taking its next fragment when its conn has taken
// the last (see stripe.go), aggregating the bandwidth of all media
// between two hosts as the paper's Fig. 1 testbed (10/100 Mbit Ethernet
// plus 155 Mbit ATM between the same pair) invites.
package comm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"snipe/internal/xdr"
)

// Frame types exchanged between endpoints, inside transport frames; the
// layouts are DESIGN.md's frame table. An end-to-end ack travels as a
// carriedAcks list, in an ack frame or in a message frame's trailer.
// Types 4, 5 and 6 are retired and, like any unknown type, ignored.
const (
	frameHello uint8 = 1 // sender identifies itself: URN
	frameMsg   uint8 = 2 // one fragment of an application message
	frameAck   uint8 = 3 // end-to-end acknowledgements of messages
)

// Fragment flag bits carried in msgFrame.Flags. A frame with a bit
// outside flagsKnown does not decode; bit 0 once marked a striped
// fragment and is reserved.
const (
	// flagReplyExpected is the sender's word that the receiver is about
	// to send it a message of its own (the answer to a request). The
	// receiver may then hold the end-to-end ack for up to
	// Endpoint.ackFlush so that it rides in that message (see ack.go)
	// instead of a frame of its own. Only SendRequest sets it.
	flagReplyExpected uint8 = 1 << 1
	// flagAcks says the frame ends in a trailer of end-to-end acks: see
	// carriedAcks. It is set exactly when the trailer is there.
	flagAcks uint8 = 1 << 2

	flagsKnown = flagReplyExpected | flagAcks
)

// AnyTag matches any message tag in receive operations.
const AnyTag uint32 = ^uint32(0)

// Errors of the comm layer.
var (
	// ErrClosed indicates the endpoint or connection is closed.
	ErrClosed = errors.New("comm: closed")
	// ErrTimeout indicates a receive or send deadline expired.
	ErrTimeout = errors.New("comm: timeout")
	// ErrNoRoute indicates no route to the destination could be found.
	ErrNoRoute = errors.New("comm: no route to destination")
	// ErrBufferFull indicates the system buffer for an unreachable peer
	// overflowed.
	ErrBufferFull = errors.New("comm: system buffer full")
	// ErrBadFrame indicates a malformed frame.
	ErrBadFrame = errors.New("comm: malformed frame")
	// ErrTooLarge indicates a message beyond MaxMessageSize.
	ErrTooLarge = errors.New("comm: message too large")
)

// MaxMessageSize bounds a single application message.
const MaxMessageSize = 64 << 20

// Per-field wire-decode caps handed to the xdr *Max decoders, so a
// corrupt or hostile length prefix fails fast instead of sizing an
// allocation. Whole frames are already bounded by maxWireFrame; these
// bound individual fields within one.
const (
	maxWireURN     = 4096         // URNs: src/dst names in hello/msg/ack frames
	maxWirePayload = maxWireFrame // one fragment's payload
)

// Message is a received application message. One taken from the
// mailbox (Recv, RecvMatch) is the receiver's to keep. One passed to a
// WithHandler function is lent: its Payload is valid until the handler
// returns, and the endpoint may then reuse the buffer.
type Message struct {
	Src     string // sender URN
	Dst     string // destination URN (this endpoint)
	Tag     uint32 // application tag for selective receive
	Seq     uint64 // sender-assigned per-destination sequence number
	Payload []byte
}

// msgFrame is one fragment of a message on the wire. Every fragment
// carries the full header so that fragments are self-contained and can
// arrive in any order (and, mid-stripe or after a route failover, over
// different connections).
type msgFrame struct {
	Src       string
	Dst       string
	Tag       uint32
	Seq       uint64
	FragIdx   uint32
	FragCount uint32
	Flags     uint8 // flagReplyExpected, flagAcks
	Payload   []byte
}

// carriedAcks is a list of end-to-end acks as it lies on the wire: one
// big-endian uint64 sequence number each, 1 to ackBatchMax of them,
// running to the end of the frame. An ack frame names the pair the
// entries belong to; a message frame's trailer names none, as its entries
// acknowledge messages the frame's Dst sent its Src. Decoded, it aliases
// the frame buffer and is read in place. A trailer is cargo of the frame,
// not part of the fragment, and travels beside the msgFrame rather than
// in it: a fragment is cut from its message anew for every send (fragAt),
// and a striped one never carries a trailer.
type carriedAcks []byte

const carriedAckSize = 8

func (c carriedAcks) count() int { return len(c) / carriedAckSize }

func (c carriedAcks) seq(i int) uint64 {
	return binary.BigEndian.Uint64(c[i*carriedAckSize:])
}

// decodeCarriedAcks reads the ack list that is the rest of the frame.
// Its length alone sizes it, and must be whole entries, at least one and
// at most ackBatchMax.
func decodeCarriedAcks(d *xdr.Decoder) (carriedAcks, error) {
	n := d.Remaining()
	if n == 0 || n%carriedAckSize != 0 || n > ackBatchMax*carriedAckSize {
		return nil, fmt.Errorf("%w: ack list of %d bytes", ErrBadFrame, n)
	}
	return d.Raw(n)
}

func encodeHello(urn string) []byte {
	e := xdr.NewEncoder(len(urn) + 8)
	e.PutUint8(frameHello)
	e.PutString(urn)
	return e.Bytes()
}

func decodeHello(d *xdr.Decoder) (string, error) {
	return d.StringMax(maxWireURN)
}

// msgFrameOverhead is what a message fragment costs on the wire beyond
// its URNs, payload and ack trailer: frame type, the two URN length
// prefixes, tag, seq, fragment index and count, flags and the payload
// length prefix.
const msgFrameOverhead = 34

func encodeMsgFrame(f *msgFrame, acks carriedAcks) []byte {
	e := xdr.NewEncoder(msgFrameOverhead + len(f.Src) + len(f.Dst) + len(f.Payload) + len(acks))
	return encodeMsgFrameInto(e, f, acks)
}

// encodeMsgFrameInto encodes into a caller-owned (typically pooled)
// encoder after resetting it. The returned slice aliases the encoder's
// buffer: it is valid until the next use of the encoder, which is fine
// for every FrameConn.Send implementation (all of them either write the
// frame synchronously or copy it before queueing).
func encodeMsgFrameInto(e *xdr.Encoder, f *msgFrame, acks carriedAcks) []byte {
	e.Reset()
	e.PutUint8(frameMsg)
	e.PutString(f.Src)
	e.PutString(f.Dst)
	e.PutUint32(f.Tag)
	e.PutUint64(f.Seq)
	e.PutUint32(f.FragIdx)
	e.PutUint32(f.FragCount)
	// flagAcks follows the trailer, whatever the caller left in Flags.
	flags := f.Flags &^ flagAcks
	if len(acks) > 0 {
		flags |= flagAcks
	}
	e.PutUint8(flags)
	e.PutBytes(f.Payload)
	e.PutRaw(acks)
	return e.Bytes()
}

// peerNames holds the source and destination URN of the last frame
// decoded on one connection. A connection carries traffic between the
// same few endpoints, so the next frame nearly always names the same
// pair and takes these strings instead of allocating its own. It is the
// last value, not an intern table: it cannot grow.
type peerNames struct{ src, dst string }

// decode reads a frame's source and destination URNs.
func (p *peerNames) decode(d *xdr.Decoder) (src, dst string, err error) {
	if src, err = reuseURN(d, &p.src); err != nil {
		return "", "", err
	}
	dst, err = reuseURN(d, &p.dst)
	return src, dst, err
}

func reuseURN(d *xdr.Decoder, last *string) (string, error) {
	b, err := d.BytesMax(maxWireURN)
	if err != nil {
		return "", err
	}
	if string(b) != *last { // the comparison does not allocate
		*last = string(b)
	}
	return *last, nil
}

// decodeMsgFrame decodes one message fragment by value, and the acks its
// frame carries (empty without flagAcks); names is the
// connection's URN memo.
func decodeMsgFrame(d *xdr.Decoder, names *peerNames) (f msgFrame, acks carriedAcks, err error) {
	if f.Src, f.Dst, err = names.decode(d); err != nil {
		return f, nil, err
	}
	if f.Tag, err = d.Uint32(); err != nil {
		return f, nil, err
	}
	if f.Seq, err = d.Uint64(); err != nil {
		return f, nil, err
	}
	if f.FragIdx, err = d.Uint32(); err != nil {
		return f, nil, err
	}
	if f.FragCount, err = d.Uint32(); err != nil {
		return f, nil, err
	}
	if f.Flags, err = d.Uint8(); err != nil {
		return f, nil, err
	}
	// The payload aliases the decoder's buffer — no per-fragment copy.
	// The receive path owns the frame buffer (see handleMsgFrame): a
	// whole message is copied out of it for the application, a fragment
	// is parked with it in a reassembly until the message completes.
	if f.Payload, err = d.BytesMax(maxWirePayload); err != nil {
		return f, nil, err
	}
	if f.FragCount == 0 || f.FragIdx >= f.FragCount {
		return f, nil, fmt.Errorf("%w: fragment %d/%d", ErrBadFrame, f.FragIdx, f.FragCount)
	}
	if f.Flags&^flagsKnown != 0 {
		return f, nil, fmt.Errorf("%w: unknown flag bits %#x", ErrBadFrame, f.Flags&^flagsKnown)
	}
	if f.Flags&flagAcks == 0 {
		if d.Remaining() != 0 {
			return f, nil, fmt.Errorf("%w: %d bytes behind the payload and no ack flag", ErrBadFrame, d.Remaining())
		}
		return f, nil, nil
	}
	acks, err = decodeCarriedAcks(d)
	return f, acks, err
}

// putAck appends an ack frame: the acknowledged messages' sender and
// destination (the acker), then their sequence numbers.
func putAck(e *xdr.Encoder, src, dst string, acks carriedAcks) {
	e.PutUint8(frameAck)
	e.PutString(src)
	e.PutString(dst)
	e.PutRaw(acks)
}

func decodeAck(d *xdr.Decoder, names *peerNames) (src, dst string, acks carriedAcks, err error) {
	if src, dst, err = names.decode(d); err != nil {
		return "", "", nil, err
	}
	acks, err = decodeCarriedAcks(d)
	return src, dst, acks, err
}

// fragCount is the number of fragments a payload of n bytes takes at
// mtu payload bytes per fragment; an empty message is one empty
// fragment.
func fragCount(n, mtu int) int {
	if n == 0 {
		return 1
	}
	return (n + mtu - 1) / mtu
}

// fragAt is fragment i of count of m at mtu payload bytes per fragment,
// aliasing m.Payload. flags is stamped on every fragment (a single-route
// transmission's flagReplyExpected, else 0).
func fragAt(m *Message, i, count, mtu int, flags uint8) msgFrame {
	lo := i * mtu
	hi := min(lo+mtu, len(m.Payload))
	return msgFrame{
		Src: m.Src, Dst: m.Dst, Tag: m.Tag, Seq: m.Seq,
		FragIdx: uint32(i), FragCount: uint32(count), Flags: flags,
		Payload: m.Payload[lo:hi],
	}
}

// reassembly accumulates the fragments of one in-flight message of two
// or more fragments (a message that fits one fragment never gets one,
// see collect). Fragment payloads alias the pooled receive buffers they
// arrived in (decodeMsgFrame does not copy); the reassembly therefore owns
// those backing buffers, releasing them back to the pool when the
// message is assembled or the reassembly is abandoned. assemble copies
// the payload into a buffer the caller chose, so a receive buffer is
// never reachable from a delivered Message.
type reassembly struct {
	frags    []fragPart
	received int
	total    int
	size     int
	tag      uint32
	dst      string
}

// fragPart is one received fragment: its payload, and the pooled receive
// buffer backing it, released on completion.
type fragPart struct{ payload, buf []byte }

func newReassembly(count uint32, tag uint32, dst string) *reassembly {
	return &reassembly{frags: make([]fragPart, count), total: int(count), tag: tag, dst: dst}
}

// add records a fragment and takes ownership of buf, the receive
// buffer backing f.Payload (nil when the caller did not pool it). It
// reports complete once every fragment is in; the caller then
// assembles the payload. retained reports whether ownership of buf
// transferred: when false (duplicate fragment, or a fatal error) the
// caller still owns buf and may recycle it. After a non-nil error the
// caller must discard the reassembly via release.
func (r *reassembly) add(f *msgFrame, buf []byte) (complete, retained bool, err error) {
	if int(f.FragCount) != r.total {
		return false, false, fmt.Errorf("%w: fragment count changed mid-message", ErrBadFrame)
	}
	if r.frags[f.FragIdx].payload != nil {
		return false, false, nil // duplicate fragment (retransmission)
	}
	r.frags[f.FragIdx] = fragPart{f.Payload, buf}
	r.received++
	r.size += len(f.Payload)
	if r.size > MaxMessageSize {
		return false, true, ErrTooLarge
	}
	return r.received == r.total, true, nil
}

// assemble copies a complete message's payload into out, which holds
// at least r.size bytes, releases the receive buffers, and returns the
// payload, out[:r.size].
func (r *reassembly) assemble(out []byte) []byte {
	n := 0
	for _, frag := range r.frags {
		n += copy(out[n:], frag.payload)
	}
	r.release()
	return out[:n]
}

// release returns every backing receive buffer to the pool and drops
// the fragment references. Call when the message was assembled
// (assemble does this), or when abandoning an in-progress reassembly
// (geometry restart, decode error, shutdown).
func (r *reassembly) release() {
	for i, frag := range r.frags {
		r.frags[i] = fragPart{}
		if frag.buf != nil {
			putPayloadBuf(frag.buf)
		}
	}
}

// collect feeds fragment f of the message key into table, the caller's
// in-progress reassemblies, whose lock the caller holds. buf is the
// pooled receive buffer backing f.Payload. When f completes its message
// it returns it: a message of one fragment as payload, copied out of
// the frame buffer into a right-sized one (never nil, though possibly
// empty); a longer one as parts, its reassembly, now out of table, for
// the caller to assemble into a buffer of its choice. Both are nil
// while fragments are missing or after an error, which abandons the
// message's reassembly. retained reports that ownership of buf was
// consumed (parked in a reassembly); when false the caller recycles it.
//
// A message that fits one fragment touches table only to drop a stale
// entry. A retry can re-fragment with a different geometry — the
// surviving route set, and so the governing MTU, changed between
// attempts — which restarts the reassembly instead of poisoning it.
func collect(table map[reasmKey]*reassembly, key reasmKey, f *msgFrame, buf []byte) (payload []byte, parts *reassembly, retained bool, err error) {
	r, ok := table[key]
	if ok && r.total != int(f.FragCount) {
		r.release()
		delete(table, key)
		ok = false
	}
	if f.FragCount == 1 {
		return append(make([]byte, 0, len(f.Payload)), f.Payload...), nil, false, nil
	}
	if !ok {
		r = newReassembly(f.FragCount, f.Tag, f.Dst)
		table[key] = r
	}
	complete, retained, err := r.add(f, buf)
	if err != nil {
		// add released nothing on its own; drop the whole reassembly
		// (including buf if it was just parked there).
		r.release()
		delete(table, key)
		return nil, nil, retained, err
	}
	if !complete {
		return nil, nil, retained, nil
	}
	delete(table, key)
	return nil, r, retained, nil
}
