package comm

import (
	"encoding/binary"
	"sync"
	"time"

	"snipe/internal/xdr"
)

// Acknowledgement coalescing. A striped transfer generates one
// per-fragment ack per received fragment; at 64 KiB fragments a
// 64 MiB message produces a thousand reverse-path frames, each paying
// full framing and syscall cost. And the ack of a request is three
// read/write calls spent ~30 µs before the response leaves for the same
// peer. The coalescer holds a connection's outgoing acks for as long as
// holding them can save a frame, and never longer than
// Endpoint.ackFlush:
//
//   - per-fragment acks accumulate until the batch fills (ackBatchMax)
//     or the flush timer fires;
//   - an end-to-end ack flushes the connection's pending acks at once,
//     so single-message traffic sees no added ack latency — unless the
//     sender marked the message flagReplyExpected and the connection is
//     its own (the hello named it). Such an ack is parked under the same
//     timer and noted in Endpoint.owed; the next message frame this
//     endpoint sends that peer on a direct route takes it along in its
//     trailer (Endpoint.takeOwed, from sendOn). If none leaves in time
//     the timer sends it as it sends everything else;
//   - a batch of one encodes as the single-ack frame.
//
// Each readLoop owns one coalescer for its connection; stop() flushes
// any stragglers when the connection dies, and Quiesce, CloseListener
// and Close flush what is parked before they act.

// ackBatchMax caps the entries in one batched ack frame or one message
// frame's trailer; a full batch flushes immediately rather than waiting
// out the timer.
const ackBatchMax = 64

type ackCoalescer struct {
	e    *Endpoint
	conn FrameConn
	// peer is the URN the connection's hello named: the endpoint that
	// dialed it. Empty on a connection this endpoint dialed itself. Only
	// the read loop touches it.
	peer string

	mu         sync.Mutex
	acks       []ackRef // pending end-to-end acks: parked, or about to be flushed
	frags      []ackRef // pending per-fragment acks
	timer      *time.Timer
	timerArmed bool
	stopped    bool
}

func newAckCoalescer(e *Endpoint, conn FrameConn) *ackCoalescer {
	a := &ackCoalescer{e: e, conn: conn}
	a.timer = time.AfterFunc(time.Hour, a.flush)
	a.timer.Stop()
	return a
}

// ack queues one end-to-end acknowledgement and flushes the
// connection's pending acks (fragment acks for the same message
// included, ordered before it).
func (a *ackCoalescer) ack(src, dst string, seq uint64) {
	a.add(ackRef{src: src, dst: dst, seq: seq}, false, true)
}

// fragAck queues one per-fragment acknowledgement, flushing when the
// batch fills; otherwise the flush timer (armed on the first pending
// entry) bounds how long it waits.
func (a *ackCoalescer) fragAck(src, dst string, seq uint64, fragIdx uint32) {
	a.add(ackRef{src: src, dst: dst, seq: seq, fragIdx: fragIdx}, true, false)
}

// park queues the end-to-end acknowledgement of a message whose sender
// expects a reply, and notes it as owed to that sender: it leaves in the
// reply's frame, or with the timer.
func (a *ackCoalescer) park(src, dst string, seq uint64) {
	a.e.mAcksDeferred.Inc()
	a.add(ackRef{src: src, dst: dst, seq: seq}, false, false)
	a.e.noteOwed(peerPair{src, dst}, a)
}

func (a *ackCoalescer) add(ref ackRef, frag, now bool) {
	a.mu.Lock()
	if frag {
		a.frags = append(a.frags, ref)
	} else {
		a.acks = append(a.acks, ref)
	}
	if now || a.stopped || len(a.frags) >= ackBatchMax || len(a.acks) >= ackBatchMax {
		enc, split := a.takeLocked()
		a.mu.Unlock()
		a.send(enc, split)
		return
	}
	if !a.timerArmed {
		a.timerArmed = true
		a.timer.Reset(a.e.ackFlush)
	}
	a.mu.Unlock()
}

// take moves up to limit of the parked acks of the messages src sent dst
// out of the coalescer and appends their sequence numbers to buf, for
// the trailer of a frame about to leave for src.
func (a *ackCoalescer) take(src, dst string, buf carriedAcks, limit int) carriedAcks {
	a.mu.Lock()
	kept := a.acks[:0]
	for _, r := range a.acks {
		if buf.count() < limit && r.src == src && r.dst == dst {
			buf = binary.BigEndian.AppendUint64(buf, r.seq)
		} else {
			kept = append(kept, r)
		}
	}
	a.acks = kept
	if a.timerArmed && len(a.acks) == 0 && len(a.frags) == 0 {
		a.timerArmed = false
		a.timer.Stop()
	}
	a.mu.Unlock()
	return buf
}

// giveBack takes acks that take handed out and whose frame was not
// sent, and sends them, with whatever else is pending, on their own.
func (a *ackCoalescer) giveBack(src, dst string, acks carriedAcks) {
	a.mu.Lock()
	for i := 0; i < acks.count(); i++ {
		a.acks = append(a.acks, ackRef{src: src, dst: dst, seq: acks.seq(i)})
	}
	a.mu.Unlock()
	a.flush()
}

// flush sends everything pending; it is also the timer's AfterFunc body.
func (a *ackCoalescer) flush() {
	a.mu.Lock()
	enc, split := a.takeLocked()
	a.mu.Unlock()
	a.send(enc, split)
}

// stop flushes anything pending and disarms the timer; the readLoop
// calls it as the connection dies (late sends fail harmlessly — acks
// are retransmission-driven, the peer simply retries).
func (a *ackCoalescer) stop() {
	a.mu.Lock()
	a.stopped = true
	enc, split := a.takeLocked()
	a.mu.Unlock()
	a.timer.Stop()
	a.send(enc, split)
	a.e.forgetOwed(a)
}

// takeLocked drains the pending acks into at most two frames, encoded
// back to back in one pooled encoder: the fragment-ack frame (if any)
// is enc.Bytes()[:split], the end-to-end ack frame (if any) the rest.
// It returns a nil encoder when nothing was pending. Caller holds a.mu;
// encoding under the lock keeps batch composition atomic, while
// conn.Send happens outside it (see send).
func (a *ackCoalescer) takeLocked() (enc *xdr.Encoder, split int) {
	if a.timerArmed {
		a.timerArmed = false
		a.timer.Stop()
	}
	if len(a.frags) == 0 && len(a.acks) == 0 {
		return nil, 0
	}
	enc = getFrameEncoder() // pooled encoders are empty
	// Fragment acks go out before end-to-end acks: a message's final
	// fragment ack precedes its completion ack, matching the
	// pre-batching wire order.
	if n := len(a.frags); n > 0 {
		if n == 1 {
			f := a.frags[0]
			putFragAck(enc, f.src, f.dst, f.seq, f.fragIdx)
		} else {
			putAckBatch(enc, frameFragAckBatch, a.frags)
		}
		a.countFrame(n)
		a.frags = a.frags[:0]
	}
	split = enc.Len()
	if n := len(a.acks); n > 0 {
		if n == 1 {
			f := a.acks[0]
			putAck(enc, f.src, f.dst, f.seq)
		} else {
			putAckBatch(enc, frameAckBatch, a.acks)
		}
		a.countFrame(n)
		a.acks = a.acks[:0]
	}
	return enc, split
}

// countFrame counts one ack frame of n entries. With acks_piggybacked,
// ack_frames and acks_batched add up to the acks this endpoint sent.
func (a *ackCoalescer) countFrame(n int) {
	if n == 1 {
		a.e.mAckFrames.Inc()
		return
	}
	a.e.mAckBatches.Inc()
	a.e.mAcksBatched.Add(uint64(n))
}

// send writes the frames takeLocked drained, outside the coalescer
// lock, and recycles the encoder. Errors are ignored: a dead connection
// loses acks the same way a dead wire would, and the sender's
// retransmission recovers.
func (a *ackCoalescer) send(enc *xdr.Encoder, split int) {
	if enc == nil {
		return
	}
	b := enc.Bytes()
	if split > 0 {
		a.conn.Send(b[:split])
	}
	if len(b) > split {
		a.conn.Send(b[split:])
	}
	putFrameEncoder(enc)
}

// peerPair names one direction of a conversation: the messages src
// sends dst.
type peerPair struct{ src, dst string }

// noteOwed records that a holds parked acks of pair's messages. One
// coalescer per pair is remembered, the one that parked last; acks
// parked on another connection of the same peer leave with its timer.
func (e *Endpoint) noteOwed(pair peerPair, a *ackCoalescer) {
	e.owedMu.Lock()
	if e.owed[pair] != a { // the steady state writes nothing
		e.owed[pair] = a
	}
	e.owedMu.Unlock()
}

// forgetOwed drops a stopped coalescer from the table.
func (e *Endpoint) forgetOwed(a *ackCoalescer) {
	e.owedMu.Lock()
	for pair, held := range e.owed {
		if held == a {
			delete(e.owed, pair)
		}
	}
	e.owedMu.Unlock()
}

// takeOwed collects, for a frame about to leave for src with room bytes
// to spare, the parked acks of the messages src sent dst. It returns
// them appended to buf, and the coalescer to give them back to should
// the frame not be sent.
func (e *Endpoint) takeOwed(src, dst string, buf carriedAcks, room int) (*ackCoalescer, carriedAcks) {
	limit := min((room-ackTrailerOverhead)/carriedAckSize, ackBatchMax)
	if limit < 1 {
		return nil, buf
	}
	e.owedMu.Lock()
	a := e.owed[peerPair{src, dst}]
	e.owedMu.Unlock()
	if a == nil {
		return nil, buf
	}
	return a, a.take(src, dst, buf, limit)
}

// flushOwed sends every parked ack now, each on its arrival connection.
func (e *Endpoint) flushOwed() {
	e.owedMu.Lock()
	held := make([]*ackCoalescer, 0, len(e.owed))
	for _, a := range e.owed {
		held = append(held, a)
	}
	e.owedMu.Unlock()
	for _, a := range held {
		a.flush()
	}
}
