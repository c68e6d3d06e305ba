package comm

import (
	"encoding/binary"
	"sync"
	"time"
)

// Acknowledgement coalescing. The ack of a request is three read/write
// calls spent ~30 µs before the response leaves for the same peer. The
// coalescer holds a connection's outgoing end-to-end acks for as long as
// holding them can save a frame, and never longer than Endpoint.ackFlush:
//
//   - an ack flushes the connection's pending acks at once, so
//     single-message traffic sees no added ack latency — unless the
//     sender marked the message flagReplyExpected and the connection is
//     its own (the hello named it). Such an ack is parked under the
//     timer and noted in Endpoint.owed; the next message frame this
//     endpoint sends that peer on a direct route takes it along in its
//     trailer (Endpoint.takeOwed, from sendOn). If none leaves in time
//     the timer sends it with whatever else is pending;
//   - a flush sends one ack frame per (src, dst) pair pending. A
//     connection carries one pair unless a gateway relays onto it.
//
// Both encodings are DESIGN.md's frame table. Each readLoop owns one
// coalescer for its connection; stop() flushes any stragglers when the
// connection dies, and Quiesce, CloseListener and Close flush what is
// parked before they act.

// ackBatchMax caps the entries in one ack list, in an ack frame or a
// message frame's trailer; that many pending acks flush at once rather
// than wait out the timer.
const ackBatchMax = 64

// ackRef identifies one pending acknowledgement.
type ackRef struct {
	src string // original message's sender
	dst string // original message's destination (the acker)
	seq uint64
}

type ackCoalescer struct {
	e    *Endpoint
	conn FrameConn
	// peer is the URN the connection's hello named: the endpoint that
	// dialed it. Empty on a connection this endpoint dialed itself. Only
	// the read loop touches it.
	peer string

	mu         sync.Mutex
	acks       []ackRef // pending acks: parked, or about to be flushed
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
// connection's pending acks.
func (a *ackCoalescer) ack(src, dst string, seq uint64) {
	a.add(ackRef{src: src, dst: dst, seq: seq}, true)
}

// park queues the end-to-end acknowledgement of a message whose sender
// expects a reply, and notes it as owed to that sender: it leaves in the
// reply's frame, or with the timer.
func (a *ackCoalescer) park(src, dst string, seq uint64) {
	a.e.mAcksDeferred.Inc()
	a.add(ackRef{src: src, dst: dst, seq: seq}, false)
	a.e.noteOwed(peerPair{src, dst}, a)
}

func (a *ackCoalescer) add(ref ackRef, now bool) {
	a.mu.Lock()
	a.acks = append(a.acks, ref)
	if now || a.stopped || len(a.acks) >= ackBatchMax {
		a.mu.Unlock()
		a.flush()
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
	buf = a.takeLocked(src, dst, buf, limit)
	a.mu.Unlock()
	return buf
}

// takeLocked is take with a.mu held; it disarms the timer once nothing
// is pending.
func (a *ackCoalescer) takeLocked(src, dst string, buf carriedAcks, limit int) carriedAcks {
	kept := a.acks[:0]
	for _, r := range a.acks {
		if buf.count() < limit && r.src == src && r.dst == dst {
			buf = binary.BigEndian.AppendUint64(buf, r.seq)
		} else {
			kept = append(kept, r)
		}
	}
	a.acks = kept
	if a.timerArmed && len(a.acks) == 0 {
		a.timerArmed = false
		a.timer.Stop()
	}
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

// flush sends everything pending, one ack frame per (src, dst) pair; it
// is also the timer's AfterFunc body. Each frame is composed under the
// lock and sent outside it. Errors are ignored: a dead connection loses
// acks the same way a dead wire would, and the sender's retransmission
// recovers.
func (a *ackCoalescer) flush() {
	var seqs [ackBatchMax * carriedAckSize]byte
	for {
		a.mu.Lock()
		if len(a.acks) == 0 {
			a.mu.Unlock()
			return
		}
		src, dst := a.acks[0].src, a.acks[0].dst
		acks := a.takeLocked(src, dst, seqs[:0], ackBatchMax)
		a.mu.Unlock()
		if n := acks.count(); n == 1 {
			a.e.mAckFrames.Inc()
		} else {
			a.e.mAckBatches.Inc()
			a.e.mAcksBatched.Add(uint64(n))
		}
		enc := getFrameEncoder() // pooled encoders are empty
		putAck(enc, src, dst, acks)
		a.conn.Send(enc.Bytes())
		putFrameEncoder(enc)
	}
}

// stop flushes anything pending and disarms the timer; the readLoop
// calls it as the connection dies (late sends fail harmlessly — acks
// are retransmission-driven, the peer simply retries).
func (a *ackCoalescer) stop() {
	a.mu.Lock()
	a.stopped = true
	a.mu.Unlock()
	a.timer.Stop()
	a.flush()
	a.e.forgetOwed(a)
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
	limit := min(room/carriedAckSize, ackBatchMax)
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
