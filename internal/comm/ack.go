package comm

import (
	"sync"
	"time"

	"snipe/internal/xdr"
)

// Acknowledgement coalescing. A striped transfer generates one
// per-fragment ack per received fragment; at 64 KiB fragments a
// 64 MiB message produces a thousand reverse-path frames, each paying
// full framing and syscall cost. The coalescer batches a connection's
// outgoing acks into frameAckBatch/frameFragAckBatch frames:
//
//   - per-fragment acks accumulate until the batch fills (ackBatchMax)
//     or the flush timer fires (Endpoint.ackFlush);
//   - end-to-end acks flush the connection's pending acks immediately,
//     so single-message traffic sees no added ack latency — the
//     coalescer only defers the high-rate per-fragment stream;
//   - a batch of one encodes as the legacy single-ack frame, so a pair
//     of endpoints exchanging sparse acks produces pre-batching wire
//     traffic (and stays readable to older decoders).
//
// Each readLoop owns one coalescer for its connection; stop() flushes
// any stragglers when the connection dies.

// ackBatchMax caps the entries in one batched ack frame; a full batch
// flushes immediately rather than waiting out the timer.
const ackBatchMax = 64

type ackCoalescer struct {
	e    *Endpoint
	conn FrameConn

	mu         sync.Mutex
	acks       []ackRef // pending end-to-end acks (normally flushed same-call)
	frags      []ackRef // pending per-fragment acks
	timer      *time.Timer
	timerArmed bool
	stopped    bool
}

func newAckCoalescer(e *Endpoint, conn FrameConn) *ackCoalescer {
	a := &ackCoalescer{e: e, conn: conn}
	a.timer = time.AfterFunc(time.Hour, a.timerFlush)
	a.timer.Stop()
	return a
}

// ack queues one end-to-end acknowledgement and flushes the
// connection's pending acks (fragment acks for the same message
// included, ordered before it).
func (a *ackCoalescer) ack(src, dst string, seq uint64) {
	a.mu.Lock()
	a.acks = append(a.acks, ackRef{src: src, dst: dst, seq: seq})
	enc, split := a.takeLocked()
	a.mu.Unlock()
	a.send(enc, split)
}

// fragAck queues one per-fragment acknowledgement, flushing when the
// batch fills; otherwise the flush timer (armed on the first pending
// entry) bounds how long it waits.
func (a *ackCoalescer) fragAck(src, dst string, seq uint64, fragIdx uint32) {
	a.mu.Lock()
	a.frags = append(a.frags, ackRef{src: src, dst: dst, seq: seq, fragIdx: fragIdx})
	if len(a.frags) >= ackBatchMax || a.stopped {
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

// timerFlush is the AfterFunc body.
func (a *ackCoalescer) timerFlush() {
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
			a.e.mAckBatches.Inc()
			a.e.mAcksBatched.Add(uint64(n))
		}
		a.frags = a.frags[:0]
	}
	split = enc.Len()
	if n := len(a.acks); n > 0 {
		if n == 1 {
			f := a.acks[0]
			putAck(enc, f.src, f.dst, f.seq)
		} else {
			putAckBatch(enc, frameAckBatch, a.acks)
			a.e.mAckBatches.Inc()
			a.e.mAcksBatched.Add(uint64(n))
		}
		a.acks = a.acks[:0]
	}
	return enc, split
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
