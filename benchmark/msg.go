package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"snipe/internal/comm"
	"snipe/internal/naming"
)

const (
	smallMsg = 64
	// bulkMsg is exactly comm's default stripe threshold, so the sink's
	// two routes carry it as a striped, fragmented, reassembled message.
	// 1 MiB was tried and rejected: payload plus copies overflow L2 into
	// cache the host shares, and runs fell into modes 30 % apart (README).
	bulkMsg = 256 << 10

	msgTag = 7
	// msgHeader is the seq (8 B) and body checksum (4 B) each payload
	// starts with.
	msgHeader = 12
	// regenMax is the largest payload whose body is redrawn from the
	// client's generator for every message. Above it the seeded body is
	// fixed per sender: drawing a fresh 256 KiB would cost more CPU than
	// sending it, and the benchmark would measure its own generator.
	regenMax = 4 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// msgWorkload is two sender endpoints SendWait-ing to one sink endpoint.
// The sink listens on two loopback routes (a dual-homed host); small
// messages take the better-scored one, bulk messages are striped over
// both.
type msgWorkload struct {
	st      *stack
	sinkURN string
	sink    *comm.Endpoint
	size    int
	warm    uint64
	senders []*msgSender
	bySrc   map[string]*msgSender // read-only once traffic starts
	tr      atomic.Pointer[tracer]
}

// msgSender is one closed-loop client and the sink-side record of what
// arrived from it.
type msgSender struct {
	w       *msgWorkload
	idx     int
	urn     string
	ep      *comm.Endpoint
	rng     *rand.Rand
	buf     []byte
	bodyCRC uint32 // of the fixed body, when size > regenMax
	seq     uint64 // messages acknowledged so far
	seenBad uint64 // wrong deliveries already charged to an op
	digest  uint64

	// Written by the sink's handler goroutine.
	delivered atomic.Uint64
	bad       atomic.Uint64
	handledAt atomic.Int64 // UnixNano of the latest handler call
}

func newMsgWorkload(seed uint64, size int, warm uint64) (*msgWorkload, error) {
	st, err := newStack(2, true)
	if err != nil {
		return nil, err
	}
	w := &msgWorkload{
		st: st, size: size, warm: warm,
		sinkURN: naming.ProcessURN("bench-sink", "sink"),
		bySrc:   make(map[string]*msgSender),
	}
	for i := 0; i < 2; i++ {
		s := &msgSender{
			w: w, idx: i,
			urn: naming.ProcessURN(fmt.Sprintf("bench-src%d", i), "sender"),
			rng: clientRNG(seed, i),
			buf: make([]byte, size),
		}
		s.rng.Read(s.buf[msgHeader:])
		s.bodyCRC = crc32.Checksum(s.buf[msgHeader:], castagnoli)
		w.senders = append(w.senders, s)
		w.bySrc[s.urn] = s
	}
	if w.sink, err = st.endpoint(w.sinkURN, 2, comm.WithHandler(w.handle)); err != nil {
		st.close()
		return nil, err
	}
	for _, s := range w.senders {
		if s.ep, err = st.endpoint(s.urn, 1); err != nil {
			st.close()
			return nil, err
		}
	}
	return w, nil
}

// handle is the sink's message handler. comm calls it from one dispatch
// goroutine in per-sender delivery order, so the checks are: the payload
// has the agreed size, carries the next sequence number of its sender
// (FIFO, exactly once), and its body matches the checksum in its header.
func (w *msgWorkload) handle(m *comm.Message) {
	s := w.bySrc[m.Src]
	if s == nil {
		return
	}
	want := s.delivered.Load() + 1
	ok := len(m.Payload) == w.size &&
		binary.BigEndian.Uint64(m.Payload[0:8]) == want &&
		binary.BigEndian.Uint32(m.Payload[8:12]) == crc32.Checksum(m.Payload[msgHeader:], castagnoli)
	if !ok {
		s.bad.Add(1)
	}
	if w.tr.Load().sampled(want) {
		s.handledAt.Store(time.Now().UnixNano())
	}
	s.delivered.Store(want)
}

func (w *msgWorkload) clients() []opFunc {
	ops := make([]opFunc, len(w.senders))
	for i, s := range w.senders {
		ops[i] = s.op
	}
	return ops
}

func (s *msgSender) op(ctx context.Context) error {
	next := s.seq + 1
	binary.BigEndian.PutUint64(s.buf[0:8], next)
	sum := s.bodyCRC
	if len(s.buf) <= regenMax {
		s.rng.Read(s.buf[msgHeader:])
		sum = crc32.Checksum(s.buf[msgHeader:], castagnoli)
	}
	binary.BigEndian.PutUint32(s.buf[8:12], sum)
	s.digest = fold(s.digest, uint64(sum))

	tr := s.w.tr.Load()
	sampled := tr.sampled(next)
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	if err := s.ep.SendWait(ctx, s.w.sinkURN, msgTag, s.buf); err != nil {
		return err
	}
	s.seq = next
	if sampled {
		s.recordSpans(tr, t0, time.Now())
	}
	// The ack proves the sink accepted the message; its handler may run a
	// moment later. A delivery the handler found wrong is charged to the
	// sender's next op, and verify settles the tail.
	if bad := s.bad.Load(); bad != s.seenBad {
		s.seenBad++
		return fmt.Errorf("sink rejected a message from %s (order or checksum)", s.urn)
	}
	return nil
}

// recordSpans splits a sampled SendWait at the moment the sink's handler
// saw the message: send → handler is delivery, handler → return is the
// acknowledgement coming back.
func (s *msgSender) recordSpans(tr *tracer, t0, t1 time.Time) {
	for spin := 0; s.delivered.Load() < s.seq && spin < 1000; spin++ {
		runtime.Gosched() // the handler runs just after the ack is queued
	}
	if s.delivered.Load() < s.seq {
		return
	}
	handled := time.Unix(0, s.handledAt.Load())
	if handled.After(t1) {
		handled = t1
	}
	root := tr.newID()
	tr.record("comm.endpoint.deliver", tr.newID(), root, s.seq, s.idx, t0, handled)
	tr.record("comm.endpoint.ack_return", tr.newID(), root, s.seq, s.idx, handled, t1)
	tr.record("msg.sendwait", root, 0, s.seq, s.idx, t0, t1)
}

func (w *msgWorkload) warmupOps() uint64    { return w.warm }
func (w *msgWorkload) setTracer(tr *tracer) { w.tr.Store(tr) }
func (w *msgWorkload) settle()              {}

func (w *msgWorkload) counters() map[string]uint64 {
	return endpointCounters(w.st.eps)
}

func (w *msgWorkload) layerMetrics(out map[string]float64, d func(string) float64, r *region) {
	endpointLayerMetrics(out, d, r, w.size)
}

// verify checks delivered == acked for every sender once the sink's
// dispatch queue has drained, and reports deliveries the handler rejected
// that no op has been charged with yet.
func (w *msgWorkload) verify(ctx context.Context) (uint64, error) {
	var wrong uint64
	deadline := time.Now().Add(2 * time.Second)
	for _, s := range w.senders {
		for s.delivered.Load() < s.seq && time.Now().Before(deadline) && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		if got := s.delivered.Load(); got != s.seq {
			return wrong, fmt.Errorf("%s: %d messages acknowledged but %d delivered", s.urn, s.seq, got)
		}
		wrong += s.bad.Load() - s.seenBad
	}
	if wrong > 0 {
		return wrong, errors.New("sink rejected messages (order or checksum)")
	}
	return 0, nil
}

func (w *msgWorkload) inputDigest() uint64 {
	var d uint64
	for _, s := range w.senders {
		d = fold(d, s.digest)
	}
	return d
}

func (w *msgWorkload) close() { w.st.close() }
