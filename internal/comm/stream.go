package comm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"snipe/internal/stats"
	"snipe/internal/xdr"
)

// Streaming request/response channels multiplexed over an Endpoint.
//
// A stream is a bidirectional, flow-controlled byte channel between two
// endpoints. Stream frames ride ordinary endpoint messages under one
// reserved tag (StreamTag), so they inherit everything the messaging
// substrate already provides — exactly-once delivery, per-source
// ordering, system buffering across peer migration, and striping of
// large data chunks across every healthy route. What the stream layer
// adds is conversation state: stream identity, byte-credit flow control
// per direction, graceful half-close, and abortive reset.
//
// Wire format: the payload of a StreamTag message is a sequence of one or
// more frames, back to back, each XDR-encoded and self-delimiting:
//
//	kind   uint8  — streamOpen..streamWindow
//	id     uint64 — stream id, allocated by the opener
//	orig   uint8  — 1 when the frame's sender opened the stream
//	... kind-specific fields (see streamFrame.encode and decodeStreamFrame)
//
// The receiver applies the frames in order until the payload is used up;
// a frame that does not decode ends the message, with the frames before
// it applied and nothing after. The (peer, id, orig) triple names a
// stream uniquely: ids are scoped to their opener, and the orig bit keeps
// two endpoints that happen to pick the same id apart.
//
// Send path: no frame is sent on its own. Every outbound frame, of any
// kind and any stream, is appended to the batch pending for its peer, and
// the peer's flusher goroutine hands each batch to Endpoint.Send as one
// message. The first frame for a peer with no queue starts the flusher; it
// drains the whole queue per wake, parks on a one-token channel that the
// next frame to find the queue empty fills, and after streamFlushIdle with
// nothing queued exits, taking the queue with it. So the frames a
// goroutine produces before it next blocks (Open, Write and CloseWrite of
// a unary call; Write and CloseWrite of its answer) ride one message, and
// a frame never waits for a later stream call to get out. The flusher is
// the only sender, so frames to one peer leave in the order they were
// queued. It marks a message flagReplyExpected when the batch holds a
// frame of a stream the peer can still write to (a request, a WINDOW
// grant): the peer's endpoint may then send that message's ack inside its
// answer (see ack.go). A batch is sealed, and the next frame starts a new
// one behind it, when another frame would take it past the chunk size
// plus streamBatchSlack: a message carries at most one full DATA chunk and
// a few small frames, and the DATA queued for a stream is bounded by the
// credit its peer granted. A stream frame that would take its peer's
// queue past maxStreamQueueBytes fails that stream alone with
// ErrBufferFull. A batch the endpoint refuses (ErrBufferFull, ErrClosed,
// or without buffering a send no route carries) is dropped together with
// every batch queued behind it for that peer, so that no stream reaches
// the peer with a hole in it; every stream with a frame among them fails,
// queues nothing more, and is RESET toward the peer. The cause surfaces
// from those streams' next Read or Write.
//
// Flow control is credit-based per direction. Each side grants its
// receive window up front (the opener's window rides in OPEN; the
// acceptor's initial grant is assumed symmetric) and replenishes it with
// WINDOW frames as the application consumes received chunks: Read adds up
// what it has handed out and grants it back in one WINDOW once that
// reaches a quarter of the window, and not at all once the peer has
// half-closed, so an exchange smaller than that costs no WINDOW frame.
// The chunk size is clamped to half the window, so the credit a reader
// withholds can never keep a writer from its next chunk. A writer that
// exhausts its credit blocks until the reader catches up: a slow consumer
// backpressures the producer instead of ballooning the consumer's memory.
//
// Both muxes of a conversation must run the same configuration (window
// and chunk), and the same build: the frame-sequence payload replaced the
// earlier one-frame payload outright, with no version negotiation.

// StreamTag is the reserved message tag carrying stream frames.
// Applications must not send their own messages under it, and an
// endpoint hosting a StreamMux must leave StreamTag messages to the
// mailbox (a WithHandler endpoint needs explicit handler tags).
const StreamTag uint32 = ^uint32(0) - 1

// Stream frame kinds.
const (
	streamOpen   uint8 = iota + 1 // open a stream: method, initial window
	streamData                    // one chunk of stream data
	streamClose                   // half-close: no more data from this side
	streamReset                   // abort both directions: reason
	streamWindow                  // credit grant: delta bytes
)

// Stream layer errors.
var (
	// ErrStreamReset indicates the peer (or the local mux) aborted the
	// stream; the wrapped message carries the reset reason.
	ErrStreamReset = errors.New("comm: stream reset")
	// ErrDraining is the reset reason a draining mux gives new streams.
	ErrDraining = errors.New("comm: endpoint draining")
)

// drainReason is the on-wire reset reason for drain rejections; openers
// map it back to ErrDraining.
const drainReason = "draining"

const (
	// defaultStreamWindow is the per-stream, per-direction receive
	// window: how many bytes a peer may have in flight toward us before
	// it must wait for WINDOW grants.
	defaultStreamWindow = 1 << 20
	// defaultStreamChunk caps one DATA frame's payload. It matches the
	// endpoint's stripe threshold, so a saturated stream produces exactly
	// stripe-eligible messages and large responses ride the multi-path
	// substrate.
	defaultStreamChunk = stripeThreshold
	// streamAcceptBacklog bounds how many fully-arrived but not yet
	// accepted streams queue before further opens are reset.
	streamAcceptBacklog = 64
	// streamBatchSlack is how far past the chunk size a batch may run:
	// room for the small frames (an OPEN with its method name, a WINDOW)
	// that ride with a full DATA chunk.
	streamBatchSlack = 1 << 10
	// maxStreamQueueBytes bounds the frames queued for one peer and not
	// yet taken by its flusher: 64 default chunks.
	maxStreamQueueBytes = 64 * defaultStreamChunk
	// streamFlushIdle is how long a flusher stays parked with nothing
	// queued before it exits.
	streamFlushIdle = time.Second
	// maxWireReason bounds a decoded reset reason.
	maxWireReason = 1024
)

// streamKey names a stream from the local endpoint's perspective.
type streamKey struct {
	peer   string
	id     uint64
	opened bool // we opened it
}

// streamBatch is the frames of one outbound message, and the batch
// queued behind it for the same peer.
type streamBatch struct {
	enc     *xdr.Encoder
	streams []*Stream // the stream of each frame in enc (frames of no stream left out)
	next    *streamBatch
}

// replyExpected reports whether the peer is about to answer this batch:
// whether it carries a frame of a stream whose inbound half is still
// open. A request (OPEN, DATA, CLOSE) does; its response, sent after the
// requester half-closed, does not. Only the flusher that took the batch
// off its queue calls it.
func (b *streamBatch) replyExpected() bool {
	var last *Stream
	for _, s := range b.streams {
		if s == last {
			continue // the frames of one call are neighbours
		}
		last = s
		s.mu.Lock()
		open := !s.recvEOF && s.failure == nil
		s.mu.Unlock()
		if open {
			return true
		}
	}
	return false
}

// streamBatchPool recycles batches, each with the capacity of its streams
// slice; the encoder goes through the frame-encoder pool and its size cap.
var streamBatchPool = sync.Pool{New: func() any { return new(streamBatch) }}

func getStreamBatch() *streamBatch {
	b := streamBatchPool.Get().(*streamBatch)
	b.enc = getFrameEncoder()
	return b
}

// putStreamBatch recycles a batch the flusher is done with. It goes back
// owning nothing: no encoder, no batch behind it, and no *Stream left in
// the slots of its slice, which would keep a finished stream and the
// chunks it still holds alive for as long as the pool keeps the batch.
func putStreamBatch(b *streamBatch) {
	putFrameEncoder(b.enc)
	clear(b.streams)
	b.enc, b.streams, b.next = nil, b.streams[:0], nil
	streamBatchPool.Put(b)
}

// sendQueue is one peer's outbound queue: the batches its flusher has not
// yet taken, oldest first, with frames appended to the last one; the
// bytes they hold; and the channel that wakes the parked flusher.
type sendQueue struct {
	head, tail *streamBatch
	bytes      int
	wake       chan struct{} // one token: the queue went from empty to not
}

// StreamMux multiplexes streams over one Endpoint. One mux owns the
// endpoint's StreamTag traffic; the endpoint's other tags are untouched.
type StreamMux struct {
	ep     *Endpoint
	window int           // per-stream receive window, bytes
	chunk  int           // cap on one DATA frame's payload
	idle   time.Duration // how long a flusher parks empty before it exits

	nextID   atomic.Uint64
	draining atomic.Bool

	// mu guards streams, out, closed and every stream's queued, retired
	// and sendErr fields.
	mu      sync.Mutex
	streams map[streamKey]*Stream
	// out holds, per peer, the batches not yet handed to the endpoint. A
	// peer has an entry exactly as long as a flusher goroutine runs for it.
	out    map[string]*sendQueue
	closed bool

	mFramesOut     *stats.Counter // frames queued for sending, all kinds
	mMsgsOut       *stats.Counter // batches the endpoint accepted
	mWindowsOut    *stats.Counter // WINDOW frames among mFramesOut
	mResetsOut     *stats.Counter // RESET frames among mFramesOut
	mSendFailures  *stats.Counter // batches the endpoint refused
	mFlusherStarts *stats.Counter // flusher goroutines started

	accepts  chan *Stream
	quit     <-chan struct{} // closed by Close: flushers drain and exit
	cancel   context.CancelFunc
	wg       sync.WaitGroup // the receive loop
	flushers sync.WaitGroup // flusher goroutines; Close waits for them first
}

// NewStreamMux attaches a stream multiplexer to ep and starts its
// receive loop. Close the mux before (or instead of) closing the
// endpoint; closing the endpoint also unblocks the mux.
func NewStreamMux(ep *Endpoint) *StreamMux {
	return newStreamMux(ep, defaultStreamWindow, defaultStreamChunk, streamFlushIdle)
}

// newStreamMux is NewStreamMux with the window, chunk and flusher idle
// period the package's tests shrink. chunk must be at most half of window:
// a reader withholds up to a quarter of the window before it grants credit
// back, and a writer waiting for one chunk's credit must always be
// satisfiable.
func newStreamMux(ep *Endpoint, window, chunk int, idle time.Duration) *StreamMux {
	reg := ep.Metrics()
	m := &StreamMux{
		ep:      ep,
		window:  window,
		chunk:   chunk,
		idle:    idle,
		streams: make(map[streamKey]*Stream),
		out:     make(map[string]*sendQueue),

		mFramesOut:     reg.Counter("stream_frames_out"),
		mMsgsOut:       reg.Counter("stream_msgs_out"),
		mWindowsOut:    reg.Counter("stream_window_updates_out"),
		mResetsOut:     reg.Counter("stream_resets_out"),
		mSendFailures:  reg.Counter("stream_send_failures"),
		mFlusherStarts: reg.Counter("stream_flusher_starts"),
	}
	m.accepts = make(chan *Stream, streamAcceptBacklog)
	ctx, cancel := context.WithCancel(context.Background())
	m.quit, m.cancel = ctx.Done(), cancel
	m.wg.Add(1)
	go m.run(ctx)
	return m
}

// Endpoint returns the endpoint the mux rides on.
func (m *StreamMux) Endpoint() *Endpoint { return m.ep }

// Drain makes the mux refuse new incoming streams (they are reset with
// ErrDraining) while established streams keep flowing — the first step
// of a graceful replica shutdown.
func (m *StreamMux) Drain() { m.draining.Store(true) }

// Draining reports whether Drain has been called.
func (m *StreamMux) Draining() bool { return m.draining.Load() }

// ActiveStreams counts streams that are not yet fully closed, or whose
// last frames have not yet been handed to the endpoint.
func (m *StreamMux) ActiveStreams() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.streams)
}

// Close stops the mux: it hands the frames already queued to the
// endpoint, then fails every open stream. The underlying endpoint stays
// open.
func (m *StreamMux) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		m.flushers.Wait()
		return
	}
	m.closed = true // streams queue nothing from here on
	m.mu.Unlock()
	// Cancelling stops the receive loop — an OPEN it still handles is
	// refused with a RESET — and tells every flusher to exit once its
	// queue is empty. With the loop gone nothing feeds the flushers, and
	// a RESET it queued after its peer's flusher left started another.
	m.cancel()
	m.wg.Wait()
	m.flushers.Wait()
	m.mu.Lock()
	streams := make([]*Stream, 0, len(m.streams))
	for _, s := range m.streams {
		streams = append(streams, s)
	}
	m.streams = map[streamKey]*Stream{}
	m.mu.Unlock()
	for _, s := range streams {
		s.abortLocal(ErrClosed)
	}
	close(m.accepts)
}

// Open starts a stream to dst for the named method. It returns as soon
// as the OPEN frame is queued; a send the endpoint refuses (send buffer
// full, an unreachable peer without buffering) or a peer that refuses
// the stream (draining, overloaded, closed) surfaces as an error from
// the first Read/Write.
func (m *StreamMux) Open(ctx context.Context, dst, method string) (*Stream, error) {
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(ctx)
	}
	id := m.nextID.Add(1)
	s := m.newStream(dst, id, true, method)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	m.streams[streamKey{dst, id, true}] = s
	m.enqueueLocked(dst, s, streamFrame{kind: streamOpen, id: id, orig: true, method: method, delta: uint32(m.window)}) // a refusal fails s
	return s, nil
}

// Accept returns the next incoming stream, waiting until ctx ends.
func (m *StreamMux) Accept(ctx context.Context) (*Stream, error) {
	select {
	case s, ok := <-m.accepts:
		if !ok {
			return nil, ErrClosed
		}
		return s, nil
	case <-ctx.Done():
		return nil, ctxErr(ctx)
	}
}

// newStream builds the shared stream state.
func (m *StreamMux) newStream(peer string, id uint64, opened bool, method string) *Stream {
	s := &Stream{
		mux:        m,
		peer:       peer,
		id:         id,
		opened:     opened,
		method:     method,
		sendCredit: m.window,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// remove retires a stream: frames for it are no longer expected. It
// leaves the routing table (and ActiveStreams) once the last frame it
// queued has been handed to the endpoint.
func (m *StreamMux) remove(s *Stream) {
	m.mu.Lock()
	s.retired = true
	m.dropIfSentLocked(s)
	m.mu.Unlock()
}

// dropIfSentLocked deletes a retired stream with nothing left queued.
func (m *StreamMux) dropIfSentLocked(s *Stream) {
	key := streamKey{s.peer, s.id, s.opened}
	if s.retired && s.queued == 0 && m.streams[key] == s {
		delete(m.streams, key)
	}
}

// enqueue queues one frame for peer; s is the frame's stream, nil for
// a RESET that answers a stream the mux does not hold.
func (m *StreamMux) enqueue(peer string, s *Stream, f streamFrame) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.enqueueLocked(peer, s, f)
}

func (m *StreamMux) enqueueLocked(peer string, s *Stream, f streamFrame) error {
	if s != nil {
		// A RESET of no stream is still queued by a closing mux: Close
		// stops the receive loop and the flushers, their only sources.
		if m.closed {
			return ErrClosed
		}
		if s.sendErr != nil {
			return s.sendErr // never a frame behind a lost one
		}
	}
	size := f.wireSize()
	q := m.out[peer]
	switch {
	case q == nil:
		q = &sendQueue{wake: make(chan struct{}, 1)}
		m.out[peer] = q
		m.flushers.Add(1)
		m.mFlusherStarts.Inc()
		go m.flush(peer, q)
	case s != nil && q.bytes+size > maxStreamQueueBytes:
		err := fmt.Errorf("%w: %w: %d bytes queued for %s", ErrStreamReset, ErrBufferFull, q.bytes, peer)
		m.failLocked(peer, s, err)
		return err
	case q.head == nil:
		select {
		case q.wake <- struct{}{}:
		default: // a wake-up is already coming
		}
	}
	if q.tail == nil || q.tail.enc.Len()+size > m.chunk+streamBatchSlack {
		b := getStreamBatch()
		if q.tail == nil {
			q.head = b
		} else {
			q.tail.next = b
		}
		q.tail = b
	}
	f.encode(q.tail.enc)
	q.bytes += size
	if s != nil {
		q.tail.streams = append(q.tail.streams, s)
		s.queued++
	}
	m.mFramesOut.Inc()
	switch f.kind {
	case streamWindow:
		m.mWindowsOut.Inc()
	case streamReset:
		m.mResetsOut.Inc()
	}
	return nil
}

// nextBatch takes the oldest batch off q, or returns nil when q is empty.
func (m *StreamMux) nextBatch(q *sendQueue) *streamBatch {
	m.mu.Lock()
	defer m.mu.Unlock()
	b := q.head
	if b == nil {
		return nil
	}
	if q.head = b.next; q.head == nil {
		q.tail = nil
	}
	q.bytes -= b.enc.Len()
	return b
}

// retire deletes peer's queue q, ending its flusher, if q is still empty:
// a frame that got in first is sent, and one that comes after starts a
// flusher.
func (m *StreamMux) retire(peer string, q *sendQueue) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if q.head != nil {
		return false
	}
	delete(m.out, peer)
	return true
}

// flush is peer's flusher: it hands q's batches to the endpoint, one
// message each, until none is left, then parks until a frame wakes it,
// Close stops it or it has been idle for m.idle. It is the only sender of
// StreamTag messages to peer, which is what keeps the frames to one peer in
// the order they were queued.
func (m *StreamMux) flush(peer string, q *sendQueue) {
	defer m.flushers.Done()
	idle := time.NewTimer(m.idle)
	defer idle.Stop()
	for {
		b := m.nextBatch(q)
		if b == nil {
			if !idle.Stop() {
				select {
				case <-idle.C:
				default:
				}
			}
			idle.Reset(m.idle)
			select {
			case <-q.wake:
				continue
			case <-m.quit:
			case <-idle.C:
			}
			if m.retire(peer, q) {
				return
			}
			continue
		}
		var flags uint8
		if b.replyExpected() {
			flags = flagReplyExpected
		}
		_, err := m.ep.send(peer, StreamTag, b.enc.Bytes(), flags)
		if err != nil {
			m.mSendFailures.Inc()
			m.failQueue(peer, q, b, fmt.Errorf("%w: sending to %s: %w", ErrStreamReset, peer, err))
			continue
		}
		m.mMsgsOut.Inc()
		m.mu.Lock()
		for _, s := range b.streams {
			s.queued--
			m.dropIfSentLocked(s)
		}
		m.mu.Unlock()
		putStreamBatch(b) // Send copied the payload
	}
}

// failLocked fails s for good with err, which its next Read or Write
// returns: it accepts no further frame, and a RESET for it is queued so
// that a peer holding part of the stream aborts it too.
func (m *StreamMux) failLocked(peer string, s *Stream, err error) {
	s.sendErr, s.retired = err, true
	m.dropIfSentLocked(s)
	m.enqueueLocked(peer, nil, streamFrame{kind: streamReset, id: s.id, orig: s.opened, reason: "send failed"})
	s.abortLocal(err)
}

// failQueue gives up on the batch the endpoint refused and on every batch
// queued behind it in q: a later batch may carry the rest of a stream
// whose earlier frames were in the refused one, and sending it would hand
// the peer a stream with a hole in it. Every stream with a frame among
// them fails with err (see failLocked). q stays peer's queue, with its
// wake channel: the flusher calling this is still running.
func (m *StreamMux) failQueue(peer string, q *sendQueue, refused *streamBatch, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	refused.next = q.head
	q.head, q.tail, q.bytes = nil, nil, 0
	for b := refused; b != nil; {
		for _, s := range b.streams {
			s.queued--
			if s.sendErr == nil {
				m.failLocked(peer, s, err)
			}
			m.dropIfSentLocked(s)
		}
		next := b.next
		putStreamBatch(b)
		b = next
	}
}

// run pulls StreamTag messages off the endpoint mailbox and dispatches
// them to stream state. Per-source ordering is inherited from the
// endpoint's sequencing, so OPEN precedes its DATA, and CLOSE follows.
func (m *StreamMux) run(ctx context.Context) {
	defer m.wg.Done()
	var w ctxWaiter // registered on the loop's first wait, for its whole life
	defer w.release()
	for {
		msg, err := m.ep.recvMatch(ctx, "", StreamTag, &w)
		if err != nil {
			return
		}
		// A damaged frame ends the message; malformed payloads from
		// foreign senders are tolerated.
		_ = forEachStreamFrame(msg.Payload, func(f streamFrame) { m.handle(msg.Src, f) })
	}
}

// handle dispatches one decoded stream frame.
func (m *StreamMux) handle(src string, f streamFrame) {
	// A frame whose sender opened the stream refers, locally, to a
	// stream we accepted; and vice versa.
	key := streamKey{src, f.id, !f.orig}
	m.mu.Lock()
	s, known := m.streams[key]
	m.mu.Unlock()

	switch f.kind {
	case streamOpen:
		m.handleOpen(src, f, known)
	case streamData:
		if !known {
			// The stream died locally (reset, or this process restarted
			// under the same URN) while the chunk was in flight; tell
			// the peer to stop.
			m.reset(src, f.id, key.opened, "unknown stream")
			return
		}
		s.deliver(f.data)
	case streamClose:
		if known {
			s.closeRecv()
			m.reapIfDone(s)
		}
	case streamReset:
		if known {
			m.remove(s)
			reason := f.reason
			if reason == drainReason {
				s.abortLocal(fmt.Errorf("%w: %w", ErrStreamReset, ErrDraining))
			} else {
				s.abortLocal(fmt.Errorf("%w: %s", ErrStreamReset, reason))
			}
		}
	case streamWindow:
		if known {
			s.grant(int(f.delta))
		}
	}
}

// handleOpen admits (or refuses) one incoming stream.
func (m *StreamMux) handleOpen(src string, f streamFrame, known bool) {
	if known {
		return // duplicate OPEN cannot happen over exactly-once delivery; ignore
	}
	if m.draining.Load() {
		m.reset(src, f.id, false, drainReason)
		return
	}
	s := m.newStream(src, f.id, false, f.method)
	// The opener granted us its receive window explicitly.
	s.sendCredit = int(f.delta)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.reset(src, f.id, false, "closed")
		return
	}
	m.streams[streamKey{src, f.id, false}] = s
	m.mu.Unlock()
	select {
	case m.accepts <- s:
	default:
		m.remove(s)
		m.reset(src, f.id, false, "accept backlog full")
	}
}

// reset queues an abortive RESET for a stream the mux does not (or no
// longer) hold; orig says whether this side opened it. Best-effort.
func (m *StreamMux) reset(peer string, id uint64, orig bool, reason string) {
	_ = m.enqueue(peer, nil, streamFrame{kind: streamReset, id: id, orig: orig, reason: reason}) // a frame of no stream is never refused
}

// reapIfDone removes a stream whose both directions have closed.
func (m *StreamMux) reapIfDone(s *Stream) {
	s.mu.Lock()
	done := s.sendClosed && s.recvEOF
	s.mu.Unlock()
	if done {
		m.remove(s)
	}
}

// Stream is one bidirectional flow-controlled channel. Reads and
// writes from multiple goroutines are safe; chunks are delivered in
// order within each direction.
type Stream struct {
	mux    *StreamMux
	peer   string
	id     uint64
	opened bool
	method string

	// Guarded by mux.mu: frames queued and not yet handed to the
	// endpoint, whether the stream has been retired (see remove), and why
	// a frame of it was lost on the way to the endpoint (see failQueue).
	queued  int
	retired bool
	sendErr error

	mu         sync.Mutex
	cond       *sync.Cond
	sendCredit int
	sendClosed bool
	recvQ      [][]byte
	consumed   int // bytes Read handed out and not yet granted back
	recvEOF    bool
	failure    error
}

// Method returns the method name the stream was opened with.
func (s *Stream) Method() string { return s.method }

// Peer returns the remote endpoint's URN.
func (s *Stream) Peer() string { return s.peer }

// send queues one frame of this stream.
func (s *Stream) send(f streamFrame) error {
	f.id, f.orig = s.id, s.opened
	return s.mux.enqueue(s.peer, s, f)
}

// deliver queues one received chunk.
func (s *Stream) deliver(data []byte) {
	s.mu.Lock()
	if s.failure == nil && !s.recvEOF {
		s.recvQ = append(s.recvQ, data)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// closeRecv marks the peer's half-close.
func (s *Stream) closeRecv() {
	s.mu.Lock()
	s.recvEOF = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// grant adds send credit.
func (s *Stream) grant(n int) {
	s.mu.Lock()
	s.sendCredit += n
	s.cond.Broadcast()
	s.mu.Unlock()
}

// abortLocal fails the stream locally (peer reset, send failure, mux
// close).
func (s *Stream) abortLocal(err error) {
	s.mu.Lock()
	if s.failure == nil {
		s.failure = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Read returns the next received chunk, waiting until data arrives,
// the peer half-closes (io.EOF after the queue drains), the stream
// fails, or ctx ends. The returned slice is the caller's to keep and to
// overwrite, at its length: it is a window into the message that carried
// it, whose other frames lie past its capacity.
func (s *Stream) Read(ctx context.Context) ([]byte, error) {
	var w ctxWaiter
	defer w.release()
	s.mu.Lock()
	for {
		if len(s.recvQ) > 0 {
			chunk := s.recvQ[0]
			s.recvQ = s.recvQ[1:]
			// Replenish the peer's credit a quarter window at a time, and
			// not at all when it has nothing more to send.
			var grant int
			s.consumed += len(chunk)
			if s.consumed >= s.mux.window/4 && !s.recvEOF && s.failure == nil {
				grant, s.consumed = s.consumed, 0
			}
			s.mu.Unlock()
			if grant > 0 {
				_ = s.send(streamFrame{kind: streamWindow, delta: uint32(grant)}) // a closed mux has failed the stream
			}
			return chunk, nil
		}
		if s.failure != nil {
			err := s.failure
			s.mu.Unlock()
			return nil, err
		}
		if s.recvEOF {
			s.mu.Unlock()
			return nil, io.EOF
		}
		if ctx.Err() != nil {
			s.mu.Unlock()
			return nil, ctxErr(ctx)
		}
		w.wait(ctx, s.cond)
	}
}

// Write sends p, chunking to the mux's chunk size and blocking for
// flow-control credit as needed. It returns once every chunk is queued
// for the peer, not once it is sent: if the endpoint then refuses the
// message (send buffer full, peer unreachable without buffering,
// endpoint closed) the stream fails, and the next Read or Write returns
// the cause.
func (s *Stream) Write(ctx context.Context, p []byte) error {
	var w ctxWaiter
	defer w.release()
	for first := true; first || len(p) > 0; first = false {
		n := len(p)
		if n > s.mux.chunk {
			n = s.mux.chunk
		}
		s.mu.Lock()
		for s.failure == nil && !s.sendClosed && s.sendCredit < n && ctx.Err() == nil {
			w.wait(ctx, s.cond)
		}
		if err := s.failure; err != nil {
			s.mu.Unlock()
			return err
		}
		if s.sendClosed {
			s.mu.Unlock()
			return fmt.Errorf("%w: write after CloseWrite", ErrStreamReset)
		}
		if ctx.Err() != nil {
			s.mu.Unlock()
			return ctxErr(ctx)
		}
		s.sendCredit -= n
		s.mu.Unlock()
		if n == 0 {
			return nil // zero-length write: just the state check above
		}
		if err := s.send(streamFrame{kind: streamData, data: p[:n]}); err != nil {
			return err
		}
		p = p[n:]
	}
	return nil
}

// CloseWrite half-closes the stream: the peer's reads drain and then
// return io.EOF; reads on this side continue until the peer closes.
func (s *Stream) CloseWrite() error {
	s.mu.Lock()
	if s.failure != nil {
		err := s.failure
		s.mu.Unlock()
		return err
	}
	if s.sendClosed {
		s.mu.Unlock()
		return nil
	}
	s.sendClosed = true
	s.mu.Unlock()
	err := s.send(streamFrame{kind: streamClose})
	s.mux.reapIfDone(s)
	return err
}

// Reset aborts the stream in both directions with the given reason.
func (s *Stream) Reset(reason string) {
	s.abortLocal(fmt.Errorf("%w: %s (local)", ErrStreamReset, reason))
	_ = s.send(streamFrame{kind: streamReset, reason: reason}) // best-effort; only a closed mux refuses
	s.mux.remove(s)
}

// --- wire encoding -------------------------------------------------------

// streamFrame is one stream frame, decoded or about to be encoded.
type streamFrame struct {
	kind   uint8
	id     uint64
	orig   bool
	method string // streamOpen
	delta  uint32 // streamOpen (initial window), streamWindow (grant)
	// data is the streamData chunk. Decoded, it aliases the message
	// payload (BytesMax does not copy): the frames of one message share
	// that payload, and Read hands the caller its slice of it, capped at
	// its length.
	data   []byte
	reason string // streamReset
}

// streamHeaderSize is the encoded kind, id and orig of every frame.
const streamHeaderSize = 1 + 8 + 1

// wireSize is the number of bytes encode appends.
func (f *streamFrame) wireSize() int {
	switch f.kind {
	case streamOpen:
		return streamHeaderSize + 4 + len(f.method) + 4
	case streamData:
		return streamHeaderSize + 4 + len(f.data)
	case streamReset:
		return streamHeaderSize + 4 + len(f.reason)
	case streamWindow:
		return streamHeaderSize + 4
	}
	return streamHeaderSize
}

// encode appends the frame to e, behind whatever frames e already holds.
func (f *streamFrame) encode(e *xdr.Encoder) {
	e.PutUint8(f.kind)
	e.PutUint64(f.id)
	e.PutBool(f.orig)
	switch f.kind {
	case streamOpen:
		e.PutString(f.method)
		e.PutUint32(f.delta)
	case streamData:
		e.PutBytes(f.data)
	case streamReset:
		e.PutString(f.reason)
	case streamWindow:
		e.PutUint32(f.delta)
	}
}

// forEachStreamFrame decodes the frame sequence of one message payload,
// calling fn for each frame in order. It stops at the first frame that
// does not decode and returns that error: fn has seen every frame before
// the damage and none after it.
func forEachStreamFrame(payload []byte, fn func(streamFrame)) error {
	d := xdr.NewDecoder(payload)
	for d.Remaining() > 0 {
		f, err := decodeStreamFrame(d)
		if err != nil {
			return err
		}
		fn(f)
	}
	return nil
}

// decodeStreamFrame reads one frame off d.
func decodeStreamFrame(d *xdr.Decoder) (f streamFrame, err error) {
	if f.kind, err = d.Uint8(); err != nil {
		return f, err
	}
	if f.id, err = d.Uint64(); err != nil {
		return f, err
	}
	origB, err := d.Uint8()
	if err != nil {
		return f, err
	}
	f.orig = origB != 0
	switch f.kind {
	case streamOpen:
		if f.method, err = d.StringMax(maxWireURN); err != nil {
			return f, err
		}
		f.delta, err = d.Uint32()
	case streamData:
		f.data, err = d.BytesMax(MaxMessageSize)
		f.data = f.data[:len(f.data):len(f.data)] // an append must not reach the next frame
	case streamClose:
	case streamReset:
		f.reason, err = d.StringMax(maxWireReason)
	case streamWindow:
		f.delta, err = d.Uint32()
	default:
		err = fmt.Errorf("%w: stream frame kind %d", ErrBadFrame, f.kind)
	}
	return f, err
}
