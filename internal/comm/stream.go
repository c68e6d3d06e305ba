package comm

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"snipe/internal/stats"
	"snipe/internal/xdr"
)

// A service call (DESIGN "A service call") is one request and one reply
// between two endpoints. The opener sends the request under StreamTag,
// marked as expecting a reply (see SendRequest), and waits for the reply
// under ReplyTag through the endpoint's request table (reply.go); the
// acceptor's mux takes requests from its mailbox and hands them to
// Accept. Both are ordinary endpoint messages, so they inherit
// exactly-once delivery, buffering across peer migration and, above the
// stripe threshold, striping across every healthy route.
//
//	request  id uint64 | method xdr string | body (the rest of the payload)
//	reply    id uint64 | status uint8      | body (the rest of the payload)
//
// The request's id is the opener endpoint's request ID, which the reply
// carries back. A reply's body is the answer when its status is callOK
// and the reason otherwise.
//
// Stream keeps the shape of a byte stream for its callers — Write, then
// CloseWrite, then Read to io.EOF — over the two messages: Write appends
// to the message being built, CloseWrite sends it, and Read hands out the
// other side's body once and then reports io.EOF.

// StreamTag is the reserved message tag carrying call requests.
// Applications must not send their own messages under it, and an
// endpoint hosting a StreamMux must leave StreamTag messages to the
// mailbox (a WithHandler endpoint needs explicit handler tags).
const StreamTag uint32 = ^uint32(0) - 1

// Reply statuses.
const (
	callOK         uint8 = iota // the body is the answer
	callFailed                  // the handler failed or reset the call; the body says why
	callDraining                // the acceptor is draining and took no new call
	callOverloaded              // the acceptor's backlog was full
)

// Call errors.
var (
	// ErrStreamReset indicates the call failed at the peer (or was reset
	// locally); the wrapped message carries the reason.
	ErrStreamReset = errors.New("comm: stream reset")
	// ErrDraining is the failure a draining mux answers new calls with.
	ErrDraining = errors.New("comm: endpoint draining")
)

const (
	// streamAcceptBacklog bounds how many requests wait for Accept
	// before further ones are answered callOverloaded.
	streamAcceptBacklog = 64
	// replyHeaderSize is a reply's id and status.
	replyHeaderSize = 8 + 1
)

// StreamMux carries calls over one Endpoint: it opens calls to other
// endpoints and accepts the calls they open. One mux owns the endpoint's
// StreamTag traffic; the endpoint's other tags are untouched.
type StreamMux struct {
	ep     *Endpoint
	closed atomic.Bool // set under ep.mu, with the mux's requests failed (Endpoint.closeMux)

	// mu orders Drain against the receive loop's admissions: once
	// draining is closed, nothing more joins accepts.
	mu       sync.Mutex
	draining chan struct{}

	mSendFailures *stats.Counter // requests and replies the endpoint refused

	accepts chan *Stream
	cancel  context.CancelFunc
	wg      sync.WaitGroup // the receive loop
}

// NewStreamMux attaches a call multiplexer to ep and starts its receive
// loop. Close the mux before (or instead of) closing the endpoint;
// closing the endpoint also unblocks the mux.
func NewStreamMux(ep *Endpoint) *StreamMux {
	m := &StreamMux{
		ep:            ep,
		mSendFailures: ep.Metrics().Counter("stream_send_failures"),
		draining:      make(chan struct{}),
		accepts:       make(chan *Stream, streamAcceptBacklog),
	}
	ctx, cancel := context.WithCancel(context.Background())
	m.cancel = cancel
	m.wg.Add(1)
	go m.run(ctx)
	return m
}

// Endpoint returns the endpoint the mux rides on.
func (m *StreamMux) Endpoint() *Endpoint { return m.ep }

// Drain makes the mux refuse new incoming calls (they are answered with
// ErrDraining) while the ones it took finish — the first step of a
// graceful replica shutdown. Accept hands out the calls already taken,
// then returns ErrDraining.
func (m *StreamMux) Drain() {
	m.mu.Lock()
	if !m.Draining() {
		close(m.draining)
	}
	m.mu.Unlock()
}

// Draining reports whether Drain has been called.
func (m *StreamMux) Draining() bool {
	select {
	case <-m.draining:
		return true
	default:
		return false
	}
}

// Close stops the mux: calls it opened and has no reply for fail with
// ErrClosed, and calls it took and nobody accepted are answered as
// failed. The underlying endpoint stays open, with every reply already
// sent.
func (m *StreamMux) Close() {
	if m.ep.closeMux(m) {
		m.cancel()
		m.wg.Wait()
		close(m.accepts)
		for s := range m.accepts {
			s.finish(callFailed, "closed")
		}
	}
	m.wg.Wait()
}

// Open starts a call to dst for the named method. Nothing is sent until
// CloseWrite (or the first Read); a send the endpoint refuses, or a peer
// that refuses the call (draining, overloaded), surfaces as an error from
// the first Read.
func (m *StreamMux) Open(ctx context.Context, dst, method string) (*Stream, error) {
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(ctx)
	}
	if m.closed.Load() {
		return nil, ErrClosed
	}
	s := &Stream{mux: m, peer: dst, method: method, opened: true, enc: getFrameEncoder()}
	s.enc.PutUint64(0) // the request ID, known once registered
	s.enc.PutString(method)
	return s, nil
}

// Accept returns the next incoming call, waiting until ctx ends. A
// draining mux's Accept returns ErrDraining once it has handed out every
// call taken before the drain.
func (m *StreamMux) Accept(ctx context.Context) (*Stream, error) {
	var s *Stream
	var ok bool
	select {
	case s, ok = <-m.accepts:
	case <-m.draining:
		select {
		case s, ok = <-m.accepts:
		default:
			return nil, ErrDraining
		}
	case <-ctx.Done():
		return nil, ctxErr(ctx)
	}
	if !ok {
		return nil, ErrClosed
	}
	return s, nil
}

// run takes requests off the endpoint's mailbox and queues them for
// Accept, or answers them at once when the mux is draining or its
// backlog is full.
func (m *StreamMux) run(ctx context.Context) {
	defer m.wg.Done()
	var w ctxWaiter // registered on the loop's first wait, for its whole life
	defer w.release()
	for {
		msg, err := m.ep.recvMatch(ctx, "", StreamTag, &w)
		if err != nil {
			return
		}
		id, method, body, err := decodeRequest(msg.Payload)
		if err != nil {
			continue // a damaged request names no call to answer
		}
		s := &Stream{mux: m, peer: msg.Src, method: method, id: id, body: body, enc: getFrameEncoder()}
		s.enc.PutUint64(id)
		s.enc.PutUint8(callOK)
		if status, reason := m.admit(s); status != callOK {
			s.finish(status, reason)
		}
	}
}

// admit queues s for Accept, or says why not.
func (m *StreamMux) admit(s *Stream) (status uint8, reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.Draining() {
		return callDraining, "draining"
	}
	select {
	case m.accepts <- s:
		return callOK, ""
	default:
		return callOverloaded, "accept backlog full"
	}
}

// Stream is one call, as its opener or its acceptor sees it. Its methods
// are safe from several goroutines at once.
type Stream struct {
	mux    *StreamMux
	peer   string
	method string
	opened bool

	// req is the opener's registration for the reply, and id its ID; on
	// the acceptor, id is the opener's, which the reply carries back.
	req pendingRequest
	id  uint64

	mu   sync.Mutex
	enc  *xdr.Encoder // the message being built; nil once sent
	body []byte       // the other side's body, until Read hands it out
	err  error        // why the call failed; every later call returns it
}

// Method returns the method name the call was opened with.
func (s *Stream) Method() string { return s.method }

// Peer returns the remote endpoint's URN.
func (s *Stream) Peer() string { return s.peer }

// Read returns the other side's body — the request on the acceptor, the
// reply on the opener — the first time, and io.EOF after it (at once for
// an empty body). The opener's Read sends the request if CloseWrite has
// not, and waits for the reply until ctx ends; a reply that reports
// failure comes back as ErrStreamReset wrapping its reason. The slice is
// the caller's to keep and to overwrite, at its length.
func (s *Stream) Read(ctx context.Context) ([]byte, error) {
	if s.opened {
		if err := s.CloseWrite(); err != nil {
			return nil, err
		}
		if err := s.awaitReply(ctx); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return nil, s.err
	}
	b := s.body
	if len(b) == 0 {
		return nil, io.EOF
	}
	s.body = nil
	return b[:len(b):len(b)], nil
}

// awaitReply waits for the opener's reply and files it.
func (s *Stream) awaitReply(ctx context.Context) error {
	ep := s.mux.ep
	m, err := ep.AwaitReply(ctx, s.id)
	switch {
	case errors.Is(err, errNoRequest):
		return nil // a Read took the reply, the send failed or Reset ended the call: s says which
	case errors.Is(err, ErrClosed):
		ep.EndRequest(s.id)
		s.fail(err)
		return nil
	case err != nil:
		return err // the call stands: a later Read may still get its reply
	}
	ep.EndRequest(s.id)
	status, body := decodeReply(m.Payload)
	s.mu.Lock()
	defer s.mu.Unlock()
	switch status {
	case callOK:
		s.body = body
	case callDraining:
		s.failLocked(fmt.Errorf("%w: %w", ErrStreamReset, ErrDraining))
	default:
		s.failLocked(fmt.Errorf("%w: %s", ErrStreamReset, body))
	}
	return nil
}

// Write appends p to the message the call sends at CloseWrite: the
// request on the opener, the reply on the acceptor.
func (s *Stream) Write(ctx context.Context, p []byte) error {
	if err := ctx.Err(); err != nil {
		return ctxErr(ctx)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.err != nil:
		return s.err
	case s.opened && s.mux.closed.Load():
		return ErrClosed
	case s.enc == nil:
		return fmt.Errorf("%w: write after CloseWrite", ErrStreamReset)
	}
	s.enc.PutRaw(p)
	return nil
}

// CloseWrite sends what Write appended: the opener's request, or the
// acceptor's answer. It returns once the endpoint has the message; a
// refusal fails the call. A second CloseWrite does nothing.
func (s *Stream) CloseWrite() error {
	s.mu.Lock()
	if err := s.err; err != nil {
		s.mu.Unlock()
		return err
	}
	enc := s.enc
	s.enc = nil
	if enc != nil && s.opened {
		// Registered under s.mu: a Read that finds the request gone finds
		// its ID set, and waits for the reply or for the send to fail.
		s.req = pendingRequest{peer: s.peer, owner: s.mux}
		id, err := s.mux.ep.register(&s.req)
		if err != nil {
			s.failLocked(err)
			s.mu.Unlock()
			putFrameEncoder(enc)
			return err
		}
		s.id = id
		binary.BigEndian.PutUint64(enc.Bytes(), id)
	}
	s.mu.Unlock()
	if enc == nil {
		return nil
	}
	return s.send(enc)
}

// send hands a built message to the endpoint and recycles its encoder:
// the opener's request, marked as expecting a reply, or the acceptor's
// reply. A refusal fails the call, and an opener stops waiting.
func (s *Stream) send(enc *xdr.Encoder) error {
	ep := s.mux.ep
	var err error
	if s.opened {
		err = ep.SendRequest(s.peer, StreamTag, enc.Bytes())
	} else {
		err = ep.Send(s.peer, ReplyTag, enc.Bytes())
	}
	putFrameEncoder(enc) // the endpoint copied the payload
	if err == nil {
		return nil
	}
	s.mux.mSendFailures.Inc()
	err = fmt.Errorf("%w: sending to %s: %w", ErrStreamReset, s.peer, err)
	s.fail(err)
	if s.opened {
		ep.EndRequest(s.id) // after fail: a waiting Read finds the cause
	}
	return err
}

// finish answers an accepted call with a failure status and reason
// instead of what Write appended, unless the answer has left.
func (s *Stream) finish(status uint8, reason string) {
	s.mu.Lock()
	enc := s.enc
	s.enc = nil
	s.mu.Unlock()
	if enc == nil {
		return
	}
	enc.Truncate(replyHeaderSize - 1)
	enc.PutUint8(status)
	enc.PutRaw([]byte(reason))
	_ = s.send(enc) // a refusal is counted; the opener's timeout covers it
}

// Reset abandons the call with the given reason. An opener stops waiting
// for the reply, and one that arrives later is dropped; an acceptor that
// has not answered yet answers with the failure.
func (s *Stream) Reset(reason string) {
	if !s.opened {
		s.finish(callFailed, reason)
	}
	s.mu.Lock()
	s.failLocked(fmt.Errorf("%w: %s (local)", ErrStreamReset, reason))
	enc, id := s.enc, s.id
	s.enc = nil
	s.mu.Unlock()
	if enc != nil {
		putFrameEncoder(enc) // a request never sent
	}
	if s.opened && id != 0 {
		s.mux.ep.EndRequest(id)
	}
}

// fail records err as the call's failure, unless it has one.
func (s *Stream) fail(err error) {
	s.mu.Lock()
	s.failLocked(err)
	s.mu.Unlock()
}

func (s *Stream) failLocked(err error) {
	if s.err == nil {
		s.err = err
	}
}

// --- wire encoding -------------------------------------------------------

// decodeRequest splits a request payload into its ID, method and body.
// The body aliases the payload, capped at its length.
func decodeRequest(p []byte) (id uint64, method string, body []byte, err error) {
	var d xdr.Decoder
	d.Reset(p)
	if id, err = d.Uint64(); err != nil {
		return 0, "", nil, err
	}
	if method, err = d.StringMax(maxWireURN); err != nil {
		return 0, "", nil, err
	}
	body = p[d.Offset():]
	return id, method, body[:len(body):len(body)], nil
}

// decodeReply splits a reply payload past its ID into its status and
// body. A reply too short to hold a status, or with a status this build
// does not know, reads as a failure whose reason says so.
func decodeReply(p []byte) (status uint8, body []byte) {
	if len(p) < replyHeaderSize {
		return callFailed, []byte("malformed reply")
	}
	if status = p[8]; status > callOverloaded {
		return callFailed, fmt.Appendf(nil, "reply status %d", status)
	}
	return status, p[replyHeaderSize:]
}
