package comm

import (
	"context"
	"encoding/binary"
	"errors"
)

// Request and reply (DESIGN "Request and reply"): a reply travels under
// ReplyTag with the ID of the request it answers in its first 8 bytes
// (big-endian, as xdr writes a uint64), and waits beside the mailbox,
// never in it, for the caller that registered that ID.

// ReplyTag is the reserved message tag carrying replies. Applications
// must not send their own messages under it, and a handler never sees it.
const ReplyTag uint32 = ^uint32(0) - 2

// errNoRequest is AwaitReply on an ID that is not registered.
var errNoRequest = errors.New("comm: no such request")

// pendingRequest is one registered request: the peer whose replies it
// takes, those that have arrived and not been taken, and why it ended
// before its reply came.
type pendingRequest struct {
	peer    string
	owner   *StreamMux // whose Close fails it; nil for a NewRequest caller's
	replies []*Message
	first   [1]*Message // replies' backing until a second reply queues behind the first
	err     error
	// wake is made by the first AwaitReply that has to wait: a reply or
	// a failure leaves a token in it, and EndRequest closes it.
	wake chan struct{}
}

// signal wakes one AwaitReply of p, if any waits. Caller holds e.mu.
func (p *pendingRequest) signal() {
	select {
	case p.wake <- struct{}{}:
	default: // nobody waits (nil channel), or a token is already there
	}
}

// NewRequest returns a request ID fresh on e, registered for replies from
// peer until EndRequest.
func (e *Endpoint) NewRequest(peer string) uint64 {
	id, _ := e.register(&pendingRequest{peer: peer})
	return id
}

// register files p under a fresh ID. A request of a closed mux is
// refused: the check is under e.mu, as is the mux's Close, so a request
// is either refused here or failed there.
func (e *Endpoint) register(p *pendingRequest) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if p.owner != nil && p.owner.closed.Load() {
		return 0, ErrClosed
	}
	if e.requests == nil {
		e.requests = make(map[uint64]*pendingRequest)
	}
	e.lastRequest++
	p.replies = p.first[:0]
	e.requests[e.lastRequest] = p
	return e.lastRequest, nil
}

// SendRequest sends a request whose reply (see AwaitReply) will leave the
// peer soon: the message is marked so that the peer's endpoint may carry
// its acknowledgement in that reply rather than in an ack frame of its own.
func (e *Endpoint) SendRequest(dst string, tag uint32, payload []byte) error {
	_, err := e.send(dst, tag, payload, flagReplyExpected)
	return err
}

// AwaitReply returns the next reply to request id, waiting until ctx ends.
func (e *Endpoint) AwaitReply(ctx context.Context, id uint64) (*Message, error) {
	for {
		m, wake, err := e.takeReply(ctx, id)
		if wake == nil {
			return m, err
		}
		select {
		case <-wake:
		case <-ctx.Done():
		case <-e.done:
		}
	}
}

// takeReply returns the next reply to id, or why there is none, or else
// the channel to wait on for one.
func (e *Endpoint) takeReply(ctx context.Context, id uint64) (*Message, chan struct{}, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	p := e.requests[id]
	switch {
	case p == nil:
		return nil, nil, errNoRequest
	case len(p.replies) > 0:
		m := p.replies[0]
		p.replies[0] = nil
		p.replies = p.replies[1:]
		return m, nil, nil
	case p.err != nil:
		return nil, nil, p.err
	case e.closed.Load():
		return nil, nil, ErrClosed
	case ctx.Err() != nil:
		return nil, nil, ctxErr(ctx)
	}
	if p.wake == nil {
		p.wake = make(chan struct{}, 1)
	}
	return nil, p.wake, nil
}

// EndRequest retires id: replies queued for it are dropped, and so is
// any that arrives later.
func (e *Endpoint) EndRequest(id uint64) {
	e.mu.Lock()
	if p := e.requests[id]; p != nil {
		delete(e.requests, id)
		if p.wake != nil {
			close(p.wake) // every waiter finds the request gone
		}
	}
	e.mu.Unlock()
}

// closeMux marks m closed and fails its registered requests with
// ErrClosed, waking their callers.
func (e *Endpoint) closeMux(m *StreamMux) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if m.closed.Swap(true) {
		return false
	}
	for _, p := range e.requests {
		if p.owner == m {
			p.err = ErrClosed
			p.signal()
		}
	}
	return true
}

// deliverReplyLocked queues m for the request it answers, or drops it
// when no caller holds that ID for m's sender. Caller holds e.mu.
func (e *Endpoint) deliverReplyLocked(m *Message) {
	if len(m.Payload) < 8 {
		return
	}
	if p := e.requests[binary.BigEndian.Uint64(m.Payload)]; p != nil && p.peer == m.Src {
		p.replies = append(p.replies, m)
		p.signal()
	}
}
