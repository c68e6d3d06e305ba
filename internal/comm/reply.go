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
// takes, and those that have arrived and not been taken.
type pendingRequest struct {
	peer    string
	replies []*Message
}

// NewRequest returns a request ID fresh on e, registered for replies from
// peer until EndRequest.
func (e *Endpoint) NewRequest(peer string) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.requests == nil {
		e.requests = make(map[uint64]*pendingRequest)
	}
	e.lastRequest++
	e.requests[e.lastRequest] = &pendingRequest{peer: peer}
	return e.lastRequest
}

// AwaitReply returns the next reply to request id, waiting until ctx ends.
func (e *Endpoint) AwaitReply(ctx context.Context, id uint64) (*Message, error) {
	var w ctxWaiter
	defer w.release()
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		p := e.requests[id]
		if p == nil {
			return nil, errNoRequest
		}
		if len(p.replies) > 0 {
			m := p.replies[0]
			p.replies = p.replies[1:]
			return m, nil
		}
		if e.closed.Load() {
			return nil, ErrClosed
		}
		if ctx.Err() != nil {
			return nil, ctxErr(ctx)
		}
		w.wait(ctx, e.cond)
	}
}

// EndRequest retires id: replies queued for it are dropped, and so is
// any that arrives later.
func (e *Endpoint) EndRequest(id uint64) {
	e.mu.Lock()
	delete(e.requests, id)
	e.mu.Unlock()
}

// deliverReplyLocked queues m for the request it answers, or drops it
// when no caller holds that ID for m's sender. Caller holds e.mu.
func (e *Endpoint) deliverReplyLocked(m *Message) {
	if len(m.Payload) < 8 {
		return
	}
	if p := e.requests[binary.BigEndian.Uint64(m.Payload)]; p != nil && p.peer == m.Src {
		p.replies = append(p.replies, m)
	}
}
