package comm

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// reply is a ReplyTag payload answering id: the ID, then body.
func reply(id uint64, body string) []byte {
	return append(binary.BigEndian.AppendUint64(nil, id), body...)
}

func awaitReplyT(e *Endpoint, id uint64, d time.Duration) (*Message, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return e.AwaitReply(ctx, id)
}

// TestLateReplyIsDropped: a reply that arrives after its caller gave up
// is not returned by a later Recv or to a later request, and does not
// stay in the mailbox a migrating task's snapshot carries.
func TestLateReplyIsDropped(t *testing.T) {
	res := newTestResolver()
	a := newTestEndpoint(t, "urn:a", res)
	b := newTestEndpoint(t, "urn:b", res)

	id := a.NewRequest("urn:b")
	if _, err := awaitReplyT(a, id, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want timeout, got %v", err)
	}
	a.EndRequest(id)
	next := a.NewRequest("urn:b")
	defer a.EndRequest(next)
	if err := sendWaitT(b, "urn:a", ReplyTag, reply(id, "late"), 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if m, err := recvT(a, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Recv after the late reply: %+v, %v", m, err)
	}
	if m, err := awaitReplyT(a, next, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("a later request took the late reply: %+v, %v", m, err)
	}
	if mb := a.SnapshotSequences().Mailbox; len(mb) != 0 {
		t.Fatalf("mailbox keeps %d messages", len(mb))
	}
}

// TestRepliesReachTheirCallers: requests in flight at once on one
// endpoint each get their own replies, several per ID in order, whatever
// order the peer answers in, and a reply of many fragments whole; a
// reply from a peer the request was not sent to is dropped; and a
// handler that takes every tag sees none of them.
func TestRepliesReachTheirCallers(t *testing.T) {
	res := newTestResolver()
	handled := make(chan uint32, 16)
	a := newTestEndpoint(t, "urn:a", res, WithHandler(func(m *Message) { handled <- m.Tag }))
	b := newTestEndpoint(t, "urn:b", res)
	c := newTestEndpoint(t, "urn:c", res)

	const calls = 8
	ids := make([]uint64, calls)
	for i := range ids {
		ids[i] = a.NewRequest("urn:b")
	}
	if err := sendWaitT(c, "urn:a", ReplyTag, reply(ids[0], "foreign"), 3*time.Second); err != nil {
		t.Fatal(err)
	}
	for i := calls - 1; i >= 0; i-- {
		for part := 0; part < 2; part++ {
			if err := b.Send("urn:a", ReplyTag, reply(ids[i], fmt.Sprintf("%d.%d", i, part))); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer a.EndRequest(id)
			for part := 0; part < 2; part++ {
				m, err := awaitReplyT(a, id, 3*time.Second)
				if err != nil {
					t.Errorf("request %d: %v", i, err)
					return
				}
				if got, want := string(m.Payload[8:]), fmt.Sprintf("%d.%d", i, part); got != want {
					t.Errorf("request %d got %q, want %q", i, got, want)
				}
			}
		}()
	}
	wg.Wait()
	big := a.NewRequest("urn:b")
	defer a.EndRequest(big)
	body := strings.Repeat("r", 300<<10) // many fragments
	if err := b.Send("urn:a", ReplyTag, reply(big, body)); err != nil {
		t.Fatal(err)
	}
	if m, err := awaitReplyT(a, big, 3*time.Second); err != nil || string(m.Payload[8:]) != body {
		t.Fatalf("fragmented reply: %v", err)
	}
	select {
	case tag := <-handled:
		t.Fatalf("handler saw tag %#x", tag)
	default:
	}
}
