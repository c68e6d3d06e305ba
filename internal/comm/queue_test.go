package comm

import (
	"context"
	"testing"
	"time"
)

// TestDeliveryQueuesReleaseMessages: once a delivered message has been
// consumed, neither delivery queue may keep it reachable. The handler
// queue used to pop with q = q[1:] and the mailbox to remove with
// append(q[:i], q[i+1:]...); both left the consumed *Message (and its
// payload — 256 KiB on the bulk workload) in the backing array until a
// later append happened to reallocate it.
func TestDeliveryQueuesReleaseMessages(t *testing.T) {
	const n, size = 24, 64 << 10
	const handled, mailedA, mailedB = 1, 2, 3
	res := newTestResolver()
	seen := make(chan struct{}, n)
	gate := make(chan struct{}) // holds the handler until every message is queued behind it
	sink := newTestEndpoint(t, "urn:snipe:q-sink", res,
		WithHandler(func(*Message) { <-gate; seen <- struct{}{} }, handled))
	src := newTestEndpoint(t, "urn:snipe:q-src", res)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	payload := make([]byte, size)
	// Queue everything before anything is consumed, so both backing
	// arrays have held (nearly) all n messages at once.
	for i := 0; i < n; i++ {
		for _, tag := range []uint32{handled, mailedA + uint32(i%2)} {
			if err := src.SendWait(ctx, sink.URN(), tag, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(gate)
	for i := 0; i < n; i++ {
		<-seen
		// The B messages first: RecvMatch removes them from between the As.
		if _, err := sink.RecvMatch(ctx, src.URN(), mailedB-uint32(i*2/n)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool {
		sink.mu.Lock()
		defer sink.mu.Unlock()
		return sink.handlerQueue.len() == 0 && len(sink.mailbox) == 0
	}, "queues drained")

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if cap(sink.handlerQueue.buf) == 0 || cap(sink.mailbox) == 0 {
		t.Fatal("a queue never held a message: the test exercised nothing")
	}
	for i, it := range sink.handlerQueue.buf[:cap(sink.handlerQueue.buf)] {
		if it.m != nil || it.parts != nil {
			t.Errorf("handler queue slot %d still holds a delivered message", i)
		}
	}
	for i, m := range sink.mailbox[:cap(sink.mailbox)] {
		if m != nil {
			t.Errorf("mailbox slot %d still holds a received message (seq %d)", i, m.Seq)
		}
	}
}

// TestMsgQueueReusesArray: a queue that never quite drains must not
// grow without bound; when it is full and has a vacated prefix, the
// live entries slide down and the array is reused.
func TestMsgQueueReusesArray(t *testing.T) {
	var q msgQueue
	msgs := make([]*Message, 1000)
	for i := range msgs {
		msgs[i] = &Message{Seq: uint64(i)}
	}
	q.push(msgs[0], nil)
	for i := 1; i < len(msgs); i++ {
		q.push(msgs[i], nil) // two queued
		if got := q.peek().m; got != msgs[i-1] {
			t.Fatalf("pop %d: seq %d, want %d", i, got.Seq, i-1)
		}
		q.pop()
	}
	if c := cap(q.buf); c > 8 {
		t.Fatalf("a queue holding at most 2 messages grew to %d slots", c)
	}
	if q.len() != 1 || q.peek().m != msgs[len(msgs)-1] {
		t.Fatal("queue lost or reordered its last message")
	}
	if q.pop(); q.len() != 0 {
		t.Fatal("queue kept its last message")
	}
	for i, it := range q.buf[:cap(q.buf)] {
		if it.m != nil {
			t.Errorf("slot %d not cleared", i)
		}
	}
}
