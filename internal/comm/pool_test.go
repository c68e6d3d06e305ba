package comm

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

func TestPayloadClassFor(t *testing.T) {
	cases := []struct {
		n    int
		want int
	}{
		{0, 0},
		{1, 0},
		{4 << 10, 0},
		{4<<10 + 1, 1},
		{tcpFragmentSize, 1},
		{tcpFragmentSize + 1024, 1},
		{tcpFragmentSize + 1025, 2},
		{unixFragmentSize + 1024, 2},
		{unixFragmentSize + 1025, 3},
		{maxWireFrame, 3},
		{maxWireFrame + 1, 4},
		{maxPooledPayload, 4},
		{maxPooledPayload + 1, -1},
	}
	for _, c := range cases {
		if got := payloadClassFor(c.n); got != c.want {
			t.Errorf("payloadClassFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPayloadPoolRoundTrip(t *testing.T) {
	for _, n := range []int{1, 100, 4 << 10, tcpFragmentSize, maxWireFrame, maxPooledPayload} {
		b := getPayloadBuf(n)
		if len(b) != n {
			t.Fatalf("getPayloadBuf(%d) len = %d", n, len(b))
		}
		if ci := payloadClassFor(n); ci >= 0 && cap(b) > payloadClasses[ci] {
			t.Fatalf("getPayloadBuf(%d) cap %d overshoots class %d", n, cap(b), payloadClasses[ci])
		}
		putPayloadBuf(b)
	}
	// Oversize buffers bypass the pool entirely.
	big := getPayloadBuf(maxPooledPayload + 1)
	if len(big) != maxPooledPayload+1 {
		t.Fatalf("oversize len = %d", len(big))
	}
	putPayloadBuf(big) // dropped, not pooled: must not panic
	putPayloadBuf(nil) // cap 0: ignored
}

// TestRecycledReceiveBufferNotVisibleToHandler is the buffer-reuse
// regression test for both sides of the delivery contract, with pooled
// receive and reassembly buffers churning under it. A payload lent to a
// handler stays intact until the handler returns, however long it takes
// and whatever a second sink reassembles meanwhile. A payload delivered
// to the mailbox is the receiver's for good: held while later messages
// are reassembled and handled, it still reads back as sent.
func TestRecycledReceiveBufferNotVisibleToHandler(t *testing.T) {
	res := newTestResolver()
	const tagHandled, tagKept = 1, 2
	pattern := func(idx, n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(idx*31 + i*7)
		}
		return p
	}
	const nMsgs = 20
	size := 3*tcpFragmentSize + 17
	handled := make(chan error, nMsgs)
	next := 0 // handler calls are serialized per endpoint
	sink := newTestEndpoint(t, "urn:zc-sink", res, WithHandler(func(m *Message) {
		want := pattern(next, size)
		next++
		if !bytes.Equal(m.Payload, want) {
			handled <- fmt.Errorf("handled payload %d wrong on arrival", next-1)
			return
		}
		time.Sleep(5 * time.Millisecond) // the churn sink reassembles meanwhile
		if !bytes.Equal(m.Payload, want) {
			handled <- fmt.Errorf("handled payload %d recycled before its handler returned", next-1)
			return
		}
		handled <- nil
	}, tagHandled))
	newTestEndpoint(t, "urn:zc-churn", res, WithHandler(func(*Message) {}))
	a := newTestEndpoint(t, "urn:zc-src", res)
	b := newTestEndpoint(t, "urn:zc-churner", res)

	churnDone := make(chan struct{})
	defer func() { <-churnDone }() // before the endpoints close, on every path
	go func() {
		defer close(churnDone)
		for i := 0; i < 2*nMsgs; i++ {
			if err := sendWaitT(b, "urn:zc-churn", 0, pattern(1000+i, size), 10*time.Second); err != nil {
				t.Errorf("churn %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < nMsgs; i++ {
		if err := sendWaitT(a, "urn:zc-sink", tagKept, pattern(500+i, size), 10*time.Second); err != nil {
			t.Fatalf("kept %d: %v", i, err)
		}
		if err := sendWaitT(a, "urn:zc-sink", tagHandled, pattern(i, size), 10*time.Second); err != nil {
			t.Fatalf("handled %d: %v", i, err)
		}
	}
	for i := 0; i < nMsgs; i++ {
		select {
		case err := <-handled:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("only %d/%d handled", i, nMsgs)
		}
	}
	<-churnDone
	for i := 0; i < nMsgs; i++ {
		m, err := recvMatchT(sink, "", tagKept, 3*time.Second)
		if err != nil {
			t.Fatalf("kept %d: %v", i, err)
		}
		if !bytes.Equal(m.Payload, pattern(500+i, size)) {
			t.Fatalf("mailbox payload %d recycled while the receiver held it", i)
		}
	}
}

// TestLentPayloadPoisoned: in a race build a handler that keeps m.Payload
// past its return finds it overwritten — the enforcement of the
// WithHandler contract, for a single-fragment (right-sized copy) and a
// reassembled (pooled) payload alike.
func TestLentPayloadPoisoned(t *testing.T) {
	if !raceEnabled {
		t.Skip("lent payloads are poisoned only in race builds")
	}
	res := newTestResolver()
	const tagKeep, tagSync = 1, 2
	kept := make(chan []byte, 1)
	synced := make(chan struct{}, 1)
	newTestEndpoint(t, "urn:poison-sink", res, WithHandler(func(m *Message) {
		if m.Tag == tagKeep {
			kept <- m.Payload // the violation under test
			return
		}
		synced <- struct{}{}
	}))
	a := newTestEndpoint(t, "urn:poison-src", res)
	for _, size := range []int{64, 3*tcpFragmentSize + 17} {
		if err := sendWaitT(a, "urn:poison-sink", tagKeep, bytes.Repeat([]byte{0x11}, size), 10*time.Second); err != nil {
			t.Fatal(err)
		}
		p := <-kept
		// The dispatch loop reclaims the kept payload before it hands
		// over the next message; a single-fragment one draws no pooled
		// buffer that could be the kept one.
		if err := sendWaitT(a, "urn:poison-sink", tagSync, []byte("sync"), 10*time.Second); err != nil {
			t.Fatal(err)
		}
		<-synced
		if len(p) != size || bytes.Count(p, []byte{poisonByte}) != size {
			t.Fatalf("%d B payload kept past its handler is not poisoned", size)
		}
	}
}

// TestBusyHandlerLendsOneBufferAtATime: a reassembled message that
// finds the handler idle is assembled at once into a pooled buffer;
// ones that arrive while it is busy wait in their receive buffers and
// are assembled in turn, so however far the handler falls behind, the
// endpoint lends one pooled buffer at a time. Every handler call still
// sees its whole payload, in a pooled buffer.
func TestBusyHandlerLendsOneBufferAtATime(t *testing.T) {
	res := newTestResolver()
	const n = 4
	size := 3*tcpFragmentSize + 17
	class := payloadClasses[payloadClassFor(size)]
	gate := make(chan struct{})
	errs := make(chan error, n)
	next := 0 // handler calls are serialized per endpoint
	sink := newTestEndpoint(t, "urn:busy-sink", res, WithHandler(func(m *Message) {
		if next == 0 {
			<-gate
		}
		i := next
		next++
		switch {
		case !bytes.Equal(m.Payload, bytes.Repeat([]byte{byte(i + 1)}, size)):
			errs <- fmt.Errorf("payload %d wrong", i)
		case cap(m.Payload) < class:
			errs <- fmt.Errorf("payload %d in a %d B buffer, want a pooled one of %d", i, cap(m.Payload), class)
		default:
			errs <- nil
		}
	}))
	src := newTestEndpoint(t, "urn:busy-src", res)
	released := false
	defer func() {
		if !released {
			close(gate)
		}
	}()
	for i := 0; i < n; i++ {
		if err := sendWaitT(src, sink.URN(), 1, bytes.Repeat([]byte{byte(i + 1)}, size), 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Every message is acknowledged, so every one is queued: the first
	// in the blocked handler, the rest unassembled behind it.
	sink.mu.Lock()
	queued, unassembled := sink.handlerQueue.len(), 0
	for _, it := range sink.handlerQueue.buf[sink.handlerQueue.head:] {
		if it.parts != nil {
			unassembled++
		}
	}
	sink.mu.Unlock()
	close(gate)
	released = true
	if queued != n || unassembled != n-1 {
		t.Errorf("%d queued, %d of them unassembled; want %d and %d", queued, unassembled, n, n-1)
	}
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d handled", i, n)
		}
	}
}

// TestMailboxReassembledPayloadIsRightSized: a reassembled message for
// the mailbox — at an endpoint with no handler, or with a tag its
// handler does not take — is the receiver's for good, so it gets a
// buffer of exactly its size: no pooled size-class buffer is pinned
// for as long as the receiver keeps the message.
func TestMailboxReassembledPayloadIsRightSized(t *testing.T) {
	res := newTestResolver()
	size := 3*tcpFragmentSize + 17
	plain := newTestEndpoint(t, "urn:mbox-plain", res)
	handled := newTestEndpoint(t, "urn:mbox-handled", res, WithHandler(func(*Message) {}, 1))
	src := newTestEndpoint(t, "urn:mbox-src", res)
	want := bytes.Repeat([]byte{0x5a}, size)
	for _, dst := range []*Endpoint{plain, handled} {
		if err := sendWaitT(src, dst.URN(), 2, want, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		m, err := recvT(dst, 3*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m.Payload, want) || cap(m.Payload) != len(m.Payload) {
			t.Errorf("%s: %d B payload in a %d B buffer (intact %v), want a right-sized copy",
				dst.URN(), len(m.Payload), cap(m.Payload), bytes.Equal(m.Payload, want))
		}
	}
}

// TestReassemblyReleaseRecyclesBacking checks the reassembly's
// ownership bookkeeping directly: parked buffers are recycled exactly
// once, on completion or release, and duplicates are never retained.
func TestReassemblyReleaseRecyclesBacking(t *testing.T) {
	frames := fragment("s", "d", 1, 1, bytes.Repeat([]byte{0xaa}, 300), 100, 0)
	if len(frames) != 3 {
		t.Fatalf("fragment count = %d", len(frames))
	}
	r := newReassembly(frames[0].FragCount, 1, "d")
	// Park two fragments with pooled backings.
	for i := 0; i < 2; i++ {
		buf := getPayloadBuf(len(frames[i].Payload))
		copy(buf, frames[i].Payload)
		frames[i].Payload = buf
		complete, retained, err := r.add(frames[i], buf)
		if complete || !retained || err != nil {
			t.Fatalf("park %d: complete=%v retained=%v err=%v", i, complete, retained, err)
		}
	}
	// A duplicate is not retained: caller keeps ownership.
	dupBuf := getPayloadBuf(len(frames[0].Payload))
	dup := *frames[0]
	dup.Payload = dupBuf
	if _, retained, err := r.add(&dup, dupBuf); retained || err != nil {
		t.Fatalf("duplicate: retained=%v err=%v", retained, err)
	}
	putPayloadBuf(dupBuf)
	// Abandon: release must nil out and recycle both parked backings.
	r.release()
	for i := range r.frags {
		if r.frags[i].buf != nil || r.frags[i].payload != nil {
			t.Fatalf("release left fragment %d parked", i)
		}
	}
	// Assembly copies into the caller's buffer and recycles the backings.
	r2 := newReassembly(2, 0, "d")
	f2 := fragment("s", "d", 0, 2, []byte("ab"), 1, 0)
	var out []byte
	for _, f := range f2 {
		buf := getPayloadBuf(len(f.Payload))
		copy(buf, f.Payload)
		f.Payload = buf
		complete, _, err := r2.add(f, buf)
		if err != nil {
			t.Fatal(err)
		}
		if complete {
			out = r2.assemble(make([]byte, 8))
		}
	}
	if string(out) != "ab" {
		t.Fatalf("assembled %q", out)
	}
	for i := range r2.frags {
		if r2.frags[i].buf != nil {
			t.Fatalf("assembly left backing %d unrecycled", i)
		}
	}
}
