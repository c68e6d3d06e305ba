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

// TestRecycledReceiveBufferNotVisibleToHandler is the zero-copy
// regression test: with pooled receive buffers flowing through
// reassembly, a payload delivered to an application handler must never
// alias a buffer the pool has recycled into a later frame. The handler
// holds every delivered payload while fresh traffic churns the pool;
// any aliasing corrupts a held payload (and trips -race).
func TestRecycledReceiveBufferNotVisibleToHandler(t *testing.T) {
	res := newTestResolver()
	type held struct {
		idx     int
		payload []byte
	}
	heldCh := make(chan held, 256)
	pattern := func(idx, n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(idx*31 + i*7)
		}
		return p
	}
	newTestEndpoint(t, "urn:zc-sink", res, WithHandler(func(m *Message) {
		heldCh <- held{int(m.Tag), m.Payload}
	}))
	a := newTestEndpoint(t, "urn:zc-src", res)

	// Multi-fragment messages exercise the reassembly parking path;
	// interleaved small messages churn the same pool classes.
	const nMsgs = 40
	size := 3*tcpFragmentSize + 17
	go func() {
		for i := 0; i < nMsgs; i++ {
			if err := sendWaitT(a, "urn:zc-sink", uint32(i), pattern(i, size), 10*time.Second); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			a.Send("urn:zc-sink", uint32(nMsgs+i), []byte(fmt.Sprintf("churn-%d", i)))
		}
	}()

	var kept []held
	deadline := time.After(30 * time.Second)
	for len(kept) < 2*nMsgs {
		select {
		case h := <-heldCh:
			kept = append(kept, h)
		case <-deadline:
			t.Fatalf("only %d/%d messages delivered", len(kept), 2*nMsgs)
		}
	}
	// Every held payload must still read back exactly as sent, however
	// much pool churn happened since its delivery.
	for _, h := range kept {
		if h.idx < nMsgs {
			if !bytes.Equal(h.payload, pattern(h.idx, size)) {
				t.Fatalf("held payload %d corrupted by buffer recycling", h.idx)
			}
		} else {
			want := fmt.Sprintf("churn-%d", h.idx-nMsgs)
			if string(h.payload) != want {
				t.Fatalf("held payload %d = %q, want %q", h.idx, h.payload, want)
			}
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
		payload, retained, err := r.add(frames[i], buf)
		if payload != nil || !retained || err != nil {
			t.Fatalf("park %d: payload=%v retained=%v err=%v", i, payload != nil, retained, err)
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
	// Completion recycles automatically and returns a fresh payload.
	r2 := newReassembly(2, 0, "d")
	f2 := fragment("s", "d", 0, 2, []byte("ab"), 1, 0)
	var out []byte
	for _, f := range f2 {
		buf := getPayloadBuf(len(f.Payload))
		copy(buf, f.Payload)
		f.Payload = buf
		payload, _, err := r2.add(f, buf)
		if err != nil {
			t.Fatal(err)
		}
		if payload != nil {
			out = payload
		}
	}
	if string(out) != "ab" {
		t.Fatalf("assembled %q", out)
	}
	for i := range r2.frags {
		if r2.frags[i].buf != nil {
			t.Fatalf("completion left backing %d unrecycled", i)
		}
	}
}
