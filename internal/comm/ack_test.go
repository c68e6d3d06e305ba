package comm

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestAckFlushBatchesParkedAcks: acks parked for replies that have not
// been written leave together with the next ack that may not wait, in
// one ack frame, and retire every message they acknowledge.
func TestAckFlushBatchesParkedAcks(t *testing.T) {
	a, b, _ := owedAckPair(t)
	const parked = 5
	for i := 0; i < parked; i++ {
		sendExpectingReply(t, a, "urn:owed:b", []byte(fmt.Sprint("request ", i)))
	}
	waitFor(t, 3*time.Second, func() bool { return counters(b, "acks_deferred")[0] == parked }, "the acks were not parked")
	if err := a.Send("urn:owed:b", 9, []byte("no reply expected")); err != nil {
		t.Fatal(err)
	}
	wantQuietDelivery(t, a, b)
	names := []string{"ack_batches", "acks_batched", "ack_frames", "acks_piggybacked"}
	if got, want := counters(b, names...), []uint64{1, parked + 1, 0, 0}; !slices.Equal(got, want) {
		t.Errorf("%v = %v, want %v", names, got, want)
	}
}

// ackLogConn is an inboxConn that keeps a copy of every frame sent.
type ackLogConn struct {
	*inboxConn
	mu     sync.Mutex
	frames [][]byte
}

func (c *ackLogConn) Send(frame []byte) error {
	c.mu.Lock()
	c.frames = append(c.frames, slices.Clone(frame))
	c.mu.Unlock()
	return nil
}

// TestAckFlushSendsAFramePerPair: acks pending for two (src, dst) pairs
// (a gateway that relays onto a connection carries more than one) leave
// at the flush in one frame per pair, each naming its pair once.
func TestAckFlushSendsAFramePerPair(t *testing.T) {
	e := NewEndpoint("urn:acker", withAckFlush(time.Hour))
	defer e.Close()
	conn := &ackLogConn{inboxConn: newInboxConn()}
	defer conn.Close()
	a := newAckCoalescer(e, conn)
	defer a.stop()
	for _, r := range []ackRef{{"urn:s1", "urn:d", 1}, {"urn:s2", "urn:d", 7}, {"urn:s1", "urn:d", 2}} {
		a.add(r, false)
	}
	a.flush()
	want := [][]byte{ackFrame("urn:s1", "urn:d", 1, 2), ackFrame("urn:s2", "urn:d", 7)}
	conn.mu.Lock()
	got := conn.frames
	conn.mu.Unlock()
	if !slices.EqualFunc(got, want, bytes.Equal) {
		t.Fatalf("flush sent %x, want %x", got, want)
	}
	names := []string{"ack_frames", "ack_batches", "acks_batched"}
	if c, want := counters(e, names...), []uint64{1, 1, 2}; !slices.Equal(c, want) {
		t.Errorf("%v = %v, want %v", names, c, want)
	}
}
