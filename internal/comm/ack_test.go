package comm

import (
	"bytes"
	"testing"
	"time"
)

// TestAckCoalescingBatchesFragAcks drives a striped transfer with a
// flush window wide enough to span several fragment arrivals, and
// checks the receiver actually emitted batch frames — and that the
// sender still saw every per-fragment acknowledgement despite the
// batching.
func TestAckCoalescingBatchesFragAcks(t *testing.T) {
	a, b, _, _ := stripePair(t, withAckFlush(25*time.Millisecond))
	payload := patternPayload(7, 2<<20)
	if err := sendWaitT(a, "urn:stripe:b", 1, payload, 30*time.Second); err != nil {
		t.Fatalf("striped send: %v", err)
	}
	m, err := recvT(b, 10*time.Second)
	if err != nil || !bytes.Equal(m.Payload, payload) {
		t.Fatalf("recv: err=%v len=%d", err, len(m.Payload))
	}
	snap := b.MetricsSnapshot()
	if snap.Counters["ack_batches"] == 0 {
		t.Fatalf("no batched ack frames emitted: %+v", snap.Counters)
	}
	if snap.Counters["acks_batched"] < 2*snap.Counters["ack_batches"] {
		t.Fatalf("batches carried under two acks on average: %d acks in %d batches",
			snap.Counters["acks_batched"], snap.Counters["ack_batches"])
	}
	// Wait for the drain: the sender must account every fragment the
	// receiver acknowledged, whether it arrived batched or alone.
	waitFor(t, 5*time.Second, func() bool { return a.Pending() == 0 }, "sender not drained")
	if got := a.MetricsSnapshot().Counters["frag_acks"]; got == 0 {
		t.Fatal("sender processed no per-fragment acks")
	}
}
