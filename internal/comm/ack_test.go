package comm

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// TestAckFlushBatchesParkedAcks: acks parked for replies that have not
// been written leave together with the next ack that may not wait, in
// one batch frame, and retire every message they acknowledge.
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
