package comm

import (
	"context"
	"testing"
	"time"

	"snipe/internal/testutil"
	"snipe/internal/xdr"
)

// Timeout-flavoured conveniences over the context-first Endpoint API,
// so tests can say "within d" without building a context at every call
// site. (The production timeout-signature wrappers were removed once
// snipe-lint's ctxfirst barred new callers.)

func recvT(e *Endpoint, d time.Duration) (*Message, error) {
	return recvMatchT(e, "", AnyTag, d)
}

func recvMatchT(e *Endpoint, src string, tag uint32, d time.Duration) (*Message, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return e.RecvMatch(ctx, src, tag)
}

func sendWaitT(e *Endpoint, dst string, tag uint32, payload []byte, d time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return e.SendWait(ctx, dst, tag, payload)
}

// waitFor is testutil.WaitFor under the package-local name the comm
// tests grew up with.
func waitFor(t testing.TB, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	testutil.WaitFor(t, d, cond, msg)
}

// orderRoutesAdaptive is the ranking the send path uses, in the shape
// the ordering tests were written against: plain routes in, plain
// routes out.
func (e *Endpoint) orderRoutesAdaptive(local, remote []Route) []Route {
	var out []Route
	for _, r := range e.rankRoutes(local, newRouteSet(remote), nil) {
		out = append(out, r.Route)
	}
	return out
}

// fragment splits a message into all its fragments at mtu payload bytes
// each, as the tests' reassembly fixtures want them; the send paths cut
// one fragAt value at a time instead.
func fragment(src, dst string, tag uint32, seq uint64, payload []byte, mtu int, flags uint8) []*msgFrame {
	if mtu <= 0 {
		mtu = 1 << 16
	}
	m := Message{Src: src, Dst: dst, Tag: tag, Seq: seq, Payload: payload}
	backing := make([]msgFrame, fragCount(len(payload), mtu))
	frames := make([]*msgFrame, len(backing))
	for i := range backing {
		backing[i] = fragAt(&m, i, len(backing), mtu, flags)
		frames[i] = &backing[i]
	}
	return frames
}

// encodeFragAck builds a right-sized single per-fragment ack frame; the
// endpoint only ever appends them to its coalescer's encoder (putFragAck).
func encodeFragAck(src, dst string, seq uint64, fragIdx uint32) []byte {
	e := xdr.NewEncoder(ackFrameOverhead + 4 + len(src) + len(dst))
	putFragAck(e, src, dst, seq, fragIdx)
	return e.Bytes()
}
