package comm

import (
	"context"
	"testing"
	"time"

	"snipe/internal/testutil"
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
