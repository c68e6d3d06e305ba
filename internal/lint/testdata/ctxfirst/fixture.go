// Package fixture exercises the ctxfirst analyzer. It lives under
// testdata so the go tool never builds it; only linttest does.
//
// Real methods on rcds.Client/comm.Endpoint can only be declared in
// their own packages, so the declaration rules are exercised through
// lookalike types here — the analyzer admits them via the
// snipe/lintfixture/ package-path prefix.
package fixture

import (
	"context"
	"time"

	"snipe/internal/comm"
	"snipe/internal/rcds"
)

func useEndpoint(ep *comm.Endpoint) {
	// The context-first API is the only one, and it is clean.
	_ = ep.SendWait(context.Background(), "peer", 1, nil)
	_, _ = ep.Recv(context.Background())
	_, _ = ep.RecvMatch(context.Background(), "peer", 1)
	_ = ep.MetricsSnapshot()
}

func useClient(c *rcds.Client) {
	_, _ = c.Ping(context.Background())
	_, _ = c.Get(context.Background(), "snipe://x")
	_, _, _ = c.FirstValue(context.Background(), "snipe://x", "addr")
}

// Client is a lookalike of rcds.Client for declaration-rule coverage.
type Client struct{}

// PingContext reintroduces the pre-consolidation name.
func (c *Client) PingContext(ctx context.Context) (string, error) { // want `reintroduces a deprecated \*Context name`
	return "", nil
}

// Get regresses to the old timeout signature (no leading context).
func (c *Client) Get(uri string) ([]string, error) { // want `must take a context.Context as its first parameter`
	return nil, nil
}

// WaitURI keeps the context-first shape: clean.
func (c *Client) WaitURI(ctx context.Context, uri string, since uint64, timeout time.Duration) (uint64, error) {
	return since, nil
}

// Fetch is outside the consolidated API set: a context-less signature
// on an unrelated method is fine.
func (c *Client) Fetch(uri string) error { return nil }

// Endpoint is a lookalike of comm.Endpoint.
type Endpoint struct{}

// SendWaitContext reintroduces the pre-consolidation name.
func (e *Endpoint) SendWaitContext(ctx context.Context, dst string, tag uint32, p []byte) error { // want `reintroduces a deprecated \*Context name`
	return nil
}

// RecvMatch regresses to a context-less signature.
func (e *Endpoint) RecvMatch(src string, tag uint32) error { // want `must take a context.Context as its first parameter`
	return nil
}

func useLookalikes(c *Client, e *Endpoint) {
	_, _ = c.PingContext(context.Background()) // want `call to deprecated Client.PingContext; use Ping\(ctx, ...\)`
	_, _ = c.Get("snipe://x")
	_ = e.SendWaitContext(context.Background(), "peer", 1, nil) // want `call to deprecated Endpoint.SendWaitContext; use SendWait\(ctx, ...\)`
}
