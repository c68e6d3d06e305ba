package service

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"snipe/internal/comm"
	"snipe/internal/liveness"
	"snipe/internal/naming"
	"snipe/internal/rcds"
)

// ClientConfig wires a service-group client.
type ClientConfig struct {
	// Service is the group name (resolved via naming.ServiceURN).
	Service  string
	Catalog  naming.Catalog
	Endpoint *comm.Endpoint
	// Mux, when non-nil, is a shared stream mux over Endpoint (an
	// endpoint supports exactly one mux). Nil builds an owned one.
	Mux *comm.StreamMux
	// MuxOptions tunes an owned mux (ignored when Mux is set).
	MuxOptions []comm.StreamMuxOption
	// Monitor, when non-nil, feeds the balancer: the client subscribes
	// to its failure notifications and takes replicas on suspect or
	// dead hosts out of rotation before their calls can fail.
	Monitor *liveness.Monitor
	// Attempts is how many distinct replicas one Call tries (default
	// DefaultAttempts, capped at the replica count).
	Attempts int
	// AttemptTimeout bounds each per-replica attempt (default 2s), so
	// one unresponsive replica cannot eat the whole call deadline.
	AttemptTimeout time.Duration
}

// Client resolves a service group through the catalog and balances
// calls across its live replicas.
//
// Balancing is pick-lowest-score with jitter: a replica's score is the
// client's own EWMA of observed call latency, blended with the comm
// layer's per-route EWMA history for the replica's registered routes
// (RTT, error rate), multiplied by 1+load from the replica host's
// heartbeat. Replicas whose hosts the liveness monitor holds Suspect,
// Dead or Left are skipped outright. The ±10% jitter keeps a fleet of
// clients from stampeding the single momentarily-cheapest replica.
//
// Call retries on a distinct replica after any attempt failure, so the
// group delivers calls at-least-once: a replica may observe a request
// whose response was lost. Handlers should be idempotent or dedupe.
type Client struct {
	cfg ClientConfig
	mux *comm.StreamMux
	own bool
	uri string

	mu        sync.Mutex
	lat       map[string]float64        // replica URN → EWMA call latency, seconds
	down      map[string]liveness.State // host URL → non-placeable state
	rng       *rand.Rand
	cancelSub func()
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewClient builds a client for one service group.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Service == "" || cfg.Catalog == nil || cfg.Endpoint == nil {
		return nil, errors.New("service: client needs Service, Catalog and Endpoint")
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = DefaultAttempts
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = 2 * time.Second
	}
	c := &Client{
		cfg:  cfg,
		mux:  cfg.Mux,
		uri:  naming.ServiceURN(cfg.Service),
		lat:  make(map[string]float64),
		down: make(map[string]liveness.State),
		rng:  rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	if c.mux == nil {
		c.mux = comm.NewStreamMux(cfg.Endpoint, cfg.MuxOptions...)
		c.own = true
	}
	if cfg.Monitor != nil {
		for _, info := range cfg.Monitor.Snapshot() {
			if !info.State.Placeable() {
				c.down[info.Host] = info.State
			}
		}
		events, cancel := cfg.Monitor.Subscribe(64)
		c.cancelSub = cancel
		c.wg.Add(1)
		go c.watch(events)
	}
	return c, nil
}

// watch folds the monitor's failure notifications into the down-set
// the balancer consults — push-based, so a host death removes its
// replicas from rotation without any per-call liveness lookup.
func (c *Client) watch(events <-chan liveness.Event) {
	defer c.wg.Done()
	for e := range events {
		c.mu.Lock()
		if e.To.Placeable() {
			delete(c.down, e.Host)
		} else {
			c.down[e.Host] = e.To
		}
		c.mu.Unlock()
	}
}

// ServiceURI returns the group's catalog URN.
func (c *Client) ServiceURI() string { return c.uri }

// Replicas lists the group's registered replica URNs, live or not.
func (c *Client) Replicas() ([]string, error) {
	return c.cfg.Catalog.Values(c.uri, rcds.AttrServiceReplica)
}

// Candidates resolves the group and returns live replicas ordered by
// ascending score (best first).
func (c *Client) Candidates() ([]string, error) {
	urns, err := c.Replicas()
	if err != nil {
		return nil, err
	}
	routeHist := make(map[string]comm.RouteScore)
	for _, rs := range c.cfg.Endpoint.RouteScores() {
		routeHist[rs.Route] = rs
	}
	type scored struct {
		urn   string
		score float64
	}
	live := make([]scored, 0, len(urns))
	for _, urn := range urns {
		host := liveness.HostOfURN(urn)
		if host != "" {
			c.mu.Lock()
			_, dead := c.down[host]
			c.mu.Unlock()
			if dead {
				continue
			}
		}
		live = append(live, scored{urn, c.score(urn, host, routeHist)})
	}
	if len(live) == 0 {
		return nil, ErrNoReplicas
	}
	sort.Slice(live, func(i, j int) bool { return live[i].score < live[j].score })
	out := make([]string, len(live))
	for i, s := range live {
		out[i] = s.urn
	}
	return out, nil
}

// defaultLatency is the prior for replicas this client has never
// called: optimistic enough that new replicas get traffic.
const defaultLatency = 0.020 // 20ms

// score computes a replica's balancing score; lower is better.
func (c *Client) score(urn, host string, routeHist map[string]comm.RouteScore) float64 {
	c.mu.Lock()
	lat, ok := c.lat[urn]
	jitter := 0.9 + 0.2*c.rng.Float64()
	c.mu.Unlock()
	if !ok {
		lat = defaultLatency
	}
	// Blend in the comm layer's per-route EWMAs for the replica's
	// registered routes: a replica reachable over a route with bad
	// observed RTT or error history inherits that history even before
	// this client's first call to it.
	if addrs, err := c.cfg.Catalog.Values(urn, rcds.AttrCommAddr); err == nil {
		best := -1.0
		for _, addr := range addrs {
			rs, ok := routeHist[addr]
			if !ok || rs.Samples == 0 {
				continue
			}
			v := (rs.RTTUs / 1e6) * (1 + 4*rs.ErrRate)
			if best < 0 || v < best {
				best = v
			}
		}
		if best >= 0 {
			lat = (lat + best) / 2
		}
	}
	score := lat * jitter
	if host != "" {
		if load, ok := liveness.HostLoad(c.cfg.Catalog, host); ok && load > 0 {
			score *= 1 + load
		}
	}
	return score
}

// observe folds one call outcome into the replica's latency EWMA. A
// failure doubles the estimate (floored at the default prior) so the
// replica is deprioritised but recovers through later successes.
func (c *Client) observe(urn string, d time.Duration, failed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur, ok := c.lat[urn]
	if !ok {
		cur = defaultLatency
	}
	if failed {
		c.lat[urn] = max(cur, defaultLatency) * 2
		return
	}
	c.lat[urn] = 0.7*cur + 0.3*d.Seconds()
}

// Open picks the best live replica and opens a raw stream to it, for
// callers that want streaming semantics beyond one request/response.
// Returns the chosen replica's URN. No retries: the caller owns the
// stream's failure handling.
func (c *Client) Open(ctx context.Context, method string) (*comm.Stream, string, error) {
	cands, err := c.Candidates()
	if err != nil {
		return nil, "", err
	}
	st, err := c.mux.Open(ctx, cands[0], method)
	if err != nil {
		return nil, "", err
	}
	return st, cands[0], nil
}

// Call performs one request/response exchange: write req, half-close,
// read the response to EOF. A failed attempt is retried on the next
// best replica, re-resolving the group each time so replicas that
// registered or withdrew mid-call are seen; at most cfg.Attempts
// distinct replicas are tried.
func (c *Client) Call(ctx context.Context, method string, req []byte) ([]byte, error) {
	var tried map[string]bool // replicas that failed this call; nil until one does
	var lastErr error
	for attempt := 0; attempt < c.cfg.Attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			break
		}
		cands, err := c.Candidates()
		if err != nil {
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		urn := ""
		for _, u := range cands {
			if !tried[u] {
				urn = u
				break
			}
		}
		if urn == "" {
			break // every live replica tried
		}
		start := time.Now()
		resp, err := c.callOnce(ctx, urn, method, req)
		c.observe(urn, time.Since(start), err != nil)
		if err == nil {
			return resp, nil
		}
		if tried == nil {
			tried = make(map[string]bool)
		}
		tried[urn] = true
		lastErr = err
	}
	if lastErr == nil {
		lastErr = ErrNoReplicas
	}
	return nil, groupError(c.cfg.Service, method, len(tried), lastErr)
}

// callOnce runs one attempt against one replica under the per-attempt
// timeout.
func (c *Client) callOnce(ctx context.Context, urn, method string, req []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	st, err := c.mux.Open(ctx, urn, method)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			st.Reset("call abandoned")
		}
	}()
	if err := st.Write(ctx, req); err != nil {
		return nil, err
	}
	if err := st.CloseWrite(); err != nil {
		return nil, err
	}
	var resp []byte
	for {
		chunk, err := st.Read(ctx)
		if err == io.EOF {
			ok = true
			return resp, nil
		}
		if err != nil {
			return nil, err
		}
		resp = append(resp, chunk...)
	}
}

// Close drops the monitor subscription and, when owned, the mux.
func (c *Client) Close() {
	c.closeOnce.Do(func() {
		if c.cancelSub != nil {
			c.cancelSub()
		}
		if c.own {
			c.mux.Close()
		}
	})
	c.wg.Wait()
}
