package service

import (
	"cmp"
	"context"
	"errors"
	"io"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"snipe/internal/comm"
	"snipe/internal/liveness"
	"snipe/internal/naming"
	"snipe/internal/rcds"
	"snipe/internal/stats"
)

// ClientConfig wires a service-group client.
type ClientConfig struct {
	// Service is the group name (resolved via naming.ServiceURN).
	Service  string
	Catalog  naming.Catalog
	Endpoint *comm.Endpoint
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

// watchPoll is how often the replica table is marked for a re-read when
// the catalog offers no change notification (see naming.Watch).
const watchPoll = 250 * time.Millisecond

// replica is one row of the client's replica table: what the catalog said
// about the replica at the last refresh, and what this client has seen of
// it since.
type replica struct {
	urn    string
	host   string   // host URL the liveness monitor tracks; "" outside the process namespace
	routes []string // registered communication addresses, which are comm's route keys
	load   float64  // the host's advertised load
	lat    float64  // EWMA of this client's call latency, seconds; 0 until the first call
}

// indexOf returns the table row of urn, or -1.
func indexOf(table []replica, urn string) int {
	for i := range table {
		if table[i].urn == urn {
			return i
		}
	}
	return -1
}

// Client balances calls across the live replicas of one service group.
//
// It keeps a replica table — URN, host, registered routes, host load —
// and a call picks from the table without touching the catalog. The table
// is read from the catalog (the group's replica list, then each replica's
// routes and its host's load via liveness.HostLoad) on three occasions: a
// catalog change notification (naming.Watch on the service URN) marks it
// stale, and the next call that finds it so starts one refresh in the
// background, at most one at a time; a call that finds no live replica it
// has not tried refreshes before it gives up; and so does a call whose
// attempt failed, before it picks again. Membership is therefore one
// notification behind, or as fresh as the last failure; load is as fresh
// as the last refresh; the latency estimates and the liveness down-set
// are always current.
//
// Balancing is pick-lowest-score with jitter: a replica's score is the
// client's own EWMA of observed call latency, blended with the comm
// layer's per-route EWMA history for the replica's registered routes
// (RTT, error rate), multiplied by 1+load of the replica's host.
// Replicas whose hosts the liveness monitor holds Suspect, Dead or Left
// are skipped outright. The ±10% jitter keeps a fleet of clients from
// stampeding the single momentarily-cheapest replica.
//
// Call retries on a distinct replica after any attempt failure, so the
// group delivers calls at-least-once: a replica may observe a request
// whose response was lost. Handlers should be idempotent or dedupe.
type Client struct {
	cfg ClientConfig
	mux *comm.StreamMux // over cfg.Endpoint; built and closed by the client
	uri string

	mu         sync.Mutex
	table      []replica
	readSeq    uint64                    // catalog reads started
	tableSeq   uint64                    // the read the table came from
	stale      bool                      // the catalog changed since the last read started
	refreshing bool                      // a background refresh is running
	closed     bool                      // Close has begun: start no more refreshes
	down       map[string]liveness.State // host URL → non-placeable state

	metrics        *stats.Registry
	mCalls         *stats.Counter // Call invocations
	mAttempts      *stats.Counter // per-replica attempts of those calls
	mRefreshes     *stats.Counter // table reads from the catalog, all causes
	mRefreshesSync *stats.Counter // those a call waited for (empty table, failed attempt)
	mNoReplicas    *stats.Counter // picks that found no live untried replica even after a refresh
	stopWatch      context.CancelFunc
	cancelMonitor  func()
	closeOnce      sync.Once
	wg             sync.WaitGroup
}

// NewClient builds a client for one service group.
func NewClient(cfg ClientConfig) (*Client, error) {
	return newClient(cfg, watchPoll)
}

func newClient(cfg ClientConfig, poll time.Duration) (*Client, error) {
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
		cfg:     cfg,
		mux:     comm.NewStreamMux(cfg.Endpoint),
		uri:     naming.ServiceURN(cfg.Service),
		down:    make(map[string]liveness.State),
		metrics: stats.NewRegistry(),
	}
	c.mCalls = c.metrics.Counter("calls")
	c.mAttempts = c.metrics.Counter("attempts")
	c.mRefreshes = c.metrics.Counter("table_refreshes")
	c.mRefreshesSync = c.metrics.Counter("table_refreshes_sync")
	c.mNoReplicas = c.metrics.Counter("no_replicas")
	if cfg.Monitor != nil {
		for _, info := range cfg.Monitor.Snapshot() {
			if !info.State.Placeable() {
				c.down[info.Host] = info.State
			}
		}
		events, cancel := cfg.Monitor.Subscribe(64)
		c.cancelMonitor = cancel
		c.wg.Add(1)
		go c.watch(events)
	}
	ctx, stop := context.WithCancel(context.Background())
	c.stopWatch = stop
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		naming.Watch(ctx, cfg.Catalog, c.uri, poll, c.markStale)
	}()
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

// MetricsSnapshot reports the client's counters: calls, attempts,
// table_refreshes (catalog reads of the replica table), of which
// table_refreshes_sync made a call wait, and no_replicas.
func (c *Client) MetricsSnapshot() stats.Snapshot { return c.metrics.Snapshot() }

// Replicas reads the group's registered replica URNs, live or not, from
// the catalog.
func (c *Client) Replicas() ([]string, error) {
	return c.cfg.Catalog.Values(c.uri, rcds.AttrServiceReplica)
}

// markStale is the catalog watch's callback. It only leaves a mark: the
// re-read is the next call's to start, so a client nobody calls reads
// nothing however busy the catalog is.
func (c *Client) markStale() {
	c.mu.Lock()
	c.stale = true
	c.mu.Unlock()
}

// refresh reads the replica table from the catalog and installs it,
// unless a read that started later already has. A replica that stays in
// the group keeps its latency estimate. On a catalog error the table is
// left as it was. sync says a call is waiting for it.
func (c *Client) refresh(sync bool) error {
	c.mRefreshes.Inc()
	if sync {
		c.mRefreshesSync.Inc()
	}
	c.mu.Lock()
	c.readSeq++
	seq := c.readSeq
	c.stale = false // whatever changes from here on marks it again
	c.mu.Unlock()

	urns, err := c.Replicas()
	if err != nil {
		return err
	}
	table := make([]replica, len(urns))
	for i, urn := range urns {
		r := &table[i]
		r.urn, r.host = urn, liveness.HostOfURN(urn)
		// A replica reachable over a route with bad observed history
		// inherits it (see scoreLocked); one whose routes cannot be read
		// is scored without.
		r.routes, _ = c.cfg.Catalog.Values(urn, rcds.AttrCommAddr)
		if r.host != "" {
			r.load, _ = liveness.HostLoad(c.cfg.Catalog, r.host)
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if seq < c.tableSeq {
		return nil
	}
	for i := range table {
		if j := indexOf(c.table, table[i].urn); j >= 0 {
			table[i].lat = c.table[j].lat
		}
	}
	c.table, c.tableSeq = table, seq
	return nil
}

// kickRefreshLocked starts the background refresh a stale table is owed,
// unless one is already running: a burst of notifications while it runs
// costs one more read after it, not one each.
func (c *Client) kickRefreshLocked() {
	if !c.stale || c.refreshing || c.closed {
		return
	}
	c.refreshing = true
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		_ = c.refresh(false) // the table stays as it was; a call that finds nothing in it reads again and reports
		c.mu.Lock()
		c.refreshing = false
		c.mu.Unlock()
	}()
}

// defaultLatency is the prior for replicas this client has never
// called: optimistic enough that new replicas get traffic.
const defaultLatency = 0.020 // 20ms

// liveLocked reports whether r's host is in rotation.
func (c *Client) liveLocked(r *replica) bool {
	if r.host == "" {
		return true
	}
	_, down := c.down[r.host]
	return !down
}

// scoreLocked computes a replica's balancing score; lower is better.
func (c *Client) scoreLocked(r *replica) float64 {
	lat := r.lat
	if lat == 0 {
		lat = defaultLatency
	}
	// Blend in the comm layer's per-route EWMAs for the replica's
	// registered routes: a replica reachable over a route with bad
	// observed RTT or error history inherits that history even before
	// this client's first call to it.
	best := -1.0
	for _, addr := range r.routes {
		rttUs, errRate, samples := c.cfg.Endpoint.RouteHistory(addr)
		if samples == 0 {
			continue
		}
		if v := (rttUs / 1e6) * (1 + 4*errRate); best < 0 || v < best {
			best = v
		}
	}
	if best >= 0 {
		lat = (lat + best) / 2
	}
	score := lat * (0.9 + 0.2*rand.Float64())
	if r.load > 0 {
		score *= 1 + r.load
	}
	return score
}

// pick returns the live replica with the lowest score that is not among
// tried, in one pass over the table; ok is false when there is none. It
// is also where a stale table gets its background refresh started.
func (c *Client) pick(tried []string) (urn string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.kickRefreshLocked()
	var best float64
	for i := range c.table {
		r := &c.table[i]
		if !c.liveLocked(r) || slices.Contains(tried, r.urn) {
			continue
		}
		if s := c.scoreLocked(r); !ok || s < best {
			urn, best, ok = r.urn, s, true
		}
	}
	return urn, ok
}

// pickFresh is pick with a read of the catalog where one is due, on the
// call's own path. After a failed attempt that is before picking, so that
// replicas that registered or withdrew mid-call are seen; otherwise it is
// only when the table holds no live replica outside tried, and once. A
// catalog error comes back only when there is still nothing to pick: the
// table as it was may yet name a replica worth trying.
func (c *Client) pickFresh(tried []string, afterFailure bool) (string, error) {
	var err error
	if afterFailure {
		err = c.refresh(true)
	}
	urn, ok := c.pick(tried)
	if !ok && !afterFailure {
		err = c.refresh(true)
		urn, ok = c.pick(tried)
	}
	if ok {
		return urn, nil
	}
	c.mNoReplicas.Inc()
	if err == nil {
		err = ErrNoReplicas
	}
	return "", err
}

// Candidates returns the table's live replicas ordered by ascending score
// (best first): a snapshot of what Call would pick from, jitter included.
// Like Call it reads the catalog only when the table has no live replica.
func (c *Client) Candidates() ([]string, error) {
	if _, err := c.pickFresh(nil, false); err != nil {
		return nil, err
	}
	type scored struct {
		urn   string
		score float64
	}
	c.mu.Lock()
	live := make([]scored, 0, len(c.table))
	for i := range c.table {
		if r := &c.table[i]; c.liveLocked(r) {
			live = append(live, scored{r.urn, c.scoreLocked(r)})
		}
	}
	c.mu.Unlock()
	if len(live) == 0 {
		return nil, ErrNoReplicas // the down-set grew since pickFresh looked
	}
	slices.SortFunc(live, func(a, b scored) int { return cmp.Compare(a.score, b.score) })
	out := make([]string, len(live))
	for i, s := range live {
		out[i] = s.urn
	}
	return out, nil
}

// observe folds one call outcome into the replica's latency EWMA. A
// failure doubles the estimate (floored at the default prior) so the
// replica is deprioritised but recovers through later successes. A
// replica that has left the table takes its history with it.
func (c *Client) observe(urn string, d time.Duration, failed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := indexOf(c.table, urn)
	if i < 0 {
		return
	}
	r := &c.table[i]
	cur := r.lat
	if cur == 0 {
		cur = defaultLatency
	}
	if failed {
		r.lat = max(cur, defaultLatency) * 2
		return
	}
	r.lat = 0.7*cur + 0.3*d.Seconds()
}

// Open picks the best live replica and opens a raw stream to it, for
// callers that want streaming semantics beyond one request/response.
// Returns the chosen replica's URN. No retries: the caller owns the
// stream's failure handling.
func (c *Client) Open(ctx context.Context, method string) (*comm.Stream, string, error) {
	urn, err := c.pickFresh(nil, false)
	if err != nil {
		return nil, "", err
	}
	st, err := c.mux.Open(ctx, urn, method)
	if err != nil {
		return nil, "", err
	}
	return st, urn, nil
}

// Call performs one request/response exchange: write req, half-close,
// read the response to EOF. The replica comes from the table, and a call
// that succeeds at its first attempt reads no catalog. A failed attempt
// is retried on the next best replica, after re-reading the table from
// the catalog so that replicas that registered or withdrew mid-call are
// seen; at most cfg.Attempts distinct replicas are tried.
func (c *Client) Call(ctx context.Context, method string, req []byte) ([]byte, error) {
	c.mCalls.Inc()
	var tried []string // replicas that failed this call
	var lastErr error
	for attempt := 0; attempt < c.cfg.Attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			break
		}
		urn, err := c.pickFresh(tried, attempt > 0)
		if err != nil {
			// Every live replica tried, or none registered.
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		c.mAttempts.Inc()
		start := time.Now()
		resp, err := c.callOnce(ctx, urn, method, req)
		c.observe(urn, time.Since(start), err != nil)
		if err == nil {
			return resp, nil
		}
		tried = append(tried, urn)
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
	// The first chunk is the response itself, not a copy of it: it is a
	// window into the message that carried it, so its capacity is cut to
	// its length and a second chunk is appended into a buffer of the
	// response's own. Most responses are one chunk.
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
		if resp == nil {
			resp = chunk[:len(chunk):len(chunk)]
		} else {
			resp = append(resp, chunk...)
		}
	}
}

// Close ends the catalog watch and the monitor subscription, waits for
// their goroutines and for a refresh still running, and closes the mux.
func (c *Client) Close() {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		c.stopWatch()
		if c.cancelMonitor != nil {
			c.cancelMonitor()
		}
		c.mux.Close()
	})
	c.wg.Wait()
}
