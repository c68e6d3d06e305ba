package rcds

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"snipe/internal/stats"
	"snipe/internal/xdr"
)

// errConnBroken marks a request whose connection died before the
// response arrived; roundTrip re-issues such requests against the next
// replica.
var errConnBroken = errors.New("rcds: connection broken")

// ErrClientClosed is returned by operations on a closed client.
var ErrClientClosed = errors.New("rcds: client closed")

// wrongShardRetries bounds how many times a routed op re-resolves the
// shard map after a wrong-shard redirect before giving up. Two covers
// the common case (stale map, one refresh); the third absorbs a map
// that changes again mid-retry.
const wrongShardRetries = 3

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithReadCache enables the client-side read cache: Get, Values and
// FirstValue results are served locally and invalidated by a watch
// goroutine riding the server's Wait long-poll sequence numbers, so
// repeated resolves of stable URNs cost zero round trips. Every replica
// group of a sharded catalog gets its own cache and watch, so the
// coherence rule holds per group. See DESIGN.md for the coherence rule.
func WithReadCache() ClientOption {
	return func(c *Client) { c.cacheOn = true }
}

// WithTimeout sets the per-request dial/IO timeout.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// call is one request and the response to it: a record an operation
// takes from callPool (newCall), builds its request frame in, hands to
// roundTrip, decodes the response from, and returns (release). req is the
// caller's throughout. resp is the frame the response arrived in: the
// connection's read loop swaps it in for the record's previous one — a
// connection and the records it answers pass their buffers round — and
// then sends on ch, after which the record is the caller's alone until
// release; what the caller returns must not alias resp. A record whose
// call was abandoned is never pooled: a read loop may be about to fill it.
type call struct {
	ch        chan error  // one result per attempt: nil, resp and dec set; or the connection's end
	req       xdr.Encoder // the request's frame: the length prefix, the body, and once sealed its MAC
	resp      []byte      // storage of the response frame
	dec       xdr.Decoder // over resp, at the payload once roundTrip has returned nil
	abandoned bool        // roundTrip left while the call was pending (ctx expiry)
}

var callPool = sync.Pool{New: func() any { return &call{ch: make(chan error, 1)} }}

// newCall takes a record and begins a request for cmd in it; the caller
// appends the arguments to req.
func newCall(cmd uint8) *call {
	cl := callPool.Get().(*call)
	cl.req.Reset()
	beginFrame(&cl.req)
	cl.req.PutUint64(0) // the request ID: roundTrip sets each attempt's, an Apply goes under 0
	cl.req.PutUint8(cmd)
	return cl
}

// release returns the record to the pool, less any buffer that grew past
// maxKeptBuffer, once the caller has decoded what it wanted.
func (cl *call) release() {
	if cl.abandoned {
		return
	}
	keepEncoder(&cl.req)
	cl.resp = kept(cl.resp)
	cl.dec.Reset(nil)
	callPool.Put(cl)
}

// clientConn is one multiplexed connection to a replica: callers write
// their request frames in batches (writeRequest), a reader goroutine
// demultiplexes responses to pending calls by request ID.
type clientConn struct {
	c      net.Conn
	secret []byte
	fr     *xdr.FrameReader // used by readLoop alone
	calls  atomic.Int32     // ordinary calls in flight: registered, not yet answered; a Wait is none

	writeMu sync.Mutex
	wrote   sync.Cond   // on writeMu: a batch has been written, or has failed
	queue   net.Buffers // frames behind the writer: the next batch
	batch   net.Buffers // the writer's: the batch it is writing, else the storage the queue gets next
	writing bool        // a caller is the writer; callers that find one queue
	taken   uint64      // batches the writer has taken from the queue
	written uint64      // of them, those written or failed
	failed  uint64      // the first batch whose write failed, 0 if none; every one from it on failed
	werr    error       // that write's error

	mWrites, mFrames *stats.Counter // the client's: write calls, frames they carried

	mu      sync.Mutex
	pending map[uint64]*call
	broken  bool
	err     error
}

// register records cl as the pending call for id.
func (cc *clientConn) register(id uint64, cl *call) error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.broken {
		return fmt.Errorf("%w: %v", errConnBroken, cc.err)
	}
	cc.pending[id] = cl
	return nil
}

// unregister withdraws the pending call for id; a late response for it is
// discarded by the read loop. It reports false if the read loop or fail
// has taken the record already and is about to send its result.
func (cc *clientConn) unregister(id uint64) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	_, ok := cc.pending[id]
	delete(cc.pending, id)
	return ok
}

// fail marks the connection dead and completes every pending call with
// errConnBroken so waiters can fail over.
func (cc *clientConn) fail(err error) {
	cc.mu.Lock()
	if cc.broken {
		cc.mu.Unlock()
		return
	}
	cc.broken = true
	cc.err = err
	pending := cc.pending
	cc.pending = make(map[uint64]*call)
	cc.mu.Unlock()
	cc.c.Close()
	for _, cl := range pending {
		cl.ch <- fmt.Errorf("%w: %v", errConnBroken, err)
	}
}

// readLoop demultiplexes response frames to their pending calls: a frame
// arrives in the loop's buffer and is handed to the call it answers in
// exchange for that record's previous one. The loop is the frame reader's
// (xdr.FrameReader.Serve), which must not be closed from inside: whatever
// ends the connection there is an error out of it, and fail runs after.
func (cc *clientConn) readLoop() {
	cc.fail(cc.fr.Serve(maxFrame, nil, func(buf []byte) ([]byte, error) {
		frame, err := openFrame(buf, cc.secret)
		if err != nil {
			return nil, err
		}
		id, body, err := splitMux(frame)
		if err != nil {
			return nil, err
		}
		cc.mu.Lock()
		cl, ok := cc.pending[id]
		delete(cc.pending, id)
		cc.mu.Unlock()
		if ok {
			buf, cl.resp = cl.resp, frame
			cl.dec.Reset(body)
			cl.ch <- nil
		}
		return kept(buf), nil
	}, nil))
}

// writeRequest writes one sealed request frame and returns once it has been
// written, or has failed, which breaks the connection. The first caller to
// find the connection's write idle becomes its writer; callers that arrive
// behind it queue their frames and wait, and it writes each batch the queue
// holds in one vectored write until the queue is empty — in queue order, so
// one caller's frames go out in the order it wrote them. A lone frame is a
// batch of one. While another ordinary call is in flight, the writer first
// yields once, so that callers already runnable — woken by the responses of
// one read, as a client's concurrent callers are — queue behind it (on one
// processor the writer lock is never contended). Every write is bounded by
// the deadline of the writer's request: a stalled peer stalls only the
// requests of this connection.
func (cc *clientConn) writeRequest(frame []byte, deadline time.Time) error {
	cc.writeMu.Lock()
	defer cc.writeMu.Unlock()
	cc.queue = append(cc.queue, frame)
	mine := cc.taken + 1
	if cc.writing {
		for cc.written < mine {
			cc.wrote.Wait()
		}
		return cc.result(mine)
	}
	cc.writing = true
	if cc.calls.Load() > 1 {
		cc.writeMu.Unlock()
		runtime.Gosched()
		cc.writeMu.Lock()
	}
	for len(cc.queue) > 0 {
		batch := cc.queue
		cc.queue, cc.batch = cc.batch, batch
		cc.taken++
		cc.writeMu.Unlock()
		cc.mWrites.Inc()
		cc.mFrames.Add(uint64(len(batch)))
		cc.c.SetWriteDeadline(deadline)
		_, err := cc.batch.WriteTo(cc.c) // consumes cc.batch; batch keeps the storage
		if err != nil {
			cc.fail(err) // no batch after this one may follow a partial frame
		}
		cc.writeMu.Lock()
		clear(batch) // the frames are their callers' again
		cc.batch = batch[:0]
		if err != nil && cc.failed == 0 {
			cc.failed, cc.werr = cc.taken, err
		}
		cc.written = cc.taken
		cc.wrote.Broadcast()
	}
	cc.writing = false
	return cc.result(mine)
}

// result is the outcome of batch n, written. Caller holds writeMu.
func (cc *clientConn) result(n uint64) error {
	if cc.failed != 0 && n >= cc.failed {
		return cc.werr
	}
	return nil
}

// exchange issues cl's request, sealed under id, on cc and waits for its
// response: nil leaves cl.dec at it. If ctx ends first the record is
// abandoned and ctx's error returned; any other error is the connection's,
// which is dead.
func (cc *clientConn) exchange(ctx context.Context, cl *call, id uint64, deadline time.Time) error {
	if err := cc.register(id, cl); err != nil {
		return err
	}
	if cl.req.Bytes()[frameHeader+muxHeader] != cmdWait {
		cc.calls.Add(1)
		defer cc.calls.Add(-1)
	}
	// A failed write has failed the connection, which completes cl unless
	// the read loop has: either way its end comes on cl.ch.
	_ = cc.writeRequest(cl.req.Bytes(), deadline)
	select {
	case err := <-cl.ch:
		return err
	case <-ctx.Done():
		cc.unregister(id)
		cl.abandoned = true // the read loop may have taken it already
		return ctx.Err()
	}
}

// replicaGroup is the client's connection state for one replica group:
// the addresses, the live multiplexed connection with its failover
// cursor, and (when caching is on) the group's own watch-coherent read
// cache. Against an unsharded catalog the client has exactly one of
// these — the seed group; a published shard map adds one per group.
type replicaGroup struct {
	addrs []string

	mu      sync.Mutex
	conn    *clientConn
	current int  // index into addrs of the (next) server
	closed  bool // retired (map superseded) or client closed

	cache     *readCache // nil = caching disabled
	watchStop context.CancelFunc
}

// Client talks to a set of RC server replicas. Because the registry is
// master–master, any replica can serve any request; the client fails
// over to the next replica when one is unreachable, which is how SNIPE
// clients ride out RC server crashes (the availability property of §6).
//
// Client is safe for concurrent use, and requests are multiplexed: any
// number of goroutines share one persistent connection per replica
// group, each request carrying a wire-level ID its response is matched
// by. A connection's requests are answered in arrival order, except a
// Wait long-poll, which never blocks a concurrent lookup. When a
// connection dies, unanswered requests are re-issued against the next.
//
// URI-keyed operations are routed to the replica group owning the URI
// under the catalog's shard map (DESIGN.md "Sharded catalog"). The map
// is resolved from the seed replicas (the addresses NewClient was given)
// by the first such operation, cached, and re-resolved whenever a server
// answers with a wrong-shard redirect. An unsharded catalog is the case
// where no map is published: every operation goes to the seed replicas.
type Client struct {
	secret []byte
	seed   *replicaGroup // the NewClient addresses; set once, before first use

	mu       sync.Mutex
	groups   []*replicaGroup // index = shard group id; nil until a map installs
	shard    *ShardMap       // installed shard map; nil = route everything to seed
	mapTried bool            // first resolution attempted
	closed   bool

	timeout time.Duration // per-request dial/IO timeout; set once, before first use
	cacheOn bool          // WithReadCache; likewise

	originMu sync.Mutex
	origins  []string // origins decoded by Get, shared among its results; at most maxClientOrigins

	nextID   atomic.Uint64
	inflight atomic.Int64
	wg       sync.WaitGroup

	// Telemetry (see internal/stats); pointers captured at construction.
	metrics     *stats.Registry
	mRequests   *stats.Counter
	mFailovers  *stats.Counter
	mCacheHits  *stats.Counter
	mCacheMiss  *stats.Counter
	mWrongShard *stats.Counter
	mMapResolve *stats.Counter
	mWrites     *stats.Counter // request write calls, over every connection
	mFrames     *stats.Counter // request frames they carried
	gInflight   *stats.Gauge
}

// NewClient returns a client over the given replica addresses. secret
// enables HMAC authentication and must match the servers'. Against a
// sharded catalog addrs are the seed replicas: any group, since each
// carries the shard map in its config namespace.
func NewClient(addrs []string, secret []byte, opts ...ClientOption) *Client {
	c := &Client{
		secret:  secret,
		timeout: 5 * time.Second,
		metrics: stats.NewRegistry(),
	}
	c.mRequests = c.metrics.Counter("requests")
	c.mFailovers = c.metrics.Counter("failovers")
	c.mCacheHits = c.metrics.Counter("cache_hits")
	c.mCacheMiss = c.metrics.Counter("cache_misses")
	c.mWrongShard = c.metrics.Counter("wrong_shard_redirects")
	c.mMapResolve = c.metrics.Counter("shard_map_resolves")
	c.mWrites = c.metrics.Counter("request_writes")
	c.mFrames = c.metrics.Counter("request_frames")
	c.gInflight = c.metrics.Gauge("inflight")
	for _, o := range opts {
		o(c)
	}
	c.seed = c.newGroup(addrs)
	return c
}

// newGroup builds a replica group, starting its cache watch when the
// client caches reads.
func (c *Client) newGroup(addrs []string) *replicaGroup {
	g := &replicaGroup{addrs: append([]string(nil), addrs...)}
	if c.cacheOn {
		g.cache = newReadCache()
		ctx, cancel := context.WithCancel(context.Background())
		g.watchStop = cancel
		c.wg.Add(1)
		go c.watchLoop(ctx, g)
	}
	return g
}

// retireGroup stops a group's watch and breaks its connection; in-flight
// requests fail over and find the group refusing redials.
func retireGroup(g *replicaGroup) {
	if g.watchStop != nil {
		g.watchStop()
	}
	g.mu.Lock()
	g.closed = true
	conn := g.conn
	g.conn = nil
	g.mu.Unlock()
	if conn != nil {
		conn.fail(ErrClientClosed)
	}
}

// Servers returns the configured seed replica addresses.
func (c *Client) Servers() []string {
	return append([]string(nil), c.seed.addrs...)
}

// ReadCacheActive reports whether the client caches reads locally.
// naming.Resolver uses this to skip its own TTL cache and ride the
// client's watch-invalidated one instead.
func (c *Client) ReadCacheActive() bool { return c.cacheOn }

// ShardMap returns the shard map the client is currently routing with,
// or nil when it routes everything to the seed replicas.
func (c *Client) ShardMap() *ShardMap {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shard
}

// Metrics returns the client's live metric registry.
func (c *Client) Metrics() *stats.Registry { return c.metrics }

// MetricsSnapshot captures the client's metrics — request, failover and
// cache counters plus the in-flight depth gauge. A daemon whose catalog
// is a remote Client composes this into its /stats output under the
// "rcds." prefix.
func (c *Client) MetricsSnapshot() stats.Snapshot {
	c.gInflight.Set(float64(c.inflight.Load()))
	return c.metrics.Snapshot()
}

// Close stops the watch goroutines and drops every connection.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	groups := append([]*replicaGroup{c.seed}, c.groups...)
	c.mu.Unlock()
	for _, g := range groups {
		retireGroup(g)
	}
	c.wg.Wait()
}

// owner returns the replica group that serves uri under the installed
// shard map: the seed group when no map is installed or the URI is in
// the globally served config namespace. Caller holds c.mu.
func (c *Client) owner(uri string) *replicaGroup {
	if c.shard == nil || IsConfigURI(uri) {
		return c.seed
	}
	gid := c.shard.Owner(uri)
	if gid < 0 || gid >= len(c.groups) {
		return c.seed
	}
	return c.groups[gid]
}

// route returns the replica group that should serve an operation on
// uri. The first call resolves the shard map from the seed replicas;
// absence of a published map is not an error — the client stays
// seed-routed, and a later wrong-shard redirect forces a re-resolve.
func (c *Client) route(ctx context.Context, uri string) (*replicaGroup, error) {
	c.mu.Lock()
	g, tried := c.owner(uri), c.mapTried
	c.mu.Unlock()
	if tried {
		return g, nil
	}
	err := c.resolveShardMap(ctx)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mapTried = true
	return c.owner(uri), err
}

// allGroups returns the groups of the installed shard map, resolving it
// first if no operation has yet — or the seed group alone when no map
// is published.
func (c *Client) allGroups(ctx context.Context) ([]*replicaGroup, error) {
	// Only for route's bootstrap; the URI it routes is immaterial.
	if _, err := c.route(ctx, ShardMapURI); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.groups) == 0 {
		return []*replicaGroup{c.seed}, nil
	}
	return append([]*replicaGroup(nil), c.groups...), nil
}

// resolveShardMap reads the shard map from the seed group's config
// namespace and installs it if its epoch is newer than the current one.
func (c *Client) resolveShardMap(ctx context.Context) error {
	c.mMapResolve.Inc()
	cl := newCall(cmdFirst)
	defer cl.release()
	cl.req.PutString(ShardMapURI)
	cl.req.PutString(AttrShardMap)
	if err := c.roundTrip(ctx, c.seed, cl); err != nil {
		return err
	}
	v, ok, err := decodeFirst(&cl.dec)
	if err != nil {
		return err
	}
	if !ok {
		return nil // no map published: stay seed-routed
	}
	m, err := ParseShardMap(v)
	if err != nil {
		return err
	}
	c.installShardMap(m)
	return nil
}

// installShardMap swaps in m if it is strictly newer than the installed
// map, building fresh per-group connection state and retiring the old.
func (c *Client) installShardMap(m *ShardMap) {
	c.mu.Lock()
	if c.closed || (c.shard != nil && m.Epoch <= c.shard.Epoch) {
		c.mu.Unlock()
		return
	}
	old := c.groups
	c.shard = m
	c.groups = make([]*replicaGroup, len(m.Groups))
	for i, addrs := range m.Groups {
		c.groups[i] = c.newGroup(addrs)
	}
	c.mu.Unlock()
	for _, g := range old {
		retireGroup(g)
	}
}

// PublishShardMap writes m to the config namespace of every group it
// names, so that any group's replicas can bootstrap a client.
// Config entries replicate within a group but not across groups, hence
// the fan-out here; resharding publishes a higher epoch the same way.
func PublishShardMap(ctx context.Context, m *ShardMap, secret []byte) error {
	for i, addrs := range m.Groups {
		cl := NewClient(addrs, secret)
		err := cl.Set(ctx, ShardMapURI, AttrShardMap, m.Format())
		cl.Close()
		if err != nil {
			return fmt.Errorf("rcds: publish shard map to group %d: %w", i, err)
		}
	}
	return nil
}

// getConn returns g's live multiplexed connection, dialing the current
// replica if none is up. A dial failure advances to the next replica.
func (c *Client) getConn(ctx context.Context, g *replicaGroup) (*clientConn, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, ErrClientClosed
	}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, ErrClientClosed
	}
	if g.conn != nil {
		g.conn.mu.Lock()
		broken := g.conn.broken
		g.conn.mu.Unlock()
		if !broken {
			cc := g.conn
			g.mu.Unlock()
			return cc, nil
		}
		g.conn = nil
	}
	addr := g.addrs[g.current%len(g.addrs)]
	g.mu.Unlock()

	d := net.Dialer{Timeout: c.timeout}
	conn, err := d.DialContext(ctx, "tcp", addr)

	g.mu.Lock()
	defer g.mu.Unlock()
	if err != nil {
		g.current++ // the next dial tries the next replica
		return nil, err
	}
	if g.closed {
		conn.Close()
		return nil, ErrClientClosed
	}
	if g.conn != nil {
		// A concurrent caller connected first; keep theirs.
		conn.Close()
		return g.conn, nil
	}
	cc := &clientConn{c: conn, secret: c.secret, pending: make(map[uint64]*call),
		fr: xdr.NewFrameReader(conn), mWrites: c.mWrites, mFrames: c.mFrames}
	cc.wrote.L = &cc.writeMu
	g.conn = cc
	go cc.readLoop()
	return cc, nil
}

// connFailed retires a dead connection and advances to the group's next
// replica. Only the first caller to notice the failure advances the
// cursor; the group's cached reads are flushed because the next
// replica's Wait sequence numbering is not comparable to the old one's.
func (c *Client) connFailed(g *replicaGroup, cc *clientConn) {
	g.mu.Lock()
	if g.conn == cc {
		g.conn = nil
		g.current++
		c.mFailovers.Inc()
	}
	g.mu.Unlock()
	if g.cache != nil {
		g.cache.invalidateAll()
	}
}

// roundTrip sends cl's request to group g and, on a nil return, leaves
// cl.dec at the response's payload. The request is issued over the
// group's shared multiplexed connection; if that connection dies before
// the response arrives, the request is re-issued against the group's
// next replica (as many times as there are replicas), each attempt under
// its own ID written into the request, and sealed again. A request past
// maxFrame is refused before any attempt.
func (c *Client) roundTrip(ctx context.Context, g *replicaGroup, cl *call) error {
	g.mu.Lock()
	n := len(g.addrs)
	g.mu.Unlock()
	if n == 0 {
		return ErrNoServers
	}
	c.mRequests.Inc()
	c.inflight.Add(1)
	defer c.inflight.Add(-1)

	unsealed := cl.req.Len() // each attempt seals the request under its own ID
	var lastErr error
	for attempt := 0; attempt < n+1; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		cc, err := c.getConn(ctx, g)
		if err != nil {
			if errors.Is(err, ErrClientClosed) {
				return err
			}
			lastErr = err
			continue
		}
		id := c.nextID.Add(1)
		cl.req.Truncate(unsealed)
		setMuxID(cl.req.Bytes()[frameHeader:], id)
		if err := sealFrame(&cl.req, unsealed-frameHeader, c.secret); err != nil {
			return err
		}
		if err := cc.exchange(ctx, cl, id, time.Now().Add(c.timeout)); err != nil {
			if cl.abandoned {
				return err
			}
			lastErr = err
			c.connFailed(g, cc)
			continue
		}
		return parseResponse(&cl.dec)
	}
	return fmt.Errorf("%w (last: %v)", ErrNoServers, lastErr)
}

// routedTrip is roundTrip to the group owning uri. A
// wrong-shard redirect (stale map) re-resolves the map and retries
// against the new owner, a bounded number of times.
func (c *Client) routedTrip(ctx context.Context, uri string, cl *call) error {
	var lastErr error
	for attempt := 0; attempt < wrongShardRetries; attempt++ {
		g, err := c.route(ctx, uri)
		if err != nil {
			return err
		}
		if err = c.roundTrip(ctx, g, cl); err == nil {
			return nil
		}
		// Declared past the return above: its address escapes into
		// errors.As, and the steady path must not pay for that.
		var ws *WrongShardError
		if !errors.As(err, &ws) {
			return err
		}
		c.mWrongShard.Inc()
		lastErr = err
		if rerr := c.resolveShardMap(ctx); rerr != nil {
			return rerr
		}
	}
	return lastErr
}

// peekGroup is route for a reader that must not do I/O: nil when reads
// are not cached or the shard map has yet to be resolved.
func (c *Client) peekGroup(uri string) *replicaGroup {
	if !c.cacheOn {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.mapTried {
		return nil
	}
	return c.owner(uri)
}

// CachedValues answers Values from the read cache alone. A hit counts
// as Values counts it; a miss (ok false) counts nothing and costs no
// I/O, so a caller that follows it with Values sees one read counted.
// It is for callers that build a deadline only when they need one.
func (c *Client) CachedValues(uri, name string) (vals []string, ok bool) {
	g := c.peekGroup(uri)
	if g == nil {
		return nil, false
	}
	if vals, ok = g.cache.lookupValues(uri, name); ok {
		c.mCacheHits.Inc()
	}
	return vals, ok
}

// CachedFirstValue is CachedValues for FirstValue.
func (c *Client) CachedFirstValue(uri, name string) (v string, present, ok bool) {
	g := c.peekGroup(uri)
	if g == nil {
		return "", false, false
	}
	if v, present, ok = g.cache.lookupFirst(uri, name); ok {
		c.mCacheHits.Inc()
	}
	return v, present, ok
}

// Timeout reports the client's configured per-request timeout. Callers
// that hold a context-less interface (naming.Catalog adapters) use it
// to derive per-call deadlines.
func (c *Client) Timeout() time.Duration { return c.timeout }

// Ping checks connectivity, returning the responding server's
// origin ID.
func (c *Client) Ping(ctx context.Context) (string, error) {
	cl := newCall(cmdPing)
	defer cl.release()
	if err := c.roundTrip(ctx, c.seed, cl); err != nil {
		return "", err
	}
	return cl.dec.StringMax(maxWireURI)
}

// newTriple begins a request for cmd on (uri, name, value).
func newTriple(cmd uint8, uri, name, value string) *call {
	cl := newCall(cmd)
	cl.req.PutString(uri)
	cl.req.PutString(name)
	cl.req.PutString(value)
	return cl
}

// write sends cl, a write to uri, and releases it.
func (c *Client) write(ctx context.Context, uri string, cl *call) error {
	err := c.routedTrip(ctx, uri, cl)
	cl.release()
	c.invalidateWrite(uri, err)
	return err
}

// invalidateWrite drops cached reads for a URI this client just wrote,
// preserving read-your-writes before the watch notices the version
// advance. Every group's cache is swept, where it stands in the client's
// list: cheap, and correct across a map change that moved the URI
// between groups mid-write.
func (c *Client) invalidateWrite(uri string, err error) {
	if !c.cacheOn || err != nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seed.cache.invalidateURI(uri)
	for _, g := range c.groups {
		g.cache.invalidateURI(uri)
	}
}

// Set makes value the sole live value of (uri, name).
func (c *Client) Set(ctx context.Context, uri, name, value string) error {
	return c.write(ctx, uri, newTriple(cmdSet, uri, name, value))
}

// Add inserts value as an additional live value of (uri, name).
func (c *Client) Add(ctx context.Context, uri, name, value string) error {
	return c.write(ctx, uri, newTriple(cmdAdd, uri, name, value))
}

// AddSigned inserts a value with a detached signature by signer.
func (c *Client) AddSigned(ctx context.Context, uri, name, value, signer string, sig []byte) error {
	cl := newTriple(cmdAddSigned, uri, name, value)
	cl.req.PutString(signer)
	cl.req.PutBytes(sig)
	return c.write(ctx, uri, cl)
}

// Remove tombstones the (uri, name, value) element.
func (c *Client) Remove(ctx context.Context, uri, name, value string) error {
	return c.write(ctx, uri, newTriple(cmdRemove, uri, name, value))
}

// RemoveAll tombstones every live value of (uri, name).
func (c *Client) RemoveAll(ctx context.Context, uri, name string) error {
	cl := newCall(cmdRemoveAll)
	cl.req.PutString(uri)
	cl.req.PutString(name)
	return c.write(ctx, uri, cl)
}

// Get returns the live assertions for uri.
func (c *Client) Get(ctx context.Context, uri string) ([]Assertion, error) {
	if !c.cacheOn {
		return c.getRemote(ctx, uri)
	}
	g, err := c.route(ctx, uri)
	if err != nil {
		return nil, err
	}
	if as, ok := g.cache.lookupGet(uri); ok {
		c.mCacheHits.Inc()
		return as, nil
	}
	c.mCacheMiss.Inc()
	epoch := g.cache.epochNow()
	as, err := c.getRemote(ctx, uri)
	if err == nil {
		g.cache.storeGet(uri, as, epoch)
	}
	return as, err
}

// maxClientOrigins bounds Client.origins: a peer must not be able to grow
// it. Past the bound an origin is a string of its own, as before.
const maxClientOrigins = 64

// originOf returns origin as a string, the client's one copy of it while
// the table has room.
func (c *Client) originOf(origin []byte) string {
	c.originMu.Lock()
	defer c.originMu.Unlock()
	for _, o := range c.origins {
		if o == string(origin) {
			return o
		}
	}
	o := string(origin)
	if len(c.origins) < maxClientOrigins {
		c.origins = append(c.origins, o)
	}
	return o
}

// getRemote is Get past the cache. Only the slice and the values it
// returns are new: the URI is the caller's string, the origins the client's.
func (c *Client) getRemote(ctx context.Context, uri string) ([]Assertion, error) {
	cl := newCall(cmdGet)
	defer cl.release()
	cl.req.PutString(uri)
	if err := c.routedTrip(ctx, uri, cl); err != nil {
		return nil, err
	}
	return decodeAssertions(&cl.dec, nil, func(v assertionView) Assertion {
		if string(v.uri) == uri {
			return v.own(uri, c.originOf(v.origin))
		}
		return v.own(string(v.uri), c.originOf(v.origin))
	})
}

// Values returns the live values of (uri, name).
func (c *Client) Values(ctx context.Context, uri, name string) ([]string, error) {
	if !c.cacheOn {
		return c.valuesRemote(ctx, uri, name)
	}
	g, err := c.route(ctx, uri)
	if err != nil {
		return nil, err
	}
	if vals, ok := g.cache.lookupValues(uri, name); ok {
		c.mCacheHits.Inc()
		return vals, nil
	}
	c.mCacheMiss.Inc()
	epoch := g.cache.epochNow()
	vals, err := c.valuesRemote(ctx, uri, name)
	if err == nil {
		g.cache.storeValues(uri, name, vals, epoch)
	}
	return vals, err
}

func (c *Client) valuesRemote(ctx context.Context, uri, name string) ([]string, error) {
	cl := newCall(cmdValues)
	defer cl.release()
	cl.req.PutString(uri)
	cl.req.PutString(name)
	if err := c.routedTrip(ctx, uri, cl); err != nil {
		return nil, err
	}
	return cl.dec.StringSliceMax(maxWireItems, maxWireValue)
}

// FirstValue returns the most recently written live value of
// (uri, name).
func (c *Client) FirstValue(ctx context.Context, uri, name string) (string, bool, error) {
	if !c.cacheOn {
		return c.firstRemote(ctx, uri, name)
	}
	g, err := c.route(ctx, uri)
	if err != nil {
		return "", false, err
	}
	if v, ok, hit := g.cache.lookupFirst(uri, name); hit {
		c.mCacheHits.Inc()
		return v, ok, nil
	}
	c.mCacheMiss.Inc()
	epoch := g.cache.epochNow()
	v, ok, err := c.firstRemote(ctx, uri, name)
	if err == nil {
		g.cache.storeFirst(uri, name, v, ok, epoch)
	}
	return v, ok, err
}

func (c *Client) firstRemote(ctx context.Context, uri, name string) (string, bool, error) {
	cl := newCall(cmdFirst)
	defer cl.release()
	cl.req.PutString(uri)
	cl.req.PutString(name)
	if err := c.routedTrip(ctx, uri, cl); err != nil {
		return "", false, err
	}
	return decodeFirst(&cl.dec)
}

// decodeFirst reads a cmdFirst response: whether there is a value, and it.
func decodeFirst(d *xdr.Decoder) (string, bool, error) {
	ok, err := d.Bool()
	if err != nil {
		return "", false, err
	}
	v, err := d.StringMax(maxWireValue)
	return v, ok, err
}

// URIs returns all catalogued URIs under prefix. Against a sharded
// catalog the listing fans out to every group and merges: the one read
// that is inherently cross-shard.
func (c *Client) URIs(ctx context.Context, prefix string) ([]string, error) {
	groups, err := c.allGroups(ctx)
	if err != nil {
		return nil, err
	}
	if len(groups) == 1 {
		return c.urisFrom(ctx, groups[0], prefix)
	}
	seen := make(map[string]struct{})
	var out []string
	for _, g := range groups {
		us, err := c.urisFrom(ctx, g, prefix)
		if err != nil {
			return nil, err
		}
		for _, u := range us {
			if _, dup := seen[u]; !dup {
				seen[u] = struct{}{}
				out = append(out, u)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

func (c *Client) urisFrom(ctx context.Context, g *replicaGroup, prefix string) ([]string, error) {
	cl := newCall(cmdURIs)
	defer cl.release()
	cl.req.PutString(prefix)
	if err := c.roundTrip(ctx, g, cl); err != nil {
		return nil, err
	}
	return cl.dec.StringSliceMax(maxWireItems, maxWireValue)
}

// Vector returns the seed server's version vector
// (replication-internal; peer clients are single-group).
func (c *Client) Vector(ctx context.Context) (VersionVector, error) {
	cl := newCall(cmdVector)
	defer cl.release()
	if err := c.roundTrip(ctx, c.seed, cl); err != nil {
		return nil, err
	}
	return DecodeVersionVector(&cl.dec)
}

// OpsSince returns ops the holder of vector theirs has not seen.
func (c *Client) OpsSince(ctx context.Context, theirs VersionVector, max int) ([]Assertion, error) {
	cl := newCall(cmdOpsSince)
	defer cl.release()
	theirs.Encode(&cl.req)
	cl.req.PutUint32(uint32(max))
	if err := c.roundTrip(ctx, c.seed, cl); err != nil {
		return nil, err
	}
	return DecodeAssertions(&cl.dec)
}

// Apply posts replication ops to the server (peer-to-peer path): one
// frame under request ID 0, which asks for no answer, so a nil error
// means the kernel took the frame, not that the peer applied it; a
// connection's frames are applied in the order posted. from is the
// pushing replica's origin, which the receiver's relay leaves out. A
// failed write breaks the connection and is not retried; ctx bounds a dial.
func (c *Client) Apply(ctx context.Context, from string, ops []Assertion) error {
	cc, err := c.getConn(ctx, c.seed)
	if err != nil {
		return err
	}
	cl := newCall(cmdApply) // for its encoder: nothing is registered, nothing comes back
	defer cl.release()
	cl.req.PutString(from)
	EncodeAssertions(&cl.req, ops)
	if err := sealFrame(&cl.req, cl.req.Len()-frameHeader, c.secret); err != nil {
		return err
	}
	if err := cc.writeRequest(cl.req.Bytes(), time.Now().Add(c.timeout)); err != nil {
		c.connFailed(c.seed, cc)
		return err
	}
	return nil
}

// Wait long-polls until the seed group's catalog version exceeds
// since or the server-side timeout elapses, returning the current
// version. ctx must outlive the server-side timeout for the poll to
// complete normally. A version stream covers one group only — use
// WaitURI to watch the group owning a specific URI.
func (c *Client) Wait(ctx context.Context, since uint64, timeout time.Duration) (uint64, error) {
	return c.waitOn(ctx, c.seed, since, timeout)
}

// WaitURI long-polls the catalog version of the replica group owning
// uri — the shard-aware watch primitive: a write to uri lands in that
// group, so its version stream is the one that advances.
func (c *Client) WaitURI(ctx context.Context, uri string, since uint64, timeout time.Duration) (uint64, error) {
	g, err := c.route(ctx, uri)
	if err != nil {
		return 0, err
	}
	return c.waitOn(ctx, g, since, timeout)
}

func (c *Client) waitOn(ctx context.Context, g *replicaGroup, since uint64, timeout time.Duration) (uint64, error) {
	cl := newCall(cmdWait)
	defer cl.release()
	cl.req.PutUint64(since)
	cl.req.PutUint32(uint32(timeout / time.Millisecond))
	if err := c.roundTrip(ctx, g, cl); err != nil {
		return 0, err
	}
	v, err := cl.dec.Uint64()
	if err == nil && g.cache != nil {
		g.cache.advance(v)
	}
	return v, err
}

// Stats returns (uris, live elements, tombstones) — summed across all
// groups, so the total reflects the whole sharded catalog.
// Config-namespace entries replicate per group and are counted once per
// group holding them.
func (c *Client) Stats(ctx context.Context) (uris, elems, tombs int, err error) {
	groups, err := c.allGroups(ctx)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, g := range groups {
		u, el, tb, err := c.statsFrom(ctx, g)
		if err != nil {
			return 0, 0, 0, err
		}
		uris += u
		elems += el
		tombs += tb
	}
	return uris, elems, tombs, nil
}

func (c *Client) statsFrom(ctx context.Context, g *replicaGroup) (uris, elems, tombs int, err error) {
	cl := newCall(cmdStats)
	defer cl.release()
	if err := c.roundTrip(ctx, g, cl); err != nil {
		return 0, 0, 0, err
	}
	d := &cl.dec
	u, err := d.Uint32()
	if err != nil {
		return 0, 0, 0, err
	}
	el, err := d.Uint32()
	if err != nil {
		return 0, 0, 0, err
	}
	tb, err := d.Uint32()
	if err != nil {
		return 0, 0, 0, err
	}
	return int(u), int(el), int(tb), nil
}

// WaitFor polls until (uri, name) has a live value or ctx ends —
// the client-side rendezvous primitive SNIPE components use to wait for
// each other's metadata to appear. The long-poll rides the version
// stream of the group owning uri, so it works unchanged under sharding.
func (c *Client) WaitFor(ctx context.Context, uri, name string) (string, error) {
	var version uint64
	for {
		v, ok, err := c.FirstValue(ctx, uri, name)
		if err == nil && ok {
			return v, nil
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			if err != nil {
				return "", fmt.Errorf("rcds: waiting for %s %s: %w", uri, name, err)
			}
			return "", fmt.Errorf("rcds: timeout waiting for %s %s", uri, name)
		}
		pollWait := 200 * time.Millisecond
		if deadline, ok := ctx.Deadline(); ok {
			if remaining := time.Until(deadline); remaining < pollWait {
				pollWait = remaining
			}
		}
		if pollWait <= 0 {
			continue
		}
		// Use the long-poll to avoid busy-waiting; ignore errors, the
		// next FirstValue will fail over.
		if nv, err := c.WaitURI(ctx, uri, version, pollWait); err == nil {
			version = nv
		} else if ctx.Err() == nil {
			time.Sleep(10 * time.Millisecond)
		}
	}
}
