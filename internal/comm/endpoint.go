package comm

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"snipe/internal/stats"
	"snipe/internal/xdr"
)

// EndpointOption configures an Endpoint.
type EndpointOption func(*Endpoint)

// WithResolver sets the URN→routes resolver (RC-metadata-backed in the
// full system).
func WithResolver(r Resolver) EndpointOption {
	return func(e *Endpoint) { e.resolver = r }
}

// WithTransports sets the transport registry.
func WithTransports(t *Transports) EndpointOption {
	return func(e *Endpoint) { e.transports = t }
}

// WithBufferLimit bounds the number of unacknowledged outbound
// messages held in the system buffer.
func WithBufferLimit(n int) EndpointOption {
	return func(e *Endpoint) { e.bufferLimit = n }
}

// WithRetryInterval sets the base interval of the retry schedule: a
// buffered message's first retry comes one interval after its initial
// transmission, with capped exponential backoff (plus jitter) on each
// further attempt.
func WithRetryInterval(d time.Duration) EndpointOption {
	return func(e *Endpoint) { e.retryInterval = d }
}

// WithoutBuffering disables the system buffer: sends to unreachable
// peers fail immediately and unacknowledged messages are not retried.
// This is the ablation knob for experiment E5/E7 — with buffering off,
// migration and link failure lose messages, as the paper's design
// argument predicts.
func WithoutBuffering() EndpointOption {
	return func(e *Endpoint) { e.buffering = false }
}

// WithHandler delivers incoming messages to fn instead of the mailbox.
// If tags are given, only messages with those tags go to the handler;
// everything else stays in the mailbox for Recv. Replies never go to
// the handler but to the callers awaiting them (see reply.go), which
// lets a component serve a protocol and make client calls on one
// endpoint.
//
// A handled message is lent to fn: m.Payload is valid until fn returns,
// and the endpoint may then reuse its buffer for a later message, so fn
// copies whatever it keeps (xdr's *Copy decoders and string conversions
// do). A race build overwrites every lent payload once fn returns, so a
// handler that keeps one fails there.
func WithHandler(fn func(*Message), tags ...uint32) EndpointOption {
	return func(e *Endpoint) {
		e.handler = fn
		if len(tags) > 0 {
			e.handlerTags = make(map[uint32]bool, len(tags))
			for _, t := range tags {
				e.handlerTags[t] = true
			}
		}
	}
}

// outKey identifies an unacknowledged outbound message.
type outKey struct {
	dst string
	seq uint64
}

type outMsg struct {
	msg         Message
	route       string    // route key of the last successful single-route send (guarded by the owning shard's mu)
	enqueued    time.Time // when the message entered the system buffer
	lastAttempt time.Time
	backoff     time.Duration // wait after lastAttempt before the next retry
	attempts    int
	flags       uint8         // stamped on every fragment of a single-route transmission: flagReplyExpected or 0
	wrote       atomic.Bool   // a conn has taken a frame of it: its sequence number is spent (beside flags, in its padding)
	acked       chan struct{} // closed on acknowledgement

	// Pooled-payload bookkeeping: msg.Payload came from the payload
	// pool and is recycled when the last reference drops. The system
	// buffer holds the initial reference (released on ack, or on send
	// failure with buffering off); each in-progress transmission holds
	// one more, so a retry racing the ack never reads a recycled
	// buffer.
	pooled bool
	refs   atomic.Int32
}

// acquirePayload takes a reference on the message payload for the
// duration of a transmission attempt. It fails if the payload has
// already been recycled (the message was acknowledged).
func (om *outMsg) acquirePayload() bool {
	if !om.pooled {
		return true
	}
	for {
		n := om.refs.Load()
		if n <= 0 {
			return false
		}
		if om.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// releasePayload drops one payload reference, recycling the buffer
// when the last reference goes.
func (om *outMsg) releasePayload() {
	if !om.pooled {
		return
	}
	if om.refs.Add(-1) == 0 {
		p := om.msg.Payload
		om.msg.Payload = nil
		putPayloadBuf(p)
	}
}

// listenerEntry pairs a live listener with the route it advertises, so
// listeners can be closed by route.
type listenerEntry struct {
	ln    Listener
	route Route
}

// routeCacheEntry caches one destination's resolved routes and their
// keys, under the resolver's route stamp read before the resolve.
type routeCacheEntry struct {
	routeSet
	stamp uint64
}

// msgQueue is the FIFO of messages for the handler. An entry stays
// queued until its handler returns, so an empty queue means an idle
// handler. It reuses its backing array and clears every slot it
// vacates, so a handled message (and its payload) is collectable the
// moment its handler drops it, however long the queue lives.
type msgQueue struct {
	buf  []handlerItem
	head int // buf[head:] are queued; buf[:head] are vacated and zero
}

// handlerItem is one message for the handler. A reassembled message that
// found the handler busy waits unassembled: parts holds its fragments,
// still in their receive buffers, until its turn (see dispatchLoop).
type handlerItem struct {
	m     *Message
	parts *reassembly
}

func (q *msgQueue) len() int { return len(q.buf) - q.head }

func (q *msgQueue) push(m *Message, parts *reassembly) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		// Full with a vacated prefix: slide the live entries down
		// instead of letting append carry the prefix into a larger array.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, handlerItem{m, parts})
}

// peek returns the oldest entry, which stays queued until pop.
func (q *msgQueue) peek() handlerItem { return q.buf[q.head] }

func (q *msgQueue) pop() {
	q.buf[q.head] = handlerItem{}
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// reasmKey identifies an in-progress reassembly. The destination is
// part of the key because sequence numbers are per (src → dst) stream
// and a gateway sees many destinations' frames from one source.
type reasmKey struct {
	src string
	dst string
	seq uint64
}

// sendShardCount is the number of outbound-state shards; a power of
// two so the destination hash folds with a mask.
const sendShardCount = 16

// sendShard holds the outbound send state for the destinations that
// hash into it: per-peer sequence counters and the unacknowledged
// message buffer. Sharding lets concurrent senders to different peers
// proceed in parallel instead of serialising on one endpoint-wide
// mutex; buffer-limit accounting moves to an endpoint-wide atomic
// (Endpoint.buffered) so the limit still applies exactly across
// shards.
type sendShard struct {
	mu          sync.Mutex
	nextSeq     map[string]uint64 // dst URN → next send seq
	outstanding map[outKey]*outMsg
	// unbuffered serialises an unbuffered endpoint's sends from
	// numbering through transmission, so a refused one is always the
	// latest numbered and can hand its number back.
	unbuffered sync.Mutex
}

// shardIndex hashes a destination URN to its shard (FNV-1a, masked).
func shardIndex(dst string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(dst); i++ {
		h ^= uint32(dst[i])
		h *= 16777619
	}
	return h & (sendShardCount - 1)
}

func (e *Endpoint) shardFor(dst string) *sendShard {
	return &e.shards[shardIndex(dst)]
}

// Endpoint is a process's communications identity: it owns the
// process's URN, listens on one or more transport addresses, and
// provides reliable, ordered, exactly-once message delivery to and
// from other endpoints, with the system-buffering and route-failover
// semantics of §6.
//
// Locking: the endpoint's state is partitioned so hot paths contend
// only with themselves — outbound send state is hash-sharded by
// destination (shards[i].mu), connections under connMu, the route
// cache under cacheMu, route scores under scoreMu, in-flight stripes
// under stripeMu, and the receive/delivery state (sequencing,
// reassembly, mailbox) under mu. Lock ordering: never hold two of
// these at once except mu→(none); each section acquires exactly one.
type Endpoint struct {
	urn        string
	transports *Transports

	bufferLimit   int
	retryInterval time.Duration
	buffering     bool
	handler       func(*Message)
	handlerTags   map[uint32]bool // nil = handler takes all tags

	// Fixed after construction; the package's tests shorten or widen
	// them with an option of their own.
	//
	// stripeStall caps how long a stripe waits on one route's Send
	// before it declares the route dead, closes its conn and requeues its
	// fragments: 4× the retry interval, floored at one second. Once a
	// stripe's routes have RTT history the effective window adapts to the
	// slowest route (see stripeStallFor) and this only bounds it from
	// above.
	stripeStall time.Duration
	// ackFlush is how long the per-connection coalescer holds the
	// end-to-end ack of a request for its response (see ack.go): long
	// enough for a handler's answer to leave, and three orders of
	// magnitude under the retry interval.
	ackFlush time.Duration

	// Outbound state, sharded by destination URN.
	shards   [sendShardCount]sendShard
	buffered atomic.Int64 // unacked messages across all shards (exact buffer-limit accounting)

	// Connection and listener state.
	connMu      sync.Mutex
	listeners   []listenerEntry
	localRoutes []Route              // copy-on-write: sharedLocalRoutes hands it out without copying
	conns       map[string]FrameConn // route key → conn

	// Parked end-to-end acks (see ack.go): which connection's coalescer
	// holds the acks owed for each direction of traffic.
	owedMu sync.Mutex
	owed   map[peerPair]*ackCoalescer

	// Route resolution; the resolver is fixed after construction.
	resolver   Resolver
	cacheMu    sync.Mutex
	routeCache map[string]routeCacheEntry // dst URN → resolved routes

	// Adaptive route scoring (see score.go).
	scoreMu sync.Mutex
	scores  map[string]*routeEWMA // route key → adaptive scoring state

	// In-flight striped transmissions (we are src; see stripe.go).
	stripeMu sync.Mutex
	stripes  map[reasmKey]*stripeState

	// Receive state: sequencing, reassembly, delivery.
	mu           sync.Mutex
	cond         *sync.Cond
	expected     map[string]uint64              // src URN → next delivery seq
	reorder      map[string]map[uint64]*Message // src URN → seq → message
	reasm        map[reasmKey]*reassembly
	mailbox      []*Message
	handlerQueue msgQueue
	quiesced     bool                       // migration: stop accepting (and acking) new messages
	requests     map[uint64]*pendingRequest // request ID → its replies (see reply.go); nil until the first request
	lastRequest  uint64

	// Gateway relay state (nil unless WithGatewayRelay); guarded by
	// relayMu, not e.mu: relays re-enter transmit, which takes e.mu.
	gateway    bool
	relayMu    sync.Mutex
	relayAcks  map[relayKey]*ackCoalescer
	relayReasm map[reasmKey]*reassembly

	closed atomic.Bool
	done   chan struct{}
	wg     sync.WaitGroup

	// Telemetry. Hot-path counters are captured once at construction;
	// all mutation is atomic (see internal/stats).
	metrics       *stats.Registry
	mSent         *stats.Counter
	mReceived     *stats.Counter
	mRetried      *stats.Counter
	mDuplicates   *stats.Counter
	mMisdirected  *stats.Counter
	mFragments    *stats.Counter
	mResolves     *stats.Counter
	mCacheHits    *stats.Counter
	mSendErrors   *stats.Counter
	mStriped      *stats.Counter   // messages sent via the multi-path stripe path
	mFragRequeues *stats.Counter   // fragments requeued off a failed route mid-stripe
	mAckBatches   *stats.Counter   // ack frames sent with more than one ack
	mAcksBatched  *stats.Counter   // acks carried inside those frames
	mAckFrames    *stats.Counter   // one-ack frames sent; with acks_batched and acks_piggybacked, every ack sent
	mAcksDeferred *stats.Counter   // end-to-end acks parked for a reply to carry
	mAcksCarried  *stats.Counter   // end-to-end acks sent in a message frame's trailer
	hAckLatency   *stats.Histogram // µs, send → end-to-end ack
	hMsgSize      *stats.Histogram // bytes per application message
}

// NewEndpoint creates an endpoint for urn. Call Listen to accept
// traffic; Send works immediately if a resolver is configured.
func NewEndpoint(urn string, opts ...EndpointOption) *Endpoint {
	e := &Endpoint{
		urn:           urn,
		transports:    NewTransports(),
		resolver:      StaticResolver{},
		bufferLimit:   4096,
		retryInterval: 200 * time.Millisecond,
		buffering:     true,
		ackFlush:      200 * time.Microsecond,
		conns:         make(map[string]FrameConn),
		owed:          make(map[peerPair]*ackCoalescer),
		routeCache:    make(map[string]routeCacheEntry),
		expected:      make(map[string]uint64),
		reorder:       make(map[string]map[uint64]*Message),
		reasm:         make(map[reasmKey]*reassembly),
		stripes:       make(map[reasmKey]*stripeState),
		scores:        make(map[string]*routeEWMA),
		done:          make(chan struct{}),
		metrics:       stats.NewRegistry(),
	}
	for i := range e.shards {
		e.shards[i].nextSeq = make(map[string]uint64)
		e.shards[i].outstanding = make(map[outKey]*outMsg)
	}
	e.cond = sync.NewCond(&e.mu)
	e.mSent = e.metrics.Counter("sent")
	e.mReceived = e.metrics.Counter("received")
	e.mRetried = e.metrics.Counter("retried")
	e.mDuplicates = e.metrics.Counter("duplicates")
	e.mMisdirected = e.metrics.Counter("misdirected")
	e.mFragments = e.metrics.Counter("fragments")
	e.mResolves = e.metrics.Counter("resolves")
	e.mCacheHits = e.metrics.Counter("route_cache_hits")
	e.mSendErrors = e.metrics.Counter("send_errors")
	e.mStriped = e.metrics.Counter("striped")
	e.mFragRequeues = e.metrics.Counter("frag_requeues")
	e.mAckBatches = e.metrics.Counter("ack_batches")
	e.mAcksBatched = e.metrics.Counter("acks_batched")
	e.mAckFrames = e.metrics.Counter("ack_frames")
	e.mAcksDeferred = e.metrics.Counter("acks_deferred")
	e.mAcksCarried = e.metrics.Counter("acks_piggybacked")
	e.hAckLatency = e.metrics.Histogram("ack_latency_us", stats.LatencyBucketsUs)
	e.hMsgSize = e.metrics.Histogram("msg_size_bytes", stats.SizeBuckets)
	for _, o := range opts {
		o(e)
	}
	if e.stripeStall == 0 {
		e.stripeStall = max(4*e.retryInterval, time.Second)
	}
	e.wg.Add(1)
	go e.retryLoop()
	if e.handler != nil {
		e.wg.Add(1)
		go e.dispatchLoop()
	}
	return e
}

// dispatchLoop feeds handled messages to the handler one at a time,
// preserving the per-source delivery order the sequencing layer
// established. A message queued unassembled is assembled here, into a
// buffer from the payload pool, once the one before it has been
// handled and its buffer reclaimed: however far the handler falls
// behind, the endpoint lends one pooled buffer at a time.
func (e *Endpoint) dispatchLoop() {
	defer e.wg.Done()
	e.mu.Lock()
	for {
		for e.handlerQueue.len() == 0 && !e.closed.Load() {
			e.cond.Wait()
		}
		if e.handlerQueue.len() == 0 {
			e.mu.Unlock()
			return
		}
		q := e.handlerQueue.peek()
		h := e.handler
		e.mu.Unlock()
		if q.parts != nil {
			q.m.Payload = q.parts.assemble(getPayloadBuf(q.parts.size))
		}
		h(q.m)
		reclaim(q.m)
		e.mu.Lock()
		e.handlerQueue.pop()
	}
}

// poisonByte overwrites a lent payload in a race build (see reclaim).
const poisonByte = 0xdb

// reclaim ends the loan of m's payload to a handler that has returned.
// A race build first overwrites the bytes, so a handler that kept them
// reads poison. The buffer then goes back to the pool, which drops one
// too small for any size class (most single-fragment copies).
func reclaim(m *Message) {
	if raceEnabled {
		for i := range m.Payload {
			m.Payload[i] = poisonByte
		}
	}
	putPayloadBuf(m.Payload)
}

// URN returns the endpoint's global name.
func (e *Endpoint) URN() string { return e.urn }

// Listen starts accepting connections per spec: the named transport is
// bound at spec.Addr, and the spec's media profile is advertised to
// peers via the returned Route — in the full system, published as
// AttrCommAddr assertions in RC metadata.
func (e *Endpoint) Listen(spec ListenSpec) (Route, error) {
	tr, ok := e.transports.Get(spec.Transport)
	if !ok {
		return Route{}, fmt.Errorf("comm: unknown transport %q", spec.Transport)
	}
	ln, err := tr.Listen(spec.Addr)
	if err != nil {
		return Route{}, err
	}
	route := Route{Transport: spec.Transport, Addr: ln.Addr(), NetName: spec.NetName,
		RateBps: spec.RateBps, LatencyUs: spec.LatencyUs}
	if e.closed.Load() {
		ln.Close()
		return Route{}, ErrClosed
	}
	e.connMu.Lock()
	e.listeners = append(e.listeners, listenerEntry{ln: ln, route: route})
	e.localRoutes = append(slices.Clip(e.localRoutes), route)
	e.connMu.Unlock()
	e.wg.Add(1)
	go e.acceptLoop(ln)
	return route, nil
}

// Routes returns the endpoint's advertised routes.
func (e *Endpoint) Routes() []Route {
	return slices.Clone(e.sharedLocalRoutes())
}

// sharedLocalRoutes returns the advertised routes without copying them;
// the caller must not modify the slice.
func (e *Endpoint) sharedLocalRoutes() []Route {
	e.connMu.Lock()
	defer e.connMu.Unlock()
	return e.localRoutes
}

// CloseListener shuts the listener that advertised route (as returned
// by Listen) and withdraws it from the endpoint's advertised routes —
// the link-failure injection used by the failover experiments. Unlike
// an index, the route stays a valid handle as listeners come and go.
func (e *Endpoint) CloseListener(route Route) error {
	e.connMu.Lock()
	var ln Listener
	for i, ent := range e.listeners {
		if ent.route == route {
			ln = ent.ln
			e.listeners = append(e.listeners[:i], e.listeners[i+1:]...)
			break
		}
	}
	if ln != nil {
		if i := slices.Index(e.localRoutes, route); i >= 0 {
			e.localRoutes = slices.Concat(e.localRoutes[:i], e.localRoutes[i+1:])
		}
	}
	e.connMu.Unlock()
	if ln == nil {
		return fmt.Errorf("comm: no listener for route %s", route)
	}
	e.flushOwed() // a listener may take its connections with it
	return ln.Close()
}

// AttachConn adopts an already-established FrameConn (e.g. one built
// over a netsim pipe in benchmarks) for traffic to and from the peer.
// routeKey must be unique per conn.
func (e *Endpoint) AttachConn(routeKey string, conn FrameConn) {
	e.connMu.Lock()
	e.conns[routeKey] = conn
	e.connMu.Unlock()
	conn.Send(encodeHello(e.urn))
	e.wg.Add(1)
	go e.readLoop(conn, routeKey)
}

// Send queues payload for reliable delivery to dst. It returns once
// the message is accepted into the system buffer (and transmission has
// been attempted); delivery is asynchronous and survives peer
// migration and route failures. With buffering disabled, Send fails if
// no route currently works.
func (e *Endpoint) Send(dst string, tag uint32, payload []byte) error {
	_, err := e.send(dst, tag, payload, 0)
	return err
}

// SendWait sends and then blocks until the destination
// acknowledges the message or ctx ends. The message remains buffered
// and retried even if the wait is abandoned.
func (e *Endpoint) SendWait(ctx context.Context, dst string, tag uint32, payload []byte) error {
	om, err := e.send(dst, tag, payload, 0)
	if err != nil {
		return err
	}
	select {
	case <-om.acked:
		return nil
	case <-ctx.Done():
		return ctxErr(ctx)
	case <-e.done:
		return ErrClosed
	}
}

// ctxErr maps a finished context to the endpoint error vocabulary:
// deadline expiry is the familiar ErrTimeout, cancellation passes
// through.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); errors.Is(err, context.DeadlineExceeded) {
		return ErrTimeout
	}
	return ctx.Err()
}

// send is Send with the flags the message's frames carry
// (flagReplyExpected from SendRequest, 0 from everyone else), and
// returns the buffered message.
func (e *Endpoint) send(dst string, tag uint32, payload []byte, flags uint8) (*outMsg, error) {
	if len(payload) > MaxMessageSize {
		return nil, ErrTooLarge
	}
	if e.closed.Load() {
		return nil, ErrClosed
	}
	// Buffer-limit accounting is endpoint-wide and exact: reserve a
	// slot first, back the reservation out if over the limit. Shards
	// never consult each other.
	if e.buffered.Add(1) > int64(e.bufferLimit) {
		e.buffered.Add(-1)
		return nil, ErrBufferFull
	}
	cp := getPayloadBuf(len(payload))
	copy(cp, payload)
	om := &outMsg{
		enqueued: time.Now(),
		flags:    flags,
		acked:    make(chan struct{}),
		pooled:   true,
	}
	om.refs.Store(1) // the system buffer's reference
	sh := e.shardFor(dst)
	if !e.buffering {
		sh.unbuffered.Lock()
		defer sh.unbuffered.Unlock()
	}
	sh.mu.Lock()
	sh.nextSeq[dst]++
	seq := sh.nextSeq[dst]
	om.msg = Message{Src: e.urn, Dst: dst, Tag: tag, Seq: seq, Payload: cp}
	sh.outstanding[outKey{dst, seq}] = om
	sh.mu.Unlock()
	e.mSent.Inc()
	e.hMsgSize.Observe(float64(len(payload)))

	err := e.transmit(om)
	if err != nil && !e.buffering {
		sh.mu.Lock()
		delete(sh.outstanding, outKey{dst, seq})
		// A number the peer never saw would hold every later message in
		// its reorder buffer, so the next send takes it. One that a conn
		// took part of stays spent: a fragment may already wait in the
		// peer's reassembly under it.
		if !om.wrote.Load() {
			sh.nextSeq[dst]--
		}
		sh.mu.Unlock()
		e.buffered.Add(-1)
		om.releasePayload()
		return nil, err
	}
	return om, nil
}

// transmit attempts to push one buffered message toward its
// destination: large messages to multi-homed peers are striped across
// every healthy route in parallel (see stripe.go); everything else
// walks the adaptively scored routes one at a time, failing over on
// error.
func (e *Endpoint) transmit(om *outMsg) error {
	if !om.acquirePayload() {
		return nil // acknowledged (and recycled) before this attempt began
	}
	defer om.releasePayload()
	sh := e.shardFor(om.msg.Dst)
	sh.mu.Lock()
	om.lastAttempt = time.Now()
	om.attempts++
	om.backoff = e.retryBackoff(om.attempts)
	sh.mu.Unlock()
	local := e.sharedLocalRoutes()

	routes, err := e.resolveRoutes(om.msg.Dst)
	if err != nil {
		return fmt.Errorf("comm: resolving %s: %w", om.msg.Dst, err)
	}
	if len(routes.routes) == 0 {
		return fmt.Errorf("%w: %s has no advertised routes", ErrNoRoute, om.msg.Dst)
	}
	if len(om.msg.Payload) >= stripeThreshold {
		if handled, err := e.transmitStriped(om, local, routes); handled {
			return err
		}
		// Striping didn't apply (single-homed peer, or too few
		// fragments to split): fall through to single-route failover.
	}
	sent, lastErr := e.sendVia(om, local, om.msg.Dst, routes, true)
	if sent {
		return nil
	}
	if lastErr == nil {
		lastErr = ErrNoRoute
	}
	return lastErr
}

// sendVia walks target's routes best-first until one carries om,
// failing over on error. target is the URN the routes were resolved
// for: the message's destination itself (direct), or the gateway it is
// being relayed through. Gateway routes (§5.1) of the destination expand
// to the gateway's own addresses — the frames still name the final
// destination, and the gateway relays them — while a gateway's gateway
// routes are skipped: no gateway chains, which avoids relay cycles.
func (e *Endpoint) sendVia(om *outMsg, local []Route, target string, routes routeSet, direct bool) (sent bool, lastErr error) {
	var scratch [maxStackRoutes]rankedRoute
	for _, route := range e.rankRoutes(local, routes, scratch[:0]) {
		if route.Transport == GatewayTransport {
			if !direct {
				continue
			}
			gwRoutes, err := e.resolveRoutes(route.Addr)
			if err != nil || len(gwRoutes.routes) == 0 {
				lastErr = fmt.Errorf("%w: gateway %s unresolved", ErrNoRoute, route.Addr)
				continue
			}
			sent, err := e.sendVia(om, local, route.Addr, gwRoutes, false)
			if sent {
				return true, nil
			}
			if err != nil {
				lastErr = err
			}
			continue
		}
		conn, err := e.getConn(route.Route, route.key)
		if err != nil {
			lastErr = err
			e.observeRouteError(route.key)
			continue
		}
		if err := e.sendOn(conn, om, direct); err != nil {
			lastErr = err
			e.mSendErrors.Inc()
			e.observeRouteError(route.key)
			e.dropConn(route.key, conn)
			e.invalidateRoutes(target)
			continue
		}
		e.noteSentRoute(om, route.key)
		return true, nil
	}
	return false, lastErr
}

// noteSentRoute records which route carried a single-route
// transmission, so the end-to-end acknowledgement can credit its
// RTT/goodput to the right scorer entry.
func (e *Endpoint) noteSentRoute(om *outMsg, routeKey string) {
	sh := e.shardFor(om.msg.Dst)
	sh.mu.Lock()
	om.route = routeKey
	sh.mu.Unlock()
}

// resolveRoutes returns dst's advertised routes and their keys. A
// cached resolution is reused only while the resolver's route stamp,
// read before the resolve that filled it, still holds; a resolver with
// no stamp is asked every time. Empty results are cached too: a burst
// of retries to an unknown or mid-migration peer costs one resolver
// call per catalog change, not one per buffered message per tick.
func (e *Endpoint) resolveRoutes(dst string) (routeSet, error) {
	var stamp uint64
	stamper, stamped := e.resolver.(routeStamper)
	if stamped {
		stamp, stamped = stamper.RouteStamp(dst)
	}
	e.cacheMu.Lock()
	ent, ok := e.routeCache[dst]
	e.cacheMu.Unlock()
	if ok && stamped && ent.stamp == stamp {
		e.mCacheHits.Inc()
		return ent.routeSet, nil
	}
	e.mResolves.Inc()
	routes, err := e.resolver.Resolve(dst)
	if err != nil {
		return routeSet{}, err
	}
	rs := newRouteSet(routes)
	if stamped {
		e.cacheMu.Lock()
		e.routeCache[dst] = routeCacheEntry{routeSet: rs, stamp: stamp}
		e.cacheMu.Unlock()
	}
	return rs, nil
}

// invalidateRoutes drops dst's cached routes after a send failure so
// the next attempt re-resolves immediately, whatever the stamp says.
func (e *Endpoint) invalidateRoutes(dst string) {
	e.cacheMu.Lock()
	delete(e.routeCache, dst)
	e.cacheMu.Unlock()
}

// maxRetryBackoff caps the per-message retry backoff: however many
// attempts a message has accumulated, it is retried at least this
// often. The cap bounds how long a peer returning from migration or a
// link failure waits for buffered traffic to find it again.
const maxRetryBackoff = 5 * time.Second

// retryBackoff computes how long a message that has been attempted n
// times waits before its next retry: the base interval doubled per
// attempt, capped at maxRetryBackoff, plus positive-only jitter (up to
// a quarter of the backoff) so co-buffered messages don't retry in
// lockstep. The jitter never shortens the window, which keeps the
// lower bound exact for schedule assertions. Reads only immutable
// configuration, so it needs no lock.
func (e *Endpoint) retryBackoff(attempts int) time.Duration {
	d := e.retryInterval
	for i := 1; i < attempts && d < maxRetryBackoff; i++ {
		d *= 2
	}
	if d > maxRetryBackoff {
		d = maxRetryBackoff
	}
	if d > 0 {
		d += time.Duration(rand.Int63n(int64(d)/4 + 1))
	}
	return d
}

// sendOn pushes om down one connection, a fragment at a time: each is
// built by value over the message's own payload and encoded into one
// pooled encoder, so a message that fits a frame costs no allocation.
// When conn leads to the destination itself (direct: not to a gateway
// that relays to it), the first fragment takes along, in whatever room
// it leaves of the MTU, the end-to-end acks parked for the destination.
func (e *Endpoint) sendOn(conn FrameConn, om *outMsg, direct bool) error {
	m := &om.msg
	mtu := conn.MTU() - (msgFrameOverhead + len(m.Src) + len(m.Dst))
	if mtu < 16 {
		return fmt.Errorf("%w: URNs too long for transport MTU", ErrTooLarge)
	}
	var (
		seqs  [ackBatchMax * carriedAckSize]byte
		owing *ackCoalescer
		acks  carriedAcks
	)
	if direct {
		owing, acks = e.takeOwed(m.Dst, m.Src, seqs[:0], mtu-min(len(m.Payload), mtu))
	}
	enc := getFrameEncoder()
	defer putFrameEncoder(enc)
	count := fragCount(len(m.Payload), mtu)
	for i := 0; i < count; i++ {
		f := fragAt(m, i, count, mtu, om.flags)
		if err := conn.Send(encodeMsgFrameInto(enc, &f, acks)); err != nil {
			if len(acks) > 0 {
				owing.giveBack(m.Dst, m.Src, acks)
			}
			return err
		}
		om.wrote.Store(true)
		e.mFragments.Inc()
		if n := acks.count(); n > 0 {
			e.mAcksCarried.Add(uint64(n))
			acks = nil // they rode the first fragment
		}
	}
	return nil
}

// getConn returns a live connection for the route, dialing if needed.
// key is the route's key.
func (e *Endpoint) getConn(route Route, key string) (FrameConn, error) {
	e.connMu.Lock()
	if conn, ok := e.conns[key]; ok {
		e.connMu.Unlock()
		return conn, nil
	}
	e.connMu.Unlock()
	tr, ok := e.transports.Get(route.Transport)
	if !ok {
		return nil, fmt.Errorf("comm: unknown transport %q", route.Transport)
	}
	conn, err := tr.Dial(route.Addr)
	if err != nil {
		return nil, err
	}
	e.connMu.Lock()
	if existing, ok := e.conns[key]; ok {
		e.connMu.Unlock()
		conn.Close()
		return existing, nil
	}
	if e.closed.Load() {
		e.connMu.Unlock()
		conn.Close()
		return nil, ErrClosed
	}
	e.conns[key] = conn
	e.connMu.Unlock()
	conn.Send(encodeHello(e.urn))
	e.wg.Add(1)
	go e.readLoop(conn, key)
	return conn, nil
}

func (e *Endpoint) dropConn(key string, conn FrameConn) {
	e.connMu.Lock()
	if e.conns[key] == conn {
		delete(e.conns, key)
	}
	e.connMu.Unlock()
	conn.Close()
}

func (e *Endpoint) acceptLoop(ln Listener) {
	defer e.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		key := fmt.Sprintf("in:%p", conn)
		if e.closed.Load() {
			conn.Close()
			return
		}
		e.connMu.Lock()
		e.conns[key] = conn
		e.connMu.Unlock()
		e.wg.Add(1)
		go e.readLoop(conn, key)
	}
}

// readLoop drains one connection, recycling each frame buffer unless
// handling retained it (a fragment parked in a reassembly keeps its
// backing buffer until the message completes). It owns the connection's
// ack coalescer and its URN memo.
func (e *Endpoint) readLoop(conn FrameConn, key string) {
	defer e.wg.Done()
	defer e.dropConn(key, conn)
	ac := newAckCoalescer(e, conn)
	defer ac.stop()
	var names peerNames
	for {
		frame, err := conn.Recv()
		if err != nil {
			return
		}
		if !e.handleFrame(ac, &names, frame) {
			putPayloadBuf(frame)
		}
	}
}

// handleFrame dispatches one inbound frame. It reports whether
// ownership of the frame buffer was retained (parked in a reassembly);
// when false the caller recycles the buffer.
func (e *Endpoint) handleFrame(ac *ackCoalescer, names *peerNames, frame []byte) (retained bool) {
	d := xdr.NewDecoder(frame)
	ftype, err := d.Uint8()
	if err != nil {
		return false
	}
	switch ftype {
	case frameHello:
		// The peer's identity decides one thing: whether an ack may wait
		// for a reply on its way to that peer (see handleMsgFrame).
		if urn, err := decodeHello(d); err == nil {
			ac.peer = urn
		}

	case frameMsg:
		f, acks, err := decodeMsgFrame(d, names)
		if err != nil {
			return false
		}
		// The acks a frame carries stand on their own: they count whatever
		// becomes of the message part (delivered, duplicate, quiesced).
		e.handleAcks(f.Dst, f.Src, acks)
		return e.handleMsgFrame(ac, &f, frame)

	case frameAck:
		if src, dst, acks, err := decodeAck(d, names); err == nil {
			e.handleAcks(src, dst, acks)
		}
	}
	return false
}

// handleAcks retires the messages src sent dst that acks lists.
func (e *Endpoint) handleAcks(src, dst string, acks carriedAcks) {
	for i := 0; i < acks.count(); i++ {
		e.handleAck(src, dst, acks.seq(i))
	}
}

// handleAck retires one end-to-end acknowledged message: the sender
// side of exactly-once delivery.
func (e *Endpoint) handleAck(src, dst string, seq uint64) {
	// A gateway first checks whether this ack belongs to a relayed
	// message and routes it back to the origin.
	if e.relayAck(src, dst, seq) {
		return
	}
	// Only an ack of our own message retires anything: one for another
	// source (misrouted, or in a misdirected frame's trailer) would
	// otherwise retire ours to the same peer under the same number.
	if src != e.urn {
		return
	}
	sh := e.shardFor(dst)
	sh.mu.Lock()
	om, ok := sh.outstanding[outKey{dst, seq}]
	var route string
	var attemptAge time.Duration
	if ok {
		delete(sh.outstanding, outKey{dst, seq})
		close(om.acked)
		route = om.route
		attemptAge = time.Since(om.lastAttempt)
	}
	sh.mu.Unlock()
	e.stripeMu.Lock()
	stripe := e.stripes[reasmKey{src, dst, seq}]
	e.stripeMu.Unlock()
	if stripe != nil {
		stripe.cancel() // message-level ack moots any in-flight stripe
	}
	if ok {
		e.buffered.Add(-1)
		e.hAckLatency.Observe(float64(time.Since(om.enqueued).Microseconds()))
		if route != "" {
			e.observeRouteAck(route, len(om.msg.Payload), attemptAge)
		}
		om.releasePayload() // the system buffer's reference
	}
}

// handleMsgFrame accepts one message fragment. buf is the pooled
// receive buffer backing f.Payload; the return value reports whether
// its ownership was consumed (parked in a reassembly, or already
// recycled on message completion) — when false the caller recycles it.
func (e *Endpoint) handleMsgFrame(ac *ackCoalescer, f *msgFrame, buf []byte) (retained bool) {
	if f.Dst != e.urn {
		if e.gateway {
			return e.relayMsgFrame(ac, f, buf)
		}
		// Not ours: accepting it would ack a message its recipient
		// never saw, and its sequence number (kept per source, not per
		// source and destination) could pass for a duplicate of ours.
		// Neither deliver nor ack; the sender keeps it buffered.
		e.mMisdirected.Inc()
		return false
	}
	key := reasmKey{f.Src, f.Dst, f.Seq}

	e.mu.Lock()
	// A quiesced endpoint (a task that has checkpointed for migration)
	// neither delivers nor acknowledges: the sender keeps the message
	// buffered and its retries find the task's new location — the
	// paper's redirect-by-re-resolution (§5.6).
	if e.quiesced {
		e.mu.Unlock()
		return false
	}
	// Duplicate detection: anything below the expected sequence (or
	// waiting in the reorder buffer) has already been accepted; re-ack
	// so the sender stops retrying, but do not deliver again.
	_, inReorder := e.reorder[f.Src][f.Seq]
	if (e.expected[f.Src] > 0 && f.Seq < e.expected[f.Src]) || inReorder {
		e.mDuplicates.Inc()
		e.mu.Unlock()
		ac.ack(f.Src, f.Dst, f.Seq)
		return false
	}
	payload, parts, retained, err := collect(e.reasm, key, f, buf)
	if err != nil {
		e.mu.Unlock()
		return retained
	}
	if payload == nil && parts == nil {
		e.mu.Unlock()
		return retained // awaiting more fragments
	}

	msg := &Message{Src: f.Src, Dst: f.Dst, Tag: f.Tag, Seq: f.Seq, Payload: payload}
	if e.expected[f.Src] == 0 {
		e.expected[f.Src] = 1
	}
	inOrder := f.Seq == e.expected[f.Src]
	if parts != nil {
		switch lend := inOrder && e.handles(f.Tag) && f.Tag != ReplyTag; {
		case lend && e.handlerQueue.len() == 0:
			// An idle handler: lend it a pooled buffer now; the
			// dispatch loop reclaims it when the handler returns.
			msg.Payload, parts = parts.assemble(getPayloadBuf(parts.size)), nil
		case lend:
			// A busy handler: the fragments wait in their receive
			// buffers and the dispatch loop assembles them in their
			// turn, so one lent buffer never queues behind another.
		default:
			// A reply's, the mailbox's, or out of order: the receiver's
			// for good.
			msg.Payload, parts = parts.assemble(make([]byte, parts.size)), nil
		}
	}
	if inOrder {
		e.deliverLocked(msg, parts)
		e.expected[f.Src]++
		// Drain any buffered successors.
		for {
			next, ok := e.reorder[f.Src][e.expected[f.Src]]
			if !ok {
				break
			}
			delete(e.reorder[f.Src], e.expected[f.Src])
			e.deliverLocked(next, nil)
			e.expected[f.Src]++
		}
	} else {
		if e.reorder[f.Src] == nil {
			e.reorder[f.Src] = make(map[uint64]*Message)
		}
		e.reorder[f.Src][f.Seq] = msg
	}
	e.mu.Unlock()

	// End-to-end acknowledgement: the message is safely accepted. It
	// leaves at once, unless the sender said a reply is coming and this
	// connection is its own: then the ack may ride in that reply. A
	// message that came through a gateway (the hello named someone else)
	// is acknowledged here and now, on the connection the gateway
	// expects its ack on.
	if f.Flags&flagReplyExpected != 0 && ac.peer == f.Src {
		ac.park(f.Src, f.Dst, f.Seq)
	} else {
		ac.ack(f.Src, f.Dst, f.Seq)
	}
	return retained
}

// handles reports whether messages with tag, other than replies, go to
// the handler.
func (e *Endpoint) handles(tag uint32) bool {
	return e.handler != nil && (e.handlerTags == nil || e.handlerTags[tag])
}

// deliverLocked queues for a caller awaiting a reply, for the handler, or
// in the mailbox; parts is an unassembled payload, for the handler only.
// Caller holds e.mu.
func (e *Endpoint) deliverLocked(m *Message, parts *reassembly) {
	e.mReceived.Inc()
	switch {
	case m.Tag == ReplyTag:
		e.deliverReplyLocked(m) // wakes its caller alone
		return
	case e.handles(m.Tag):
		e.handlerQueue.push(m, parts)
	default:
		e.mailbox = append(e.mailbox, m)
	}
	e.cond.Broadcast()
}

// Recv returns the next message of any tag from any source,
// waiting until ctx ends.
func (e *Endpoint) Recv(ctx context.Context) (*Message, error) {
	return e.RecvMatch(ctx, "", AnyTag)
}

// ctxWaiter parks a caller on a sync.Cond so that the end of its context
// wakes it too (RecvMatch). The watcher that does that is registered only
// when the caller is about to wait for the first time: most calls find
// their message already there and never pay for one. A loop that waits on
// one cond under one context for its whole life (StreamMux.run) keeps one
// waiter across its waits and registers once.
type ctxWaiter struct {
	stop func() bool
}

// wait is called with cond.L held, in a loop that re-checks what it waits
// for and ctx.Err() after every return. The watcher's callback takes
// cond.L, so it is registered with the lock released, and that first call
// returns without waiting: whatever arrived, or a ctx that ended, while
// the lock was down is seen by the caller's re-check, and a ctx that ends
// after it finds the watcher in place.
func (w *ctxWaiter) wait(ctx context.Context, cond *sync.Cond) {
	if w.stop != nil {
		cond.Wait()
		return
	}
	cond.L.Unlock()
	w.stop = context.AfterFunc(ctx, func() {
		cond.L.Lock()
		cond.Broadcast()
		cond.L.Unlock()
	})
	cond.L.Lock()
}

// release drops the watcher, if one was registered.
func (w *ctxWaiter) release() {
	if w.stop != nil {
		w.stop()
	}
}

// RecvMatch returns the next message matching src (""=any) and
// tag (AnyTag=any), waiting until ctx ends. Non-matching messages stay
// queued for other receivers.
func (e *Endpoint) RecvMatch(ctx context.Context, src string, tag uint32) (*Message, error) {
	var w ctxWaiter
	defer w.release()
	return e.recvMatch(ctx, src, tag, &w)
}

// recvMatch is RecvMatch parking through w, which the caller releases.
func (e *Endpoint) recvMatch(ctx context.Context, src string, tag uint32, w *ctxWaiter) (*Message, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		for i, m := range e.mailbox {
			if (src == "" || m.Src == src) && (tag == AnyTag || m.Tag == tag) {
				e.mailbox = slices.Delete(e.mailbox, i, i+1) // clears the vacated slot
				return m, nil
			}
		}
		if e.closed.Load() {
			return nil, ErrClosed
		}
		if ctx.Err() != nil {
			return nil, ctxErr(ctx)
		}
		w.wait(ctx, e.cond)
	}
}

// retryLoop re-transmits buffered unacknowledged messages, re-resolving
// the destination each time — which is how traffic finds a process
// again after it migrates or a link fails. Each message waits out its
// own capped-exponential backoff window between attempts, so a dead
// peer is probed ever more gently instead of being hammered every
// tick. One loop serves all shards: scanning is cheap (the per-shard
// lock is held only to collect due messages), and a single goroutine
// keeps thousand-endpoint swarms from running thousands of extra
// tickers.
func (e *Endpoint) retryLoop() {
	defer e.wg.Done()
	ticker := time.NewTicker(e.retryInterval)
	defer ticker.Stop()
	for {
		select {
		case <-e.done:
			return
		case <-ticker.C:
		}
		if !e.buffering {
			continue
		}
		now := time.Now()
		var due []*outMsg
		for i := range e.shards {
			sh := &e.shards[i]
			sh.mu.Lock()
			for _, om := range sh.outstanding {
				if now.Sub(om.lastAttempt) >= om.backoff {
					due = append(due, om)
				}
			}
			sh.mu.Unlock()
		}
		for _, om := range due {
			e.mRetried.Inc()
			e.transmit(om) // failure leaves it buffered for a later tick
		}
	}
}

// Pending reports the number of buffered unacknowledged messages.
func (e *Endpoint) Pending() int {
	return int(e.buffered.Load())
}

// Metrics returns the endpoint's live metric registry; counters update
// as traffic flows. Gauges are refreshed by MetricsSnapshot.
func (e *Endpoint) Metrics() *stats.Registry { return e.metrics }

// MetricsSnapshot captures the endpoint's metrics, refreshing the
// instantaneous gauges first: buffered unacknowledged messages, open
// connections, and — for transports that expose them — cumulative RUDP
// retransmissions and mean smoothed RTT across connections.
func (e *Endpoint) MetricsSnapshot() stats.Snapshot {
	pending := e.buffered.Load()
	e.stripeMu.Lock()
	stripes := len(e.stripes)
	e.stripeMu.Unlock()
	e.scoreMu.Lock()
	scored := len(e.scores)
	e.scoreMu.Unlock()
	e.connMu.Lock()
	conns := make([]FrameConn, 0, len(e.conns))
	for _, c := range e.conns {
		conns = append(conns, c)
	}
	e.connMu.Unlock()
	var retrans int
	var srttSum float64
	var srttN int
	for _, c := range conns {
		if r, ok := c.(interface{ Retransmissions() int }); ok {
			retrans += r.Retransmissions()
		}
		if s, ok := c.(interface{ SRTT() time.Duration }); ok {
			if v := s.SRTT(); v > 0 {
				srttSum += float64(v.Microseconds())
				srttN++
			}
		}
	}
	e.metrics.Gauge("pending").Set(float64(pending))
	e.metrics.Gauge("conns").Set(float64(len(conns)))
	e.metrics.Gauge("stripes_active").Set(float64(stripes))
	e.metrics.Gauge("routes_scored").Set(float64(scored))
	e.metrics.Gauge("rudp_retransmissions").Set(float64(retrans))
	if srttN > 0 {
		e.metrics.Gauge("rudp_srtt_us").Set(srttSum / float64(srttN))
	}
	return e.metrics.Snapshot()
}

// Close shuts down the endpoint. Buffered messages are discarded.
func (e *Endpoint) Close() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	close(e.done)
	// A stripe's idle workers would otherwise wait out its stall window,
	// and closing the conns below ends any Send one is blocked in; a
	// stripe that registers after this sees e.done itself.
	e.stripeMu.Lock()
	for _, s := range e.stripes {
		s.cancel()
	}
	e.stripeMu.Unlock()
	// Shard barrier: any sender that passed the closed check before the
	// swap has finished inserting by the time each shard lock cycles,
	// so nothing slips into a shard after this point.
	for i := range e.shards {
		e.shards[i].mu.Lock()
		//lint:ignore SA2001 empty critical section is the barrier
		e.shards[i].mu.Unlock()
	}
	e.mu.Lock()
	e.cond.Broadcast()
	e.mu.Unlock()
	e.flushOwed() // while the connections can still carry them
	e.connMu.Lock()
	lns := append([]listenerEntry(nil), e.listeners...)
	conns := make([]FrameConn, 0, len(e.conns))
	for _, c := range e.conns {
		conns = append(conns, c)
	}
	e.connMu.Unlock()
	for _, ent := range lns {
		ent.ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	e.wg.Wait()
}

// Quiesce makes the endpoint stop accepting (and acknowledging) new
// messages, freezing its state for a checkpoint. Messages already in
// the mailbox — accepted and acknowledged but not yet consumed — are
// part of the sequence snapshot and travel with the checkpoint.
func (e *Endpoint) Quiesce() {
	e.mu.Lock()
	e.quiesced = true
	e.mu.Unlock()
	// What was accepted is acknowledged before the checkpoint, not when
	// a reply that may never be written would have carried it.
	e.flushOwed()
}

// SequenceState is the portable communications state of an endpoint,
// captured at checkpoint time so that a migrated process resumes its
// conversations without loss or duplication (§5.6): per-peer send and
// receive sequence numbers, plus any accepted-but-unconsumed mailbox
// messages.
type SequenceState struct {
	NextSeq  map[string]uint64
	Expected map[string]uint64
	Mailbox  []Message
}

// SnapshotSequences captures the endpoint's communications state. The
// endpoint should be quiesced first so the snapshot cannot miss a
// message acknowledged after the capture.
func (e *Endpoint) SnapshotSequences() SequenceState {
	s := SequenceState{
		NextSeq:  make(map[string]uint64),
		Expected: make(map[string]uint64),
	}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for k, v := range sh.nextSeq {
			s.NextSeq[k] = v
		}
		sh.mu.Unlock()
	}
	e.mu.Lock()
	for k, v := range e.expected {
		s.Expected[k] = v
	}
	for _, m := range e.mailbox {
		s.Mailbox = append(s.Mailbox, *m)
	}
	e.mu.Unlock()
	return s
}

// RestoreSequences installs state captured by SnapshotSequences into a
// fresh endpoint (at the migration target).
func (e *Endpoint) RestoreSequences(s SequenceState) {
	for k, v := range s.NextSeq {
		sh := e.shardFor(k)
		sh.mu.Lock()
		sh.nextSeq[k] = v
		sh.mu.Unlock()
	}
	e.mu.Lock()
	for k, v := range s.Expected {
		e.expected[k] = v
	}
	for i := range s.Mailbox {
		m := s.Mailbox[i]
		e.mailbox = append(e.mailbox, &m)
	}
	e.cond.Broadcast()
	e.mu.Unlock()
}

// Encode serialises sequence state for transport in a checkpoint.
func (s SequenceState) Encode(e *xdr.Encoder) {
	encodeU64Map(e, s.NextSeq)
	encodeU64Map(e, s.Expected)
	e.PutUint32(uint32(len(s.Mailbox)))
	for _, m := range s.Mailbox {
		e.PutString(m.Src)
		e.PutString(m.Dst)
		e.PutUint32(m.Tag)
		e.PutUint64(m.Seq)
		e.PutBytes(m.Payload)
	}
}

// DecodeSequenceState reads state written by Encode.
func DecodeSequenceState(d *xdr.Decoder) (SequenceState, error) {
	var s SequenceState
	var err error
	if s.NextSeq, err = decodeU64Map(d); err != nil {
		return s, err
	}
	if s.Expected, err = decodeU64Map(d); err != nil {
		return s, err
	}
	n, err := d.Uint32()
	if err != nil {
		return s, err
	}
	// Each mailbox entry costs at least 24 encoded bytes (two string
	// lengths, tag, seq, payload length); a count beyond that is hostile.
	if int64(n)*24 > int64(d.Remaining()) {
		return s, fmt.Errorf("%w: mailbox count %d exceeds remaining %d bytes",
			xdr.ErrStringTooLong, n, d.Remaining())
	}
	for i := uint32(0); i < n; i++ {
		var m Message
		if m.Src, err = d.StringMax(maxWireURN); err != nil {
			return s, err
		}
		if m.Dst, err = d.StringMax(maxWireURN); err != nil {
			return s, err
		}
		if m.Tag, err = d.Uint32(); err != nil {
			return s, err
		}
		if m.Seq, err = d.Uint64(); err != nil {
			return s, err
		}
		if m.Payload, err = d.BytesCopyMax(MaxMessageSize); err != nil {
			return s, err
		}
		s.Mailbox = append(s.Mailbox, m)
	}
	return s, nil
}

func encodeU64Map(e *xdr.Encoder, m map[string]uint64) {
	e.PutUint32(uint32(len(m)))
	for k, v := range m {
		e.PutString(k)
		e.PutUint64(v)
	}
}

func decodeU64Map(d *xdr.Decoder) (map[string]uint64, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	// Each entry costs at least 12 encoded bytes (string length + u64);
	// fail fast on hostile counts before the map preallocation below.
	if int64(n)*12 > int64(d.Remaining()) {
		return nil, fmt.Errorf("%w: map count %d exceeds remaining %d bytes",
			xdr.ErrStringTooLong, n, d.Remaining())
	}
	m := make(map[string]uint64, min(int(n), 1024))
	for i := uint32(0); i < n; i++ {
		k, err := d.StringMax(maxWireURN)
		if err != nil {
			return nil, err
		}
		v, err := d.Uint64()
		if err != nil {
			return nil, err
		}
		m[k] = v
	}
	return m, nil
}
