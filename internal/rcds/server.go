package rcds

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"snipe/internal/stats"
	"snipe/internal/xdr"
)

// pushTimeout bounds one replication RPC — a push link's Ping, a pull's
// Catchup or SnapshotPage; a push is only a write — and one response's write.
const pushTimeout = 5 * time.Second

// maxPendingPushOps bounds the ops queued for one peer while its pusher
// is busy with it. Ops beyond it are not queued for that peer: they count
// as a failed push, and the peer's next timed pull fetches them.
const maxPendingPushOps = 4096

// A server's next timed pull (DESIGN.md "Replication repair"): pullPeriod
// after a pass whose pulls all succeeded, pullRetry after one with a pull
// failed or gated, so that a healed partition or a returned peer is seen.
// WithLogCompaction's loop compacts every compactPeriod.
const (
	pullPeriod    = 2 * time.Second
	pullRetry     = 250 * time.Millisecond
	compactPeriod = 2 * time.Second
)

// maxKeptOps is maxKeptBuffer for a reused slice of ops, counted in the
// largest of its element types: a connection's decoded Apply holds
// 136-byte Assertions, the push queue 152-byte queuedOps, so neither
// keeps more than maxKeptBuffer.
const maxKeptOps = maxKeptBuffer / 152

// keptOps clears ops, which keep strings alive, and returns the storage
// for reuse, or nil if it grew past maxKeptOps.
func keptOps[T any](ops []T) []T {
	if cap(ops) > maxKeptOps {
		return nil
	}
	clear(ops)
	return ops[:0]
}

// queuedOp is an op awaiting push: the queue's own copy, so that what a
// connection decoded it into can be reused.
type queuedOp struct {
	op   Assertion
	from string // origin of the replica that pushed op here; "" = written here
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithSecret enables HMAC authentication with the given shared secret.
func WithSecret(secret []byte) ServerOption {
	return func(s *Server) { s.secret = secret }
}

// WithPeers sets the addresses of the other replicas this server pushes
// updates to and pulls missing ones from.
func WithPeers(addrs ...string) ServerOption {
	return func(s *Server) { s.peers = append([]string(nil), addrs...) }
}

// WithShard makes the server enforce catalog sharding: ops on URIs that
// map (under m) to a group other than self are answered with a
// wrong-shard redirect instead of being served. Config-namespace URIs
// (IsConfigURI) are exempt. The map can be replaced at runtime with
// SetShard.
func WithShard(self int, m *ShardMap) ServerOption {
	return func(s *Server) { s.shard = &shardConfig{self: self, m: m} }
}

// WithLogCompaction bounds the op log: every compactPeriod a background
// loop drops entries more than keepTail sequence numbers below each
// origin's contiguous mark. Replicas that fall below the resulting floor catch
// up via snapshot (SyncFromPeer) instead of history replay.
func WithLogCompaction(keepTail int) ServerOption {
	return func(s *Server) { s.compactKeep = keepTail }
}

// shardConfig is a server's sharding stance: its own group and the map.
type shardConfig struct {
	self int
	m    *ShardMap
}

// Server is one RC/metadata server replica: it serves the catalog
// protocol on a TCP listener, pushes writes to its peers, and pulls from
// them what evidence says a push lost, so that replicas converge — the
// master–master model of §7.
type Server struct {
	store       *Store
	secret      []byte
	peers       []string
	compactKeep int // >0: background log compaction keeps this much tail
	// peerGate, when the package's partition tests set it before Start,
	// is consulted before every push or pull exchange with a peer: while
	// it returns an error the exchange is skipped, modelling a severed
	// replication link.
	peerGate func(peer string) error
	newPeer  chan struct{} // one token: a pusher started, so pull at once
	hole     chan struct{} // one token: an Apply left a hole, so pull at once if it stays

	mu       sync.Mutex
	shard    *shardConfig // nil = unsharded
	ln       net.Listener
	conns    map[net.Conn]struct{}
	stop     context.CancelFunc // ends the pull and compaction loops; nil until Start
	wg       sync.WaitGroup
	stopped  bool
	pushFail int       // push attempts that failed (peer down); a pull repairs them
	pushers  []*pusher // one per peer address while the server runs

	mShardReject *stats.Counter // ops redirected to their owning group
	mSnapPages   *stats.Counter // snapshot pages served to rejoiners
	mTailPulls   *stats.Counter // catch-up tail pulls served
	mAppliesSent *stats.Counter // Apply frames written to a peer's connection
	mOpsSent     *stats.Counter // ops those frames carried
	mAppliesRecv *stats.Counter // Apply frames applied
	mRelaySkip   *stats.Counter // ops not sent to the peer they came from or that minted them
	mConnReads   *stats.Counter // read calls ended connections issued, those that found nothing included
	mConnFrames  *stats.Counter // frames they were served
	mConnWrites  *stats.Counter // write calls they answered those frames in
	mPulls       *stats.Counter // SyncFromPeer runs this server started
	mHolePulls   *stats.Counter // pull passes a hole started
}

// NewServer creates a server over store. Call Start to begin serving.
func NewServer(store *Store, opts ...ServerOption) *Server {
	s := &Server{
		store:   store,
		newPeer: make(chan struct{}, 1),
		hole:    make(chan struct{}, 1),
		conns:   make(map[net.Conn]struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	s.mShardReject = store.Metrics().Counter("shard_rejects")
	s.mSnapPages = store.Metrics().Counter("snapshot_pages_served")
	s.mTailPulls = store.Metrics().Counter("tail_pulls_served")
	s.mAppliesSent = store.Metrics().Counter("applies_sent")
	s.mOpsSent = store.Metrics().Counter("apply_ops_sent")
	s.mAppliesRecv = store.Metrics().Counter("applies_received")
	s.mRelaySkip = store.Metrics().Counter("relay_skipped")
	s.mConnReads = store.Metrics().Counter("conn_reads")
	s.mConnFrames = store.Metrics().Counter("conn_frames")
	s.mConnWrites = store.Metrics().Counter("conn_writes")
	s.mPulls = store.Metrics().Counter("pulls")
	s.mHolePulls = store.Metrics().Counter("hole_pulls")
	return s
}

// SetShard installs (or replaces) the server's shard map at runtime —
// the resharding hook. A nil map disables enforcement.
func (s *Server) SetShard(self int, m *ShardMap) {
	s.mu.Lock()
	if m == nil {
		s.shard = nil
	} else {
		s.shard = &shardConfig{self: self, m: m}
	}
	s.mu.Unlock()
}

// wrongShard reports whether sharding is enforced and uri belongs to
// another group, in which case e now answers request id with the redirect.
func (s *Server) wrongShard(e *xdr.Encoder, id uint64, uri string) bool {
	s.mu.Lock()
	sc := s.shard
	s.mu.Unlock()
	if sc == nil || IsConfigURI(uri) {
		return false
	}
	owner := sc.m.Owner(uri)
	if owner == sc.self {
		return false
	}
	s.mShardReject.Inc()
	respond(e, id, statusWrongShard)
	e.PutUint32(uint32(owner))
	e.PutUint64(sc.m.Epoch)
	return true
}

// Store returns the server's underlying replica store.
func (s *Server) Store() *Store { return s.store }

// Start listens on addr (host:port; port 0 picks a free port) and
// begins serving, pushing and pulling.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("rcds: listen %s: %w", addr, err)
	}
	ctx, stop := context.WithCancel(context.Background())
	s.mu.Lock()
	s.ln = ln
	s.stop = stop
	s.setPushersLocked()
	s.mu.Unlock()
	s.wg.Add(2)
	go s.acceptLoop(ln)
	// The loop starts even with no peers: they may arrive later via
	// SetPeers (the common bootstrap order), and wake it.
	go s.pullLoop(ctx)
	if s.compactKeep > 0 {
		s.wg.Add(1)
		go s.compactLoop(ctx)
	}
	return nil
}

// Addr returns the listen address, valid after Start.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops serving and waits for all connection handlers to finish.
// The store survives, so a new server can be started over it — the
// crash/recover cycle of the availability experiments.
func (s *Server) Close() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	if s.ln != nil {
		s.ln.Close()
		s.stop()
	}
	for _, p := range s.pushers {
		p.stop()
	}
	s.pushers = nil
	conns := s.conns
	s.conns = make(map[net.Conn]struct{})
	s.mu.Unlock()
	// Outside the lock: a Close waits for the connection's read loop to
	// leave the descriptor, and the request it is serving may want the lock.
	for c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

// SetPeers replaces the peer set (used when the replica group changes).
// A running server starts a pusher for each new address and stops the
// pushers of the addresses no longer listed.
func (s *Server) SetPeers(addrs ...string) {
	s.mu.Lock()
	s.peers = append([]string(nil), addrs...)
	s.setPushersLocked()
	s.mu.Unlock()
}

// setPushersLocked makes the pushers match s.peers: one per address, the
// running ones kept with what they hold; a new one wakes the pull loop. A
// server that has not started, or has stopped, runs none. Caller holds s.mu.
func (s *Server) setPushersLocked() {
	if s.ln == nil || s.stopped {
		return
	}
	s.pushers = slices.DeleteFunc(s.pushers, func(p *pusher) bool {
		gone := !slices.Contains(s.peers, p.peer)
		if gone {
			p.stop()
		}
		return gone
	})
	for _, peer := range s.peers {
		if !slices.ContainsFunc(s.pushers, func(p *pusher) bool { return p.peer == peer }) {
			p := &pusher{peer: peer, c: NewClient([]string{peer}, s.secret), wake: make(chan struct{}, 1)}
			var ctx context.Context
			ctx, p.stop = context.WithCancel(context.Background())
			s.pushers = append(s.pushers, p)
			s.wg.Add(1)
			go s.push(ctx, p)
			signal(s.newPeer)
		}
	}
}

// signal puts the one token ch holds, unless it holds it already.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default: // a wake-up is already coming
	}
}

// PushFailures reports how many peer pushes failed and were left to a
// pull to repair.
func (s *Server) PushFailures() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pushFail
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.stopped {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// maxParkedWaits bounds the long-polls one connection may have parked,
// the only goroutines it can hold. A Wait past the bound is answered at
// once with the current version, which is a legal long-poll answer.
const maxParkedWaits = 1024

// served is what a connection's read loop owns and reuses from frame to
// frame, beside the frame's own storage, so that a request costs the server
// only what the store keeps of it; each holds what the connection's frames
// have needed, up to maxKeptBuffer, and nothing ahead of the first.
type served struct {
	resp xdr.Encoder // the responses to the frames of one read, framed one after another, until they are written
	ops  []Assertion // a posted Apply's ops, until they are merged and queued (by copy) for relay
	from string      // the sender origin the last Apply named; a push link names one
}

// serveConn serves one client connection from its read loop, the frame
// reader's (xdr.FrameReader.Serve): a request is executed where it is read
// — in the loop's frame buffer, which nothing kept may alias — in arrival
// order, and its response framed behind those to the frames before it in
// the connection's one encoder. The responses to the frames one read
// delivered go out in one write, at Serve's flush, before the next read; a
// batch that reaches maxKeptBuffer is written at once, so that a read of
// small requests for large answers holds one answer at a time. Only a Wait,
// the one command that parks, gets a goroutine, with its own copy of its
// frame and its own encoder, which it writes itself and which ends with
// the connection at the latest. A frame serve refuses, or a write not done
// within pushTimeout (a client that sends and does not read), ends the
// connection: by an error out of the loop, never a Close inside it, which
// would wait for the read lock the loop holds.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	fr := xdr.NewFrameReader(conn)
	var writeMu sync.Mutex // serialises the loop's writes with the parked Waits'
	var writes uint64      // guarded by writeMu
	// write sends what sc.resp holds in one write call and empties it.
	write := func(sc *served) error {
		if sc.resp.Len() == 0 {
			return nil
		}
		// The writer lock only serialises this connection's long-poll
		// answers with the read loop's; a stalled client stalls only itself.
		writeMu.Lock()
		defer writeMu.Unlock()
		writes++
		conn.SetWriteDeadline(time.Now().Add(pushTimeout))
		_, err := conn.Write(sc.resp.Bytes()) //lint:allow lockedio intentional per-connection response writer lock, bounded by the write deadline
		sc.resp.Reset()
		keepEncoder(&sc.resp)
		return err
	}
	answer := func(sc *served, frame []byte, park <-chan struct{}) error {
		body, err := s.serve(sc, frame, park)
		if err != nil || body == nil {
			return err
		}
		return sealFrame(&sc.resp, len(body), s.secret)
	}
	var waits sync.WaitGroup
	var parked atomic.Int32 // raised by this loop alone, so Load then Add keeps the bound
	gone := make(chan struct{})
	defer func() {
		conn.Close()
		close(gone)
		waits.Wait()
		reads, frames := fr.Counts()
		s.mConnReads.Add(reads)
		s.mConnFrames.Add(frames)
		s.mConnWrites.Add(writes)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	var sc served
	// The peer left, a frame was refused, a response could not be written:
	// however the loop ended, the connection ends the same way.
	_ = fr.Serve(maxFrame, nil, func(buf []byte) ([]byte, error) {
		frame, err := openFrame(buf, s.secret)
		if err != nil {
			return nil, err
		}
		if len(frame) > muxHeader && frame[muxHeader] == cmdWait && parked.Load() < maxParkedWaits {
			parked.Add(1)
			waits.Add(1)
			go func(frame []byte) {
				defer waits.Done()
				defer parked.Add(-1)
				sc := new(served)
				if answer(sc, frame, gone) != nil || write(sc) != nil {
					conn.Close() // the read loop returns
				}
			}(bytes.Clone(frame)) // it outlives the frame it arrived in
			return kept(buf), nil
		}
		err = answer(&sc, frame, nil)
		if err == nil && sc.resp.Len() >= maxKeptBuffer {
			err = write(&sc)
		}
		sc.ops = keptOps(sc.ops)
		return kept(buf), err
	}, func() error { return write(&sc) })
}

// serve executes one request frame and returns the body of the response
// frame, begun behind what sc.resp holds and left for the caller to seal —
// or nil for an Apply, which is posted under request ID 0, applied and
// relayed here and answered with nothing. An error means the frame is no
// request of this protocol and ends the connection, the store untouched:
// no ID or no command, ID 0 on anything but an Apply, an Apply under
// another ID or one that does not decode. A Wait blocks only if park is
// non-nil, and at most until it closes.
func (s *Server) serve(sc *served, frame []byte, park <-chan struct{}) ([]byte, error) {
	id, body, err := splitMux(frame)
	switch {
	case err != nil:
		return nil, err
	case len(body) == 0 || (id == 0) != (body[0] == cmdApply):
		return nil, errors.New("rcds: not a request")
	case id == 0:
		return nil, s.applyPosted(sc, xdr.NewDecoder(body[1:]))
	}
	beginFrame(&sc.resp)
	at := sc.resp.Len()
	if err := s.dispatch(&sc.resp, id, xdr.NewDecoder(body), park); err != nil {
		sc.resp.Truncate(at)
		respondErr(&sc.resp, id, err)
	}
	return sc.resp.Bytes()[at:], nil
}

// applyPosted applies one posted Apply and, if any op was news here,
// queues it for relay (less the sender), so partially connected groups
// converge quickly. An Apply that leaves an op above its origin's
// contiguous mark wakes the pull loop. An Apply that names no sender is
// refused unread.
func (s *Server) applyPosted(sc *served, d *xdr.Decoder) error {
	from, err := d.BytesMax(maxWireURI)
	if err == nil && len(from) == 0 {
		err = errors.New("rcds: apply without a sender origin")
	}
	if err != nil {
		return err
	}
	ops, changed, err := s.store.applyEncoded(d, sc.ops)
	if err != nil {
		return err
	}
	sc.ops = ops
	s.mAppliesRecv.Inc()
	if s.store.above.Load() > 0 {
		signal(s.hole)
	}
	if changed > 0 {
		if sc.from != string(from) {
			sc.from = string(from)
		}
		s.enqueuePush(ops, sc.from)
	}
	return nil
}

// dispatch executes one request other than Apply — d is at its command —
// and builds the response to id in e. An error is the caller's to make
// the response. park is serve's.
func (s *Server) dispatch(e *xdr.Encoder, id uint64, d *xdr.Decoder, park <-chan struct{}) error {
	cmd, err := d.Uint8()
	if err != nil {
		return err
	}
	switch cmd {
	case cmdSet, cmdAdd, cmdAddSigned, cmdRemove, cmdRemoveAll, cmdGet, cmdValues, cmdFirst:
		return s.dispatchURI(e, id, cmd, d)

	case cmdPing:
		respond(e, id, statusOK)
		e.PutString(s.store.Origin())

	case cmdURIs:
		prefix, err := d.StringMax(maxWireURI)
		if err != nil {
			return err
		}
		respond(e, id, statusOK)
		e.PutStringSlice(s.store.URIs(prefix))

	case cmdCatchup:
		theirs, err := DecodeVersionVector(d)
		if err != nil {
			return err
		}
		max, err := d.Uint32()
		if err != nil {
			return err
		}
		respond(e, id, statusOK)
		if !s.store.CanServeTail(theirs) {
			// The requester is below our compaction floor: it must page
			// the snapshot (cmdSnapshotPage) before pulling the tail.
			e.PutUint8(catchupModeSnapshot)
			return nil
		}
		s.mTailPulls.Inc()
		e.PutUint8(catchupModeTail)
		EncodeAssertions(e, s.store.OpsSince(theirs, int(max)))

	case cmdWait:
		since, err := d.Uint64()
		if err != nil {
			return err
		}
		timeoutMs, err := d.Uint32()
		if err != nil {
			return err
		}
		v := s.store.Version()
		if park != nil {
			v = s.store.WaitVersionCancel(since, time.Duration(timeoutMs)*time.Millisecond, park)
		}
		respond(e, id, statusOK)
		e.PutUint64(v)

	case cmdStats:
		uris, elems, tombs := s.store.Stats()
		respond(e, id, statusOK)
		e.PutUint32(uint32(uris))
		e.PutUint32(uint32(elems))
		e.PutUint32(uint32(tombs))

	case cmdSnapshotPage:
		afterURI, err := d.StringMax(maxWireURI)
		if err != nil {
			return err
		}
		max, err := d.Uint32()
		if err != nil {
			return err
		}
		s.mSnapPages.Inc()
		ops, next, vv := s.store.SnapshotPage(afterURI, int(max))
		respond(e, id, statusOK)
		vv.Encode(e)
		e.PutString(next)
		EncodeAssertions(e, ops)

	default:
		return fmt.Errorf("unknown command %d", cmd)
	}
	return nil
}

// dispatchURI is dispatch for the commands on one URI, d at the URI. The
// URI is looked up where it lies and served under the store's own copy of
// it; of a write, the value is the one string copied out of the frame.
func (s *Server) dispatchURI(e *xdr.Encoder, id uint64, cmd uint8, d *xdr.Decoder) error {
	b, err := d.BytesMax(maxWireURI)
	if err != nil {
		return err
	}
	uri := s.store.key(b)
	if s.wrongShard(e, id, uri) {
		return nil
	}
	if cmd == cmdGet {
		respond(e, id, statusOK)
		s.store.encodeLive(e, uri, "", true, func(a Assertion, e *xdr.Encoder) { a.Encode(e) })
		return nil
	}
	name, err := decodeName(d)
	if err != nil {
		return err
	}
	ops := make([]Assertion, 1) // the op a write makes, on this stack, or RemoveAll's
	switch cmd {
	case cmdValues:
		respond(e, id, statusOK)
		s.store.encodeLive(e, uri, name, false, func(a Assertion, e *xdr.Encoder) { e.PutString(a.Value) })
		return nil
	case cmdFirst:
		v, ok := s.store.FirstValue(uri, name)
		respond(e, id, statusOK)
		e.PutBool(ok)
		e.PutString(v)
		return nil
	case cmdRemoveAll:
		ops = s.store.RemoveAll(uri, name)
	default:
		value, err := d.StringMax(maxWireValue)
		if err != nil {
			return err
		}
		switch cmd {
		case cmdSet:
			ops[0] = s.store.Set(uri, name, value)
		case cmdAdd:
			ops[0] = s.store.Add(uri, name, value)
		case cmdRemove:
			if op, made := s.store.Remove(uri, name, value); made {
				ops[0] = op
			} else {
				ops = nil
			}
		case cmdAddSigned:
			signer, err := d.StringMax(maxWireURI)
			if err != nil {
				return err
			}
			sig, err := d.BytesCopyMax(maxWireSig)
			if err != nil {
				return err
			}
			ops[0] = s.store.AddSigned(uri, name, value, signer, sig)
		}
	}
	s.enqueuePush(ops, "")
	respond(e, id, statusOK)
	return nil
}

// enqueuePush queues copies of ops for asynchronous push replication, on
// every peer's pusher; from is the origin of the replica that pushed them
// here, "" for a write accepted here. It never blocks: past
// maxPendingPushOps the ops are left to that peer's pulls alone.
func (s *Server) enqueuePush(ops []Assertion, from string) {
	if len(ops) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.pushers {
		if len(p.pending)+len(ops) > maxPendingPushOps {
			s.pushFail++
			continue
		}
		for i := range ops {
			p.pending = append(p.pending, queuedOp{ops[i], from})
		}
		signal(p.wake)
	}
}

// countPushFail records one push left to a pull.
func (s *Server) countPushFail() {
	s.mu.Lock()
	s.pushFail++
	s.mu.Unlock()
}

// pusher is one peer's replication link: the client that pushes go out on
// and pulls ask through, the ops queued for it, the token that wakes its
// goroutine (push), and how to stop it. An idle pusher holds no ops.
type pusher struct {
	peer    string
	c       *Client       // closed when push returns
	origin  string        // the peer's, "" until a Ping tells and after a failed push; push's alone
	pending []queuedOp    // guarded by Server.mu; at most maxPendingPushOps
	wake    chan struct{} // one token: pending is non-empty
	stop    context.CancelFunc
}

// push forwards p's queued ops to its peer until ctx ends: each time it
// wakes it takes the whole pending list and posts one Apply with the ops
// that are news there — a write, not a round trip, and a link's frames
// are applied in the order queued. Every peer has its own pusher, so a
// peer whose socket buffer is full holds up only its own pushes; its list
// fills to maxPendingPushOps and the rest is its pulls'. A batch is not
// sent back to the replica it came from, nor an op to the replica that
// minted it: on a two-replica group a relayed write goes nowhere, on a
// chain it only travels away from its source. A peer whose origin is not
// yet known (its Ping failed) is sent everything: an echo, and nothing
// lost.
func (s *Server) push(ctx context.Context, p *pusher) {
	defer s.wg.Done()
	defer p.c.Close()
	var queued []queuedOp // the list taken; its storage goes back as the next
	var ops []Assertion   // the peer's share of it
	for {
		select {
		case <-ctx.Done():
			return
		case <-p.wake:
		}
		s.mu.Lock()
		queued, p.pending = p.pending, queued
		s.mu.Unlock()
		ops = s.pushTo(ctx, p, queued, ops)
		queued, ops = keptOps(queued), keptOps(ops) // the storage is reused; the ops are not kept
	}
}

// pushTo posts p's peer its share of queued, gathered in ops' storage
// (which it returns), in one Apply. Ops written into a connection that then
// dies count as sent; the next Apply the peer gets shows it the hole, or
// its next timed pull fetches them.
func (s *Server) pushTo(ctx context.Context, p *pusher, queued []queuedOp, ops []Assertion) []Assertion {
	if s.peerGate != nil && s.peerGate(p.peer) != nil {
		// Link severed (netsim partition): count it as a lost push and
		// leave repair to the pulls after healing.
		s.countPushFail()
		return ops
	}
	if p.origin == "" {
		pingCtx, cancel := context.WithTimeout(ctx, pushTimeout)
		p.origin, _ = p.c.Ping(pingCtx) // on error it stays unknown and nothing is filtered
		cancel()
	}
	ops = opsFor(ops, queued, p.origin)
	s.mRelaySkip.Add(uint64(len(queued) - len(ops)))
	if len(ops) == 0 {
		return ops
	}
	if err := p.c.Apply(ctx, s.store.Origin(), ops); err != nil {
		p.origin = "" // whoever answers next is asked again
		s.countPushFail()
		return ops
	}
	s.mAppliesSent.Inc()
	s.mOpsSent.Add(uint64(len(ops)))
	return ops
}

// opsFor appends to ops, and returns, the queued ops that are news to the
// peer with the given origin: all but those the peer itself pushed here
// and those it minted. An unknown origin ("") leaves out none.
func opsFor(ops []Assertion, queued []queuedOp, origin string) []Assertion {
	for i := range queued {
		if q := &queued[i]; origin == "" || (q.from != origin && q.op.Origin != origin) {
			ops = append(ops, q.op)
		}
	}
	return ops
}

// pullLoop is the server's one pull (DESIGN.md "Replication repair"). A
// pass runs at once when a pusher starts or an Apply leaves a hole the
// store still reports, else when the timer is due. It has no deadline — a
// rejoin snapshot at catalog scale is many page round trips, which a cut
// would discard before MergeVector banked them — but each RPC in it is
// bounded by pushTimeout, and Close ends it through ctx.
func (s *Server) pullLoop(ctx context.Context) {
	defer s.wg.Done()
	due := time.NewTimer(pullPeriod)
	defer func() { due.Stop() }()
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.newPeer:
		case <-s.hole:
			if s.store.above.Load() == 0 {
				continue // a relayed op arrived ahead of its predecessor, which followed
			}
			s.mHolePulls.Inc()
		case <-due.C:
		}
		next := s.pullPass(ctx)
		due.Stop() // a tick it made during the pass goes with it
		due = time.NewTimer(next)
	}
}

// pullPass runs SyncFromPeer through each pusher's client in turn and
// returns when the next timed pass is due: sooner if a pull failed or the
// gate skipped it.
func (s *Server) pullPass(ctx context.Context) time.Duration {
	s.mu.Lock()
	links := slices.Clone(s.pushers)
	s.mu.Unlock()
	next := pullPeriod
	for _, p := range links {
		if s.peerGate != nil && s.peerGate(p.peer) != nil {
			next = pullRetry // link severed
			continue
		}
		s.mPulls.Inc()
		if _, err := SyncFromPeer(ctx, s.store, p.c, 0); err != nil {
			next = pullRetry // peer down, its pusher stopped, or Close
		}
	}
	return next
}

// compactLoop every compactPeriod drops op-log entries more than
// compactKeep below each origin's contiguous mark. Bounding the log is
// what makes 1M+-URI catalogs viable: without it every write ever made
// stays resident and every rejoin replays it.
func (s *Server) compactLoop(ctx context.Context) {
	defer s.wg.Done()
	ticker := time.NewTicker(compactPeriod)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			s.store.Compact(s.compactKeep)
		}
	}
}
