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

// A pusher tries again redialBackoff after a failed or gated push or a link
// it broke (DESIGN.md "Replication repair"): the one timer of replication.
const redialBackoff = 250 * time.Millisecond

// maxKeptOps is maxKeptBuffer for a reused slice of 136-byte Assertions:
// a connection's decoded Apply, a pusher's batch.
const maxKeptOps = maxKeptBuffer / 136

// keptOps clears ops, which keep strings alive, and returns the storage
// for reuse, or nil if it grew past maxKeptOps.
func keptOps[T any](ops []T) []T {
	if cap(ops) > maxKeptOps {
		return nil
	}
	clear(ops)
	return ops[:0]
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

// WithLogCompaction bounds each origin's op log in the store to keepTail +
// 64 ops: the write that takes it past that drops the whole 64-seq chunks
// below mark − keepTail. Replicas that fall below the resulting floor
// catch up via snapshot (SyncFromPeer) instead of history replay.
func WithLogCompaction(keepTail int) ServerOption {
	return func(s *Server) { s.store.compactTo(keepTail) }
}

// shardConfig is a server's sharding stance: its own group and the map.
type shardConfig struct {
	self int
	m    *ShardMap
}

// Server is one RC/metadata server replica: it serves the catalog
// protocol on a TCP listener, pushes its op log's tail to each peer, and
// pulls from its peers when a push link opens, so that replicas converge —
// the master–master model of §7.
type Server struct {
	store  *Store
	secret []byte
	peers  []string
	// peerGate is consulted before every push or pull exchange with a
	// peer: while it returns an error the exchange is skipped, modelling a
	// severed replication link. It passes all unless the package's
	// partition tests set it before Start.
	peerGate func(peer string) error
	linkUp   chan struct{} // one token: a push link opened, from here or to here, so pull at once
	pushFail atomic.Int64  // push attempts that failed or were gated; each is tried again

	mu      sync.Mutex
	shard   *shardConfig // nil = unsharded
	ln      net.Listener
	conns   map[net.Conn]struct{}
	stop    context.CancelFunc // ends the pull loop; nil until Start
	wg      sync.WaitGroup
	stopped bool
	pushers []*pusher // one per peer address while the server runs

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
}

// NewServer creates a server over store. Call Start to begin serving.
func NewServer(store *Store, opts ...ServerOption) *Server {
	s := &Server{
		store:    store,
		peerGate: func(string) error { return nil },
		linkUp:   make(chan struct{}, 1),
		conns:    make(map[net.Conn]struct{}),
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

// Store returns the server's underlying replica store. A write made on it
// directly is pushed as one made through the server is.
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
// running ones kept with their marks; a new one starts at the store's
// marks. A server that has not started, or has stopped, runs none. Caller
// holds s.mu.
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
			ctx, stop := context.WithCancel(context.Background())
			p := &pusher{peer: peer, c: NewClient([]string{peer}, s.secret), stop: stop,
				batch: pushBatch{mark: s.store.marks()}, w: &waiter{pusher: true, wake: make(chan struct{}, 1)}}
			s.pushers = append(s.pushers, p)
			s.wg.Add(1)
			go s.push(ctx, p)
		}
	}
}

// PushFailures reports how many push attempts failed or were gated, each
// tried again by its pusher.
func (s *Server) PushFailures() int { return int(s.pushFail.Load()) }

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
// the only goroutines it can hold, one each. A Wait past the bound is
// answered at once with the current version, a legal long-poll answer.
const maxParkedWaits = 1024

// served is what a connection's read loop owns and reuses from frame to
// frame, beside the frame's own storage, so that a request costs the server
// only what the store keeps of it; each holds what the connection's frames
// have needed, up to maxKeptBuffer, and nothing ahead of the first.
type served struct {
	resp   xdr.Encoder // the responses to the frames of one read, framed one after another, until they are written
	ops    []Assertion // a posted Apply's ops, until they are merged
	linked bool        // an Apply has arrived: the connection is a peer's push link
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

// applyPosted applies one posted Apply, logging its ops as arrived from
// the sender it names, whose merge wakes the pushers owed them (Store
// waiters). The first Apply on a connection, which opens a peer's push
// link and may carry nothing, wakes the pull loop. An Apply that names no
// sender is refused unread.
func (s *Server) applyPosted(sc *served, d *xdr.Decoder) error {
	from, err := d.BytesMax(maxWireURI)
	if err == nil && len(from) == 0 {
		err = errors.New("rcds: apply without a sender origin")
	}
	if err != nil {
		return err
	}
	if sc.ops, err = s.store.applyEncoded(d, from, sc.ops); err != nil {
		return err
	}
	if !sc.linked {
		sc.linked = true
		signal(s.linkUp)
	}
	if len(sc.ops) > 0 {
		s.mAppliesRecv.Inc()
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
			v = s.store.waitVersion(since, time.Duration(timeoutMs)*time.Millisecond, park)
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
		s.store.RemoveAll(uri, name)
	default:
		value, err := d.StringMax(maxWireValue)
		if err != nil {
			return err
		}
		switch cmd {
		case cmdSet:
			s.store.Set(uri, name, value)
		case cmdAdd:
			s.store.Add(uri, name, value)
		case cmdRemove:
			s.store.Remove(uri, name, value)
		case cmdAddSigned:
			signer, err := d.StringMax(maxWireURI)
			if err != nil {
				return err
			}
			sig, err := d.BytesCopyMax(maxWireSig)
			if err != nil {
				return err
			}
			s.store.AddSigned(uri, name, value, signer, sig)
		}
	}
	respond(e, id, statusOK)
	return nil
}

// errRelink reports a link pushDue broke, for the next link's pulls.
var errRelink = errors.New("rcds: push link to be opened anew")

// pusher is one peer's replication link: the client that pushes go out on
// and pulls ask through, the store waiter that wakes its goroutine (push),
// the pull loop's word on its link, and how to stop it. The rest is push's.
type pusher struct {
	peer   string
	c      *Client     // closed when push returns
	w      *waiter     // a token when the log may hold ops due; its peer's origin, asked on each new link
	relink atomic.Bool // the last pull through c failed
	stop   context.CancelFunc

	batch pushBatch   // its place in the log, moved only by a push that went out
	link  *clientConn // the connection the last Apply went out on
}

// push keeps p's peer level with the store's log until ctx ends (DESIGN.md
// "Replication repair"), each wake one pushDue: a peer whose socket buffer
// is full holds up only its own pusher. A failed or gated push, or a link
// it broke, is tried again redialBackoff later; one that ends idle at once.
func (s *Server) push(ctx context.Context, p *pusher) {
	defer s.wg.Done()
	defer p.c.Close()
	defer s.store.Unsubscribe(s.store.wait(p.w))
	signal(p.w.wake) // the first link opens at once
	for {
		var ended <-chan struct{}
		if p.link != nil {
			ended = p.link.done
		}
		select {
		case <-ctx.Done():
			return
		case <-p.w.wake:
		case <-ended:
			p.link = nil
		}
		if err := s.pushDue(ctx, p); err != nil && ctx.Err() == nil {
			if err != errRelink {
				s.pushFail.Add(1)
			}
			select { // the retry takes whatever fell due meanwhile
			case <-ctx.Done():
				return
			case <-time.After(redialBackoff):
				signal(p.w.wake)
			}
		}
	}
}

// pushDue posts p's peer the ops it is owed (Store.owed) in one Apply —
// a write, not a round trip — and then moves p's mark past them. A link
// that is down is opened: it asks the peer's origin, opens with an Apply,
// empty if nothing is due, and wakes the pull loop. A link whose mark lies
// under the compaction floor (reset on the next link) or whose last pull
// failed is broken, for the next link's pulls. An error keeps the mark.
func (s *Server) pushDue(ctx context.Context, p *pusher) error {
	b, cc := &p.batch, p.link
	if cc != nil {
		if s.store.owed(b, p.w); b.below || p.relink.Swap(false) {
			cc.fail(errRelink)
			p.link = nil
			return errRelink
		}
	}
	if cc == nil || len(b.ops) > 0 {
		if err := s.peerGate(p.peer); err != nil {
			return err // link severed (netsim partition)
		}
		if cc == nil {
			var err error
			if cc, err = p.c.getConn(ctx, p.c.seed); err != nil {
				return err
			}
			p.relink.Store(false) // this link's pulls are the retry
			pingCtx, cancel := context.WithTimeout(ctx, pushTimeout)
			origin, _ := p.c.Ping(pingCtx) // on error it is unknown, and nothing is left out
			cancel()
			s.store.setPeer(p.w, origin)
			s.store.owed(b, p.w)
		}
		if err := p.c.post(cc, s.store.Origin(), b.ops); err != nil {
			p.link = nil
			return err
		}
		if len(b.ops) > 0 {
			s.mAppliesSent.Inc()
			s.mOpsSent.Add(uint64(len(b.ops)))
		}
		if p.link == nil {
			p.link = cc
			signal(s.linkUp)
		}
	}
	b.mark, b.next = b.next, b.mark
	s.mRelaySkip.Add(uint64(b.skipped))
	if b.more {
		signal(p.w.wake) // the cap left ops due
	}
	return nil
}

// pullLoop is the server's one pull (DESIGN.md "Replication repair"): each
// time a push link opens, here or at a peer, it runs SyncFromPeer through
// each pusher's client in turn; the store wakes the pushers owed what it
// brought.
// A pass has no deadline — a catalog-scale rejoin snapshot is many page
// round trips, which a cut would discard before MergeVector banked them —
// but each RPC in it is bounded by pushTimeout, and Close ends it via ctx;
// a pull that fails has its pusher open its link anew, to pull again.
func (s *Server) pullLoop(ctx context.Context) {
	defer s.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.linkUp:
		}
		s.mu.Lock()
		links := slices.Clone(s.pushers)
		s.mu.Unlock()
		whole := len(links) > 0 // every peer pulled: a restored store's own ops may be at any
		for _, p := range links {
			err := s.peerGate(p.peer) // non-nil: the link is severed
			if err == nil {
				s.mPulls.Inc()
				err = SyncFromPeer(ctx, s.store, p.c, 0)
				if p.relink.Store(err != nil); err != nil { // peer down or stalled, or outrun by compaction
					signal(p.w.wake) // to open the link anew
				}
			}
			whole = whole && err == nil
		}
		if whole {
			s.store.pulled()
		}
	}
}
