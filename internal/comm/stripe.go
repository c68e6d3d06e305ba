package comm

import (
	"fmt"
	"sync"
	"time"
)

// Multi-path striped transmission. A large message to a multi-homed
// peer is fragmented once (at the smallest MTU among the participating
// routes, so every transmission of the message shares one fragment
// geometry) and the fragments are pulled by one worker goroutine per
// route: each worker keeps up to stripeWindow fragments in flight and
// pulls the next queued fragment as its per-fragment acknowledgements
// come back, so faster media naturally carry more of the message. A
// route that fails mid-stripe — a send error, or no acknowledgement
// progress for the stall window — has its in-flight fragments requeued
// onto the surviving routes. Exactly-once delivery never depends on
// any of this: the receiver reassembles by (src, dst, seq, fragment)
// and deduplicates by sequence number, and the whole-message retry
// path remains the loss backstop, so striping can only add bandwidth,
// not failure modes.

const (
	// stripeThreshold is the payload size at or above which a message to
	// a multi-homed peer is striped; smaller messages always use the
	// single-route failover path.
	stripeThreshold = 256 << 10
	// stripeWindow bounds how many fragments each route keeps in flight
	// (sent but not yet fragment-acknowledged) during a stripe.
	stripeWindow = 32
)

// Fragment lifecycle inside one stripe.
const (
	fragQueued   uint8 = iota // awaiting a route
	fragReserved              // claimed by a worker, send in progress
	fragSent                  // pushed into a conn, awaiting frag-ack
	fragAcked                 // acknowledged by the receiver
)

// stripeState tracks one striped message in flight.
type stripeState struct {
	mu     sync.Mutex
	frags  []*msgFrame
	state  []uint8  // per-fragment lifecycle
	route  []string // per-fragment owning route while reserved/sent
	sentAt []time.Time

	queue    []int          // fragment indices awaiting a route (LIFO)
	perRoute map[string]int // route key → fragments reserved or sent
	failed   map[string]bool
	unsent   int // fragments in fragQueued or fragReserved
	acked    int
	requeues int
	canceled bool

	// lastAck is the stall clock: the last time acknowledgement
	// progress was made (or stalled routes were failed, which restarts
	// the clock for the survivors). Only acks — not sends — count as
	// progress, so a sender that keeps pushing fragments into a black
	// hole still trips the stall window.
	lastAck time.Time

	// gen/waitCh implement a timed condition wait (sync.Cond cannot):
	// every state change bumps gen and closes waitCh.
	gen    uint64
	waitCh chan struct{}
}

func newStripe(frags []*msgFrame) *stripeState {
	s := &stripeState{
		frags:    frags,
		state:    make([]uint8, len(frags)),
		route:    make([]string, len(frags)),
		sentAt:   make([]time.Time, len(frags)),
		queue:    make([]int, len(frags)),
		perRoute: make(map[string]int),
		failed:   make(map[string]bool),
		unsent:   len(frags),
		lastAck:  time.Now(),
		waitCh:   make(chan struct{}),
	}
	for i := range frags {
		s.queue[i] = i
	}
	return s
}

// broadcastLocked wakes every timed waiter. Caller holds s.mu.
func (s *stripeState) broadcastLocked() {
	s.gen++
	close(s.waitCh)
	s.waitCh = make(chan struct{})
}

// next claims the next queued fragment for the worker on routeKey,
// honouring its in-flight window. It blocks while the worker has
// nothing to do but the stripe is still in progress. Returns ok=false
// when the worker should exit: the stripe is complete or canceled,
// the route has been declared failed, or no acknowledgement has
// arrived for a full stall window (in which case every route with
// fragments in flight — possibly including this one — is failed and
// requeued, and surviving callers re-enter to pick the fragments up).
func (s *stripeState) next(routeKey string, window int, stall time.Duration) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.canceled || s.unsent == 0 || s.failed[routeKey] {
			return 0, false
		}
		if len(s.queue) > 0 && s.perRoute[routeKey] < window {
			idx := s.queue[len(s.queue)-1]
			s.queue = s.queue[:len(s.queue)-1]
			s.state[idx] = fragReserved
			s.route[idx] = routeKey
			s.sentAt[idx] = time.Now()
			s.perRoute[routeKey]++
			return idx, true
		}
		// The stall deadline is measured from the last *acknowledgement*
		// (sends into a dead conn must not feed the clock), and every
		// worker waits on the same absolute deadline, so no worker
		// sleeping through a broadcast can push it back.
		now := time.Now()
		deadline := s.lastAck.Add(stall)
		if !now.Before(deadline) {
			// Acknowledgements have dried up for a full stall window.
			// Fail every route still holding fragments and restart the
			// stall clock for the survivors; the whole-message retry
			// path recovers if none survive.
			for key, n := range s.perRoute {
				if n > 0 && !s.failed[key] {
					s.failRouteLocked(key)
				}
			}
			s.lastAck = now
			if s.failed[routeKey] {
				return 0, false
			}
			continue
		}
		s.waitLocked(deadline.Sub(now))
		// Re-check everything from the top: a cancel, completion or
		// requeue may have arrived while waiting, and the stall clock
		// may have been fed. (The old code treated *any* wakeup —
		// including mere sends — as progress, so a stripe pushing
		// fragments without ever being acked never tripped the stall,
		// and a cancel racing the timer could strand the decision a
		// full extra window.)
	}
}

// waitLocked releases s.mu until the stripe's state changes or d
// elapses, then reacquires it. Callers re-derive what happened from
// state; the wakeup itself carries no verdict.
func (s *stripeState) waitLocked(d time.Duration) {
	ch := s.waitCh
	s.mu.Unlock()
	t := time.NewTimer(d)
	select {
	case <-ch:
	case <-t.C:
	}
	t.Stop()
	s.mu.Lock()
}

// sent marks a reserved fragment as pushed into its conn. If the
// fragment was re-assigned (its first route was declared stalled and
// stole back the reservation) or already acknowledged, this is a no-op.
func (s *stripeState) sent(routeKey string, idx int) {
	s.mu.Lock()
	if s.state[idx] == fragReserved && s.route[idx] == routeKey {
		s.state[idx] = fragSent
		s.unsent--
		s.broadcastLocked()
	}
	s.mu.Unlock()
}

// ackFrag records the receiver's per-fragment acknowledgement,
// returning the observation to feed the route scorer.
func (s *stripeState) ackFrag(idx int) (routeKey string, bytes int, elapsed time.Duration, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if idx < 0 || idx >= len(s.frags) || s.state[idx] == fragAcked {
		return "", 0, 0, false
	}
	prev := s.state[idx]
	routeKey = s.route[idx]
	if prev == fragQueued {
		// Acked before any worker claimed it (a duplicate transmission
		// from an earlier whole-message attempt landed): pull it out of
		// the queue so no worker sends it again.
		for i, q := range s.queue {
			if q == idx {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		s.unsent--
	}
	if prev == fragReserved {
		s.unsent--
	}
	if prev == fragReserved || prev == fragSent {
		s.perRoute[routeKey]--
	}
	s.state[idx] = fragAcked
	s.acked++
	s.lastAck = time.Now()
	s.broadcastLocked()
	return routeKey, len(s.frags[idx].Payload), time.Since(s.sentAt[idx]), routeKey != ""
}

// failRoute declares a route dead mid-stripe and requeues its
// fragments on the survivors. Returns how many fragments were
// requeued.
func (s *stripeState) failRoute(routeKey string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failRouteLocked(routeKey)
}

func (s *stripeState) failRouteLocked(routeKey string) int {
	if s.failed[routeKey] {
		return 0
	}
	s.failed[routeKey] = true
	n := 0
	for idx := range s.frags {
		if s.route[idx] != routeKey {
			continue
		}
		switch s.state[idx] {
		case fragSent:
			s.unsent++
			fallthrough
		case fragReserved:
			s.state[idx] = fragQueued
			s.route[idx] = ""
			s.queue = append(s.queue, idx)
			n++
		}
	}
	s.perRoute[routeKey] = 0
	s.requeues += n
	s.broadcastLocked()
	return n
}

// cancel ends the stripe early (whole-message ack arrived, or the
// endpoint is closing); workers drain out on their next pull.
func (s *stripeState) cancel() {
	s.mu.Lock()
	s.canceled = true
	s.broadcastLocked()
	s.mu.Unlock()
}

// complete reports whether every fragment was pushed into a live conn
// (or the stripe was made moot by a whole-message ack).
func (s *stripeState) complete() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.canceled || s.unsent == 0
}

// remainingUnsent reports fragments never successfully handed to any
// conn.
func (s *stripeState) remainingUnsent() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.unsent
}

// transmitStriped attempts to send om by striping it across every
// healthy direct route. It reports handled=false when striping does
// not apply (fewer than two live direct routes, or the message
// fragments too coarsely to split) — the caller then runs the
// single-route failover path. When handled, the returned error is nil
// once every fragment has been accepted by a live conn; per-fragment
// acknowledgements, requeues and the whole-message retry complete the
// reliability story asynchronously.
func (e *Endpoint) transmitStriped(om *outMsg, local []Route, routes routeSet) (handled bool, err error) {
	type routeConn struct {
		key  string
		conn FrameConn
	}
	var rcs []routeConn
	minMTU := 0
	m := &om.msg
	hdr := msgFrameOverhead + len(m.Src) + len(m.Dst)
	var scratch [maxStackRoutes]rankedRoute
	for _, route := range e.rankRoutes(local, routes, scratch[:0]) {
		if route.Transport == GatewayTransport {
			continue // relayed paths don't participate in stripes
		}
		conn, err := e.getConn(route.Route, route.key)
		if err != nil {
			e.observeRouteError(route.key)
			continue
		}
		mtu := conn.MTU() - hdr
		if mtu < 16 {
			continue
		}
		rcs = append(rcs, routeConn{route.key, conn})
		if minMTU == 0 || mtu < minMTU {
			minMTU = mtu
		}
	}
	if len(rcs) < 2 {
		return false, nil
	}
	frags := fragment(m.Src, m.Dst, m.Tag, m.Seq, m.Payload, minMTU, flagStriped)
	if len(frags) < 2 {
		return false, nil
	}
	s := newStripe(frags)
	skey := reasmKey{m.Src, m.Dst, m.Seq}
	if e.closed.Load() {
		return true, ErrClosed
	}
	e.stripeMu.Lock()
	e.stripes[skey] = s
	e.stripeMu.Unlock()
	e.mStriped.Inc()
	defer func() {
		e.stripeMu.Lock()
		if e.stripes[skey] == s {
			delete(e.stripes, skey)
		}
		e.stripeMu.Unlock()
	}()

	// The stall window adapts to the participating routes: once they
	// have RTT history, waiting a fixed multi-second window to declare
	// a microsecond-RTT route dead wastes the whole transfer's latency
	// budget.
	keys := make([]string, len(rcs))
	for i, rc := range rcs {
		keys[i] = rc.key
	}
	stall := e.stripeStallFor(keys)

	// A whole-message ack (e.g. the receiver had already accepted this
	// sequence from an earlier attempt) or endpoint shutdown moots the
	// stripe.
	stop := make(chan struct{})
	go func() {
		select {
		case <-om.acked:
			s.cancel()
		case <-e.done:
			s.cancel()
		case <-stop:
		}
	}()

	var wg sync.WaitGroup
	for _, rc := range rcs {
		wg.Add(1)
		go func(rc routeConn) {
			defer wg.Done()
			e.stripeWorker(s, rc.key, rc.conn, stall)
		}(rc)
	}
	wg.Wait()
	close(stop)

	if requeued := s.requeues; requeued > 0 {
		e.mFragRequeues.Add(uint64(requeued))
	}
	if !s.complete() {
		e.invalidateRoutes(m.Dst)
		return true, fmt.Errorf("comm: stripe to %s: %d of %d fragments unsent after route failures",
			m.Dst, s.remainingUnsent(), len(frags))
	}
	return true, nil
}

// stripeStallMin floors the adaptive stall window: below this, benign
// scheduling hiccups would fail healthy routes.
const stripeStallMin = 50 * time.Millisecond

// stripeStallFor derives the stall window for a stripe across the
// given routes: 8× the slowest participating route's EWMA ack RTT —
// several losses deep, but proportionate to the media — clamped to
// [stripeStallMin, e.stripeStall]. Routes without enough history
// contribute nothing; with no history at all, the configured ceiling
// applies unchanged.
func (e *Endpoint) stripeStallFor(routeKeys []string) time.Duration {
	var maxRTTUs float64
	e.scoreMu.Lock()
	for _, key := range routeKeys {
		if s := e.scores[key]; s != nil && s.samples >= scoreMinSamples && s.rttUs > maxRTTUs {
			maxRTTUs = s.rttUs
		}
	}
	e.scoreMu.Unlock()
	if maxRTTUs <= 0 {
		return e.stripeStall
	}
	stall := time.Duration(maxRTTUs*8) * time.Microsecond
	if stall < stripeStallMin {
		stall = stripeStallMin
	}
	if stall > e.stripeStall {
		stall = e.stripeStall
	}
	return stall
}

// stripeWorker pulls fragments for one route until the stripe
// completes or the route dies.
func (e *Endpoint) stripeWorker(s *stripeState, routeKey string, conn FrameConn, stall time.Duration) {
	enc := getFrameEncoder()
	defer putFrameEncoder(enc)
	for {
		idx, ok := s.next(routeKey, stripeWindow, stall)
		if !ok {
			return
		}
		if err := conn.Send(encodeMsgFrameInto(enc, s.frags[idx], nil)); err != nil {
			e.mSendErrors.Inc()
			e.observeRouteError(routeKey)
			e.dropConn(routeKey, conn)
			s.failRoute(routeKey)
			return
		}
		e.mFragments.Inc()
		s.sent(routeKey, idx)
	}
}
