package comm

import (
	"fmt"
	"sync"
	"time"
)

// Multi-path striped transmission. A large message to a multi-homed
// peer is cut at one fragment geometry — the smallest MTU among the
// participating routes, so every transmission of the message shares it
// — and each route has a worker that takes one fragment at a time and
// the next as soon as its conn's Send returns. Every FrameConn is
// reliable while it lives, and its own backpressure (a socket buffer,
// RUDP's window, a bounded channel) bounds what a route holds, so
// faster media carry more of the message with no fragment acknowledged
// on its own. The goroutine transmitting the message works the best
// route itself; each other route gets one goroutine, and none exists
// only to watch: a whole-message ack (handleAck) or Close cancels a
// registered stripe directly. A route fails mid-stripe on a Send error,
// or when its Send has not returned within the stall window: a worker
// with nothing left to take then closes the route's conn, which ends
// the Send. Either way every fragment the route carried in this stripe
// is requeued onto the survivors, since nothing says it arrived.
// Exactly-once delivery never depends on any of this: the receiver
// reassembles by (src, dst, seq, fragment) and deduplicates by sequence
// number, and the whole-message retry path remains the loss backstop —
// also for a route that takes every write and delivers nothing — so
// striping can only add bandwidth, not failure modes.
//
// A stripe is one record: its routes inline, one slot per fragment, and
// fragments cut from the message on demand (fragAt). The record is never
// recycled: handleAck and Close cancel a stripe they looked up outside
// stripeMu.

// stripeThreshold is the payload size at or above which a message to a
// multi-homed peer is striped; smaller messages always use the
// single-route failover path.
const stripeThreshold = 256 << 10

// Fragment lifecycle inside one stripe.
const (
	fragQueued   uint8 = iota // awaiting a route
	fragReserved              // claimed by a worker, its Send in progress
	fragSent                  // taken by its route's conn
)

// stripeRoute is one route taking part in a stripe. key and conn are
// fixed for the stripe's life; the rest is guarded by the stripe's mu.
type stripeRoute struct {
	key      string
	conn     FrameConn
	since    int64 // the stall clock (monoNow): when a Send began from idle, or the last one returned
	inFlight int32 // fragments reserved on this route: in its Send
	failed   bool
}

// clockBase anchors the stripes' stall clocks: monoNow is the monotonic
// time since it in nanoseconds, 8 bytes to a route where a time.Time
// would take 24.
var clockBase = time.Now()

func monoNow() int64 { return int64(time.Since(clockBase)) }

// fragSlot is one fragment's state. queued is a column of the stripe's
// queue, not of this fragment: the fragment indices awaiting a route are
// slots[:nQueued].queued, a LIFO stack sharing the slots' allocation.
type fragSlot struct {
	queued int32
	route  int32 // index into routes while reserved or sent, else -1
	state  uint8
}

// stripeState tracks one striped message in flight.
type stripeState struct {
	mu       sync.Mutex
	wg       sync.WaitGroup // the workers of routes 1…n−1
	msg      Message        // fragments are cut from it while the transmission holds its payload
	mtu      int            // payload bytes per fragment
	routes   []stripeRoute  // ranked best-first; routeBuf up to maxStackRoutes
	slots    []fragSlot
	nQueued  int
	unsent   int // fragments in fragQueued or fragReserved
	requeues int
	canceled bool
	wrote    bool // a conn has taken a fragment: the message's sequence number is spent

	// waitCh implements a timed condition wait (sync.Cond cannot): the
	// first worker to park makes it, the next state change closes it.
	// It is nil while no worker waits.
	waitCh chan struct{}

	routeBuf [maxStackRoutes]stripeRoute
}

// newStripe queues every fragment of m, cut at mtu payload bytes, for
// routes (ranked best-first; copied into the record).
func newStripe(m *Message, mtu int, routes []stripeRoute) *stripeState {
	s := &stripeState{msg: *m, mtu: mtu}
	s.routes = append(s.routeBuf[:0], routes...)
	s.slots = make([]fragSlot, fragCount(len(m.Payload), mtu))
	for i := range s.slots {
		s.slots[i].queued = int32(i)
		s.slots[i].route = -1
	}
	s.nQueued, s.unsent = len(s.slots), len(s.slots)
	return s
}

// broadcastLocked wakes every timed waiter. Caller holds s.mu.
func (s *stripeState) broadcastLocked() {
	if s.waitCh != nil {
		close(s.waitCh)
		s.waitCh = nil
	}
}

// next claims the next queued fragment for the worker on route ri, which
// may hold up to window of them reserved (a stripe worker holds one, from
// claiming it until its Send returns). It blocks while the worker has
// nothing to do but the stripe is still in progress, and returns ok=false
// when the worker should exit: the stripe is complete or canceled, or
// the route has been declared failed. A blocked worker also keeps the
// stall clock: a route whose Send has not returned for a full stall
// window is failed, its fragments requeued, and its conn closed, which
// makes the Send return.
func (s *stripeState) next(ri, window int, stall time.Duration) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := &s.routes[ri]
	for {
		if s.canceled || s.unsent == 0 || r.failed {
			return 0, false
		}
		now := monoNow()
		if s.nQueued > 0 && int(r.inFlight) < window {
			s.nQueued--
			idx := int(s.slots[s.nQueued].queued)
			sl := &s.slots[idx]
			sl.state, sl.route = fragReserved, int32(ri)
			if r.inFlight == 0 {
				r.since = now
			}
			r.inFlight++
			return idx, true
		}
		// Every worker derives the same deadline from the routes' own
		// clocks, so none sleeping through a broadcast can push it back.
		var stuckBuf [maxStackRoutes]FrameConn
		stuck, wake := stuckBuf[:0], now+int64(stall)
		for i := range s.routes {
			ro := &s.routes[i]
			if ro.inFlight == 0 {
				continue
			}
			if deadline := ro.since + int64(stall); now < deadline {
				wake = min(wake, deadline)
				continue
			}
			s.failRouteLocked(i)
			stuck = append(stuck, ro.conn)
		}
		if len(stuck) > 0 {
			s.mu.Unlock()
			for _, c := range stuck {
				c.Close()
			}
			s.mu.Lock()
			continue
		}
		// Re-check everything from the top after the wait: a cancel,
		// completion or requeue may have arrived.
		s.waitLocked(time.Duration(wake - now))
	}
}

// waitLocked releases s.mu until the stripe's state changes or d
// elapses, then reacquires it. Callers re-derive what happened from
// state; the wakeup itself carries no verdict.
func (s *stripeState) waitLocked(d time.Duration) {
	if s.waitCh == nil {
		s.waitCh = make(chan struct{})
	}
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

// sent records that route ri's conn took fragment idx, which restarts
// the route's stall clock. If the fragment was re-assigned meanwhile (its
// route was declared stalled and requeued it), the slot is left alone. A
// waiter cares about a send only when it was the last one.
func (s *stripeState) sent(ri, idx int) {
	s.mu.Lock()
	s.wrote = true
	if sl := &s.slots[idx]; sl.state == fragReserved && sl.route == int32(ri) {
		sl.state = fragSent
		s.unsent--
		r := &s.routes[ri]
		r.inFlight--
		r.since = monoNow()
		if s.unsent == 0 {
			s.broadcastLocked()
		}
	}
	s.mu.Unlock()
}

// failRoute declares route ri dead mid-stripe and requeues its
// fragments on the survivors.
func (s *stripeState) failRoute(ri int) {
	s.mu.Lock()
	s.failRouteLocked(ri)
	s.mu.Unlock()
}

func (s *stripeState) failRouteLocked(ri int) {
	r := &s.routes[ri]
	if r.failed {
		return
	}
	r.failed = true
	for idx := range s.slots {
		sl := &s.slots[idx]
		if sl.route != int32(ri) {
			continue
		}
		switch sl.state {
		case fragSent:
			s.unsent++
			fallthrough
		case fragReserved:
			sl.state, sl.route = fragQueued, -1
			s.slots[s.nQueued].queued = int32(idx)
			s.nQueued++
			s.requeues++
		}
	}
	r.inFlight = 0
	s.broadcastLocked()
}

// cancel ends the stripe early (whole-message ack arrived, or the
// endpoint is closing); workers drain out on their next pull.
func (s *stripeState) cancel() {
	s.mu.Lock()
	s.canceled = true
	s.broadcastLocked()
	s.mu.Unlock()
}

// transmitStriped attempts to send om by striping it across every
// healthy direct route. It reports handled=false when striping does
// not apply (fewer than two live direct routes, or the message
// fragments too coarsely to split) — the caller then runs the
// single-route failover path. When handled, the returned error is nil
// once every fragment has been taken by a live conn; the end-to-end ack
// and the whole-message retry complete the reliability story.
func (e *Endpoint) transmitStriped(om *outMsg, local []Route, routes routeSet) (handled bool, err error) {
	m := &om.msg
	hdr := msgFrameOverhead + len(m.Src) + len(m.Dst)
	var scratch [maxStackRoutes]rankedRoute
	var rbuf [maxStackRoutes]stripeRoute
	live := rbuf[:0]
	minMTU := 0
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
		live = append(live, stripeRoute{key: route.key, conn: conn})
		if minMTU == 0 || mtu < minMTU {
			minMTU = mtu
		}
	}
	if len(live) < 2 || fragCount(len(m.Payload), minMTU) < 2 {
		return false, nil
	}
	s := newStripe(m, minMTU, live)
	skey := reasmKey{m.Src, m.Dst, m.Seq}
	e.stripeMu.Lock()
	e.stripes[skey] = s
	e.stripeMu.Unlock()
	defer func() {
		e.stripeMu.Lock()
		if e.stripes[skey] == s {
			delete(e.stripes, skey)
		}
		e.stripeMu.Unlock()
	}()
	// From here on handleAck and Close cancel the stripe; an ack or a
	// Close that landed before it was registered is seen here instead.
	select {
	case <-e.done:
		return true, ErrClosed
	case <-om.acked:
		return true, nil
	default:
	}
	e.mStriped.Inc()

	// The stall window adapts to the participating routes: once they
	// have RTT history, waiting a fixed multi-second window to declare
	// a microsecond-RTT route dead wastes the whole transfer's latency
	// budget.
	stall := e.stripeStallFor(s.routes)
	for ri := 1; ri < len(s.routes); ri++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			e.stripeWorker(s, ri, stall)
		}()
	}
	e.stripeWorker(s, 0, stall)
	s.wg.Wait()

	s.mu.Lock()
	requeues, unsent, canceled := s.requeues, s.unsent, s.canceled
	if s.wrote {
		om.wrote.Store(true)
	}
	s.mu.Unlock()
	if requeues > 0 {
		e.mFragRequeues.Add(uint64(requeues))
	}
	if !canceled && unsent > 0 {
		e.invalidateRoutes(m.Dst)
		return true, fmt.Errorf("comm: stripe to %s: %d of %d fragments unsent after route failures",
			m.Dst, unsent, len(s.slots))
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
func (e *Endpoint) stripeStallFor(routes []stripeRoute) time.Duration {
	var maxRTTUs float64
	e.scoreMu.Lock()
	for i := range routes {
		if s := e.scores[routes[i].key]; s != nil && s.samples >= scoreMinSamples && s.rttUs > maxRTTUs {
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

// stripeWorker pulls fragments for route ri until the stripe completes
// or the route dies.
func (e *Endpoint) stripeWorker(s *stripeState, ri int, stall time.Duration) {
	r := &s.routes[ri]
	enc := getFrameEncoder()
	defer putFrameEncoder(enc)
	for {
		idx, ok := s.next(ri, 1, stall)
		if !ok {
			return
		}
		f := fragAt(&s.msg, idx, len(s.slots), s.mtu, 0)
		if err := r.conn.Send(encodeMsgFrameInto(enc, &f, nil)); err != nil {
			e.mSendErrors.Inc()
			e.observeRouteError(r.key)
			e.dropConn(r.key, r.conn)
			s.failRoute(ri)
			return
		}
		e.mFragments.Inc()
		s.sent(ri, idx)
	}
}
