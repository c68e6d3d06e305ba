package comm

import (
	"encoding/binary"
	"errors"
	"sync"
	"time"
)

// PacketLink is an unreliable, message-boundary-preserving datagram
// path: a connected UDP socket, or a netsim lossy pipe. The RUDP
// protocol below turns it into a reliable FrameConn.
type PacketLink interface {
	Send(p []byte) error
	Recv() ([]byte, error)
	SetReadDeadline(t time.Time)
	Close() error
	MTU() int
}

// RUDP packet types. The protocol is the paper's "selective re-send UDP
// protocol" (§6): a sliding-window ARQ where the receiver acknowledges
// with a cumulative sequence number plus a selective-ACK bitmap, and
// the sender re-sends exactly the missing packets (on a duplicate-SACK
// fast path or an adaptive retransmission timeout).
const (
	ptData uint8 = iota + 1
	ptAck
	ptFin
)

const (
	rudpHeader  = 5   // type + seq
	rudpWindow  = 128 // max unacknowledged data packets
	sackBits    = 64  // bitmap width
	dupAckRetx  = 2   // duplicate SACKs naming a hole before fast resend
	maxRetries  = 30  // give up after this many retransmissions
	minRTO      = 2 * time.Millisecond
	maxRTO      = 2 * time.Second
	initialRTO  = 50 * time.Millisecond
	retxTick    = time.Millisecond
	closeLinger = 3 // FIN transmissions on close
)

// ErrPeerGone indicates the peer stopped acknowledging entirely.
var ErrPeerGone = errors.New("comm: rudp peer unreachable")

type txEntry struct {
	packet    []byte
	sentAt    time.Time // last transmission
	firstSend time.Time
	retries   int
	missCount int // SACKs that implied this packet is missing
}

// rudpConn implements FrameConn over a PacketLink.
type rudpConn struct {
	link PacketLink

	mu   sync.Mutex
	cond *sync.Cond // window space / delivery / close

	// Sender state.
	nextSeq uint32
	unacked map[uint32]*txEntry
	rto     time.Duration
	srtt    time.Duration
	rttvar  time.Duration
	retxTot int // total retransmissions, for tests and stats

	// Receiver state.
	cumAck    uint32            // highest in-order sequence received
	outOfOrd  map[uint32][]byte // buffered out-of-order packets
	delivered [][]byte          // in-order frames awaiting Recv

	closed   bool
	peerFin  bool
	failed   error
	stopOnce sync.Once
	done     chan struct{}
	wg       sync.WaitGroup
}

// NewRUDPConn runs the selective-resend protocol over link. Both ends
// of a link must be wrapped. The returned FrameConn is ready
// immediately; no handshake is required (connection establishment, when
// needed, is the transport's job).
func NewRUDPConn(link PacketLink) FrameConn {
	c := &rudpConn{
		link:     link,
		nextSeq:  1,
		unacked:  make(map[uint32]*txEntry),
		rto:      initialRTO,
		outOfOrd: make(map[uint32][]byte),
		done:     make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	c.wg.Add(2)
	go c.readLoop()
	go c.retxLoop()
	return c
}

// MTU leaves room for the RUDP header within the link MTU.
func (c *rudpConn) MTU() int {
	m := c.link.MTU() - rudpHeader
	if m < 64 {
		m = 64
	}
	return m
}

// RemoteAddr reports the peer address of the underlying link, so logs
// and metrics identify real peers; links without an address (e.g.
// netsim pipe ends) fall back to the transport name.
func (c *rudpConn) RemoteAddr() string {
	if ra, ok := c.link.(interface{ RemoteAddr() string }); ok {
		if a := ra.RemoteAddr(); a != "" {
			return a
		}
	}
	return "rudp"
}

// Retransmissions reports the total number of re-sent data packets.
func (c *rudpConn) Retransmissions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retxTot
}

// SRTT reports the smoothed round-trip-time estimate (zero before the
// first sample).
func (c *rudpConn) SRTT() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.srtt
}

// Send transmits one frame reliably, blocking while the send window is
// full.
func (c *rudpConn) Send(frame []byte) error {
	if len(frame) > c.MTU() {
		return ErrTooLarge
	}
	c.mu.Lock()
	for !c.closed && c.failed == nil && len(c.unacked) >= rudpWindow {
		c.cond.Wait()
	}
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if c.failed != nil {
		err := c.failed
		c.mu.Unlock()
		return err
	}
	seq := c.nextSeq
	c.nextSeq++
	packet := make([]byte, rudpHeader+len(frame))
	packet[0] = ptData
	binary.BigEndian.PutUint32(packet[1:5], seq)
	copy(packet[rudpHeader:], frame)
	now := time.Now()
	c.unacked[seq] = &txEntry{packet: packet, sentAt: now, firstSend: now}
	c.mu.Unlock()
	// Transmit outside the lock; loss is handled by the ARQ.
	if err := c.link.Send(packet); err != nil && !isTransient(err) {
		return err
	}
	return nil
}

// isTransient reports whether a link error should be left to the
// retransmission machinery rather than surfaced.
func isTransient(err error) bool {
	// Simulated links drop silently; real UDP may return e.g. buffer
	// full errors that resolve themselves. Closed links are permanent.
	return !errors.Is(err, ErrClosed)
}

// Recv returns the next in-order frame.
func (c *rudpConn) Recv() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if len(c.delivered) > 0 {
			f := c.delivered[0]
			c.delivered = c.delivered[1:]
			return f, nil
		}
		if c.closed || c.peerFin {
			return nil, ErrClosed
		}
		if c.failed != nil {
			return nil, c.failed
		}
		c.cond.Wait()
	}
}

// Close sends best-effort FINs and stops the protocol machinery.
func (c *rudpConn) Close() error {
	c.stopOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.cond.Broadcast()
		c.mu.Unlock()
		fin := []byte{ptFin, 0, 0, 0, 0}
		for i := 0; i < closeLinger; i++ {
			c.link.Send(fin)
		}
		close(c.done)
		c.link.Close()
	})
	c.wg.Wait()
	return nil
}

func (c *rudpConn) readLoop() {
	defer c.wg.Done()
	for {
		c.link.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		p, err := c.link.Recv()
		if err != nil {
			select {
			case <-c.done:
				return
			default:
			}
			// Deadline: loop to re-check done. Other errors on simulated
			// links mean closed.
			if isDeadline(err) {
				continue
			}
			c.mu.Lock()
			c.peerFin = true
			c.cond.Broadcast()
			c.mu.Unlock()
			return
		}
		if len(p) < 1 {
			continue
		}
		switch p[0] {
		case ptData:
			if len(p) < rudpHeader {
				continue
			}
			c.handleData(binary.BigEndian.Uint32(p[1:5]), p[rudpHeader:])
		case ptAck:
			if len(p) < 1+4+8 {
				continue
			}
			c.handleAck(binary.BigEndian.Uint32(p[1:5]), binary.BigEndian.Uint64(p[5:13]))
		case ptFin:
			c.mu.Lock()
			c.peerFin = true
			c.cond.Broadcast()
			c.mu.Unlock()
		}
	}
}

// isDeadline reports whether err is a read-deadline expiry (real
// net.Error timeouts and netsim.ErrTimeout both satisfy the Timeout
// contract).
func isDeadline(err error) bool {
	var t interface{ Timeout() bool }
	if errors.As(err, &t) {
		return t.Timeout()
	}
	return false
}

func (c *rudpConn) handleData(seq uint32, payload []byte) {
	c.mu.Lock()
	if seq > c.cumAck {
		if _, dup := c.outOfOrd[seq]; !dup {
			// Pooled: ownership passes to whoever drains this frame from
			// Recv (the endpoint read loop recycles it after handling).
			cp := getPayloadBuf(len(payload))
			copy(cp, payload)
			c.outOfOrd[seq] = cp
			// Drain the contiguous prefix into the delivery queue.
			for {
				next, ok := c.outOfOrd[c.cumAck+1]
				if !ok {
					break
				}
				delete(c.outOfOrd, c.cumAck+1)
				c.cumAck++
				c.delivered = append(c.delivered, next)
			}
			c.cond.Broadcast()
		}
	}
	cum := c.cumAck
	var bitmap uint64
	for i := uint32(1); i <= sackBits; i++ {
		if _, ok := c.outOfOrd[cum+i]; ok {
			bitmap |= 1 << (i - 1)
		}
	}
	c.mu.Unlock()

	ack := make([]byte, 1+4+8)
	ack[0] = ptAck
	binary.BigEndian.PutUint32(ack[1:5], cum)
	binary.BigEndian.PutUint64(ack[5:13], bitmap)
	c.link.Send(ack)
}

func (c *rudpConn) handleAck(cum uint32, bitmap uint64) {
	var fastRetx [][]byte
	c.mu.Lock()
	// Everything at or below cum is delivered.
	for seq, e := range c.unacked {
		if seq <= cum {
			if e.retries == 0 {
				c.updateRTT(time.Since(e.firstSend))
			}
			delete(c.unacked, seq)
		}
	}
	// Bitmap: selectively acknowledged packets above cum.
	highestSacked := uint32(0)
	for i := uint32(1); i <= sackBits; i++ {
		if bitmap&(1<<(i-1)) != 0 {
			seq := cum + i
			if e, ok := c.unacked[seq]; ok {
				if e.retries == 0 {
					c.updateRTT(time.Since(e.firstSend))
				}
				delete(c.unacked, seq)
			}
			highestSacked = seq
		}
	}
	// Selective re-send: packets below the highest SACKed sequence that
	// remain unacknowledged are presumed lost once named missing by
	// enough SACKs.
	now := time.Now()
	for seq, e := range c.unacked {
		if seq > cum && seq < highestSacked {
			e.missCount++
			if e.missCount >= dupAckRetx {
				e.missCount = 0
				e.retries++
				e.sentAt = now
				c.retxTot++
				fastRetx = append(fastRetx, e.packet)
			}
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, p := range fastRetx {
		c.link.Send(p)
	}
}

// updateRTT applies Jacobson/Karels smoothing. Caller holds c.mu.
func (c *rudpConn) updateRTT(sample time.Duration) {
	if sample <= 0 {
		return
	}
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		diff := c.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < minRTO {
		c.rto = minRTO
	}
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
}

func (c *rudpConn) retxLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(retxTick)
	defer ticker.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-ticker.C:
		}
		var retx [][]byte
		now := time.Now()
		c.mu.Lock()
		rto := c.rto
		for _, e := range c.unacked {
			backoff := rto << uint(min(e.retries, 6))
			if now.Sub(e.sentAt) >= backoff {
				if e.retries >= maxRetries {
					c.failed = ErrPeerGone
					c.cond.Broadcast()
					c.mu.Unlock()
					return
				}
				e.retries++
				e.sentAt = now
				c.retxTot++
				retx = append(retx, e.packet)
			}
		}
		c.mu.Unlock()
		for _, p := range retx {
			c.link.Send(p)
		}
	}
}
