package comm

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// udpMTU is the datagram payload size used on real UDP paths; safely
// below typical path MTUs.
const udpMTU = 1400

// RUDPTransport runs the selective-resend protocol over real UDP
// sockets. A listener demultiplexes peers on one socket by source
// address; the first packet from a new source implicitly establishes a
// connection (the ARQ recovers any packets lost before the receiver
// existed, so no handshake is needed).
type RUDPTransport struct{}

// Name implements Transport.
func (RUDPTransport) Name() string { return "rudp" }

// Listen implements Transport.
func (RUDPTransport) Listen(addr string) (Listener, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("comm: rudp resolve %s: %w", addr, err)
	}
	sock, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("comm: rudp listen %s: %w", addr, err)
	}
	l := &rudpListener{
		sock:    sock,
		peers:   make(map[string]*udpPeerLink),
		accepts: make(chan FrameConn, 64),
		done:    make(chan struct{}),
	}
	go l.demuxLoop()
	return l, nil
}

// Dial implements Transport.
func (RUDPTransport) Dial(addr string) (FrameConn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("comm: rudp resolve %s: %w", addr, err)
	}
	sock, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, fmt.Errorf("comm: rudp dial %s: %w", addr, err)
	}
	return NewRUDPConn(&udpDialLink{sock: sock}), nil
}

// udpDialLink adapts a connected UDP socket to PacketLink.
type udpDialLink struct {
	sock *net.UDPConn
	mu   sync.Mutex
	dl   time.Time
}

func (l *udpDialLink) Send(p []byte) error { _, err := l.sock.Write(p); return err }

func (l *udpDialLink) Recv() ([]byte, error) {
	l.mu.Lock()
	dl := l.dl
	l.mu.Unlock()
	l.sock.SetReadDeadline(dl)
	buf := make([]byte, 64<<10)
	n, err := l.sock.Read(buf)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}

func (l *udpDialLink) SetReadDeadline(t time.Time) {
	l.mu.Lock()
	l.dl = t
	l.mu.Unlock()
}

func (l *udpDialLink) Close() error { return l.sock.Close() }
func (l *udpDialLink) MTU() int     { return udpMTU }

// RemoteAddr reports the connected socket's peer address.
func (l *udpDialLink) RemoteAddr() string { return l.sock.RemoteAddr().String() }

// rudpListener owns one UDP socket and demultiplexes per-peer links.
type rudpListener struct {
	sock    *net.UDPConn
	mu      sync.Mutex
	peers   map[string]*udpPeerLink
	accepts chan FrameConn
	done    chan struct{}
	closed  bool
}

func (l *rudpListener) demuxLoop() {
	buf := make([]byte, 64<<10)
	for {
		n, raddr, err := l.sock.ReadFromUDP(buf)
		if err != nil {
			l.mu.Lock()
			for _, p := range l.peers {
				p.enqueueClose()
			}
			l.mu.Unlock()
			// Connections still in the backlog will never be accepted
			// (Accept may have seen done first): close them, or their
			// retransmit loops outlive the listener.
			for {
				select {
				case c := <-l.accepts:
					c.Close()
				default:
					return
				}
			}
		}
		key := raddr.String()
		l.mu.Lock()
		peer, ok := l.peers[key]
		if !ok && !l.closed {
			peer = newUDPPeerLink(l, raddr)
			l.peers[key] = peer
			conn := NewRUDPConn(peer)
			select {
			case l.accepts <- conn:
			default:
				// Accept backlog full: drop the connection attempt; the
				// dialer's ARQ will retry and a later packet re-creates it.
				delete(l.peers, key)
				peer.enqueueClose()
				conn.Close()
				l.mu.Unlock()
				continue
			}
		}
		l.mu.Unlock()
		if peer != nil {
			pkt := make([]byte, n)
			copy(pkt, buf[:n])
			peer.enqueue(pkt)
		}
	}
}

func (l *rudpListener) Accept() (FrameConn, error) {
	select {
	case c := <-l.accepts:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *rudpListener) Addr() string { return l.sock.LocalAddr().String() }

func (l *rudpListener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.done)
	return l.sock.Close()
}

func (l *rudpListener) removePeer(key string) {
	l.mu.Lock()
	delete(l.peers, key)
	l.mu.Unlock()
}

// udpPeerLink is the listener-side PacketLink for one remote address.
type udpPeerLink struct {
	listener *rudpListener
	raddr    *net.UDPAddr

	mu     sync.Mutex
	cond   *sync.Cond
	queue  [][]byte
	dl     time.Time
	closed bool
}

func newUDPPeerLink(l *rudpListener, raddr *net.UDPAddr) *udpPeerLink {
	p := &udpPeerLink{listener: l, raddr: raddr}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *udpPeerLink) enqueue(pkt []byte) {
	p.mu.Lock()
	if !p.closed {
		p.queue = append(p.queue, pkt)
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

func (p *udpPeerLink) enqueueClose() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *udpPeerLink) Send(pkt []byte) error {
	_, err := p.listener.sock.WriteToUDP(pkt, p.raddr)
	return err
}

func (p *udpPeerLink) Recv() ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if len(p.queue) > 0 {
			pkt := p.queue[0]
			p.queue = p.queue[1:]
			return pkt, nil
		}
		if p.closed {
			return nil, ErrClosed
		}
		dl := p.dl
		if !dl.IsZero() {
			if time.Now().After(dl) {
				return nil, deadlineError{}
			}
			t := time.AfterFunc(time.Until(dl), func() {
				p.mu.Lock()
				p.cond.Broadcast()
				p.mu.Unlock()
			})
			p.cond.Wait()
			t.Stop()
		} else {
			p.cond.Wait()
		}
	}
}

func (p *udpPeerLink) SetReadDeadline(t time.Time) {
	p.mu.Lock()
	p.dl = t
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *udpPeerLink) Close() error {
	p.enqueueClose()
	p.listener.removePeer(p.raddr.String())
	return nil
}

func (p *udpPeerLink) MTU() int { return udpMTU }

// RemoteAddr reports the demultiplexed peer's address.
func (p *udpPeerLink) RemoteAddr() string { return p.raddr.String() }

// deadlineError satisfies the Timeout contract for the peer link.
type deadlineError struct{}

func (deadlineError) Error() string   { return "comm: read deadline exceeded" }
func (deadlineError) Timeout() bool   { return true }
func (deadlineError) Temporary() bool { return true }
