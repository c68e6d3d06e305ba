package comm

import (
	"fmt"
	"net"
	"sync"
	"time"

	"snipe/internal/xdr"
)

// FrameConn is a reliable, ordered, message-boundary-preserving
// connection between two endpoints. The TCP, Unix-socket, in-process
// and selective-resend UDP transports all present this interface, so
// the endpoint layer is transport-agnostic — the paper's "multiple
// communication paths, media and routing methods".
type FrameConn interface {
	// Send transmits one frame. The frame buffer is the caller's: every
	// implementation either writes it out synchronously or copies it
	// before returning, so the caller may reuse it immediately.
	Send(frame []byte) error
	// Recv returns the next frame. Ownership of the returned buffer
	// transfers to the caller, which may recycle it via the payload
	// pool once done (the endpoint read loop does); implementations
	// never touch a returned buffer again.
	Recv() ([]byte, error)
	// Close releases the connection.
	Close() error
	// MTU returns the preferred maximum frame size for this connection.
	MTU() int
	// RemoteAddr describes the peer, for logs.
	RemoteAddr() string
}

// Listener accepts inbound FrameConns.
type Listener interface {
	Accept() (FrameConn, error)
	Addr() string
	Close() error
}

// Transport creates listeners and outbound connections for one
// protocol family.
type Transport interface {
	Name() string
	Listen(addr string) (Listener, error)
	Dial(addr string) (FrameConn, error)
}

// Transports is a registry of transports by name.
type Transports struct {
	mu sync.RWMutex
	m  map[string]Transport
}

// NewTransports returns a registry preloaded with the standard
// transports: "tcp", "rudp", and the co-located fast paths "unix" and
// "inproc".
func NewTransports() *Transports {
	t := &Transports{m: make(map[string]Transport)}
	t.Register(TCPTransport{})
	t.Register(RUDPTransport{})
	t.Register(UnixTransport{})
	t.Register(InprocTransport{})
	return t
}

// Register adds or replaces a transport.
func (t *Transports) Register(tr Transport) {
	t.mu.Lock()
	t.m[tr.Name()] = tr
	t.mu.Unlock()
}

// Get returns the named transport.
func (t *Transports) Get(name string) (Transport, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	tr, ok := t.m[name]
	return tr, ok
}

// --- TCP transport -------------------------------------------------

// tcpFragmentSize bounds a frame on stream transports; large messages
// are fragmented above this layer, keeping per-frame buffers bounded.
const tcpFragmentSize = 64 << 10

// TCPTransport is the stream transport: frames are length-prefixed on
// a TCP connection.
type TCPTransport struct{}

// Name implements Transport.
func (TCPTransport) Name() string { return "tcp" }

// Listen implements Transport.
func (TCPTransport) Listen(addr string) (Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("comm: tcp listen %s: %w", addr, err)
	}
	return &tcpListener{ln: ln}, nil
}

// Dial implements Transport.
func (TCPTransport) Dial(addr string) (FrameConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("comm: tcp dial %s: %w", addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return NewStreamFrameConn(conn), nil
}

type tcpListener struct{ ln net.Listener }

func (l *tcpListener) Accept() (FrameConn, error) {
	conn, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return NewStreamFrameConn(conn), nil
}

func (l *tcpListener) Addr() string { return l.ln.Addr().String() }
func (l *tcpListener) Close() error { return l.ln.Close() }

// streamFrameConn adapts any net.Conn (a real TCP or Unix-socket
// connection, or a netsim shaped pipe) into a FrameConn with 4-byte
// length prefixes. Framing is xdr's record reader and writer: a Recv
// that finds nothing buffered issues one read for up to
// xdr.FrameReadAhead bytes, which returns a small frame whole together
// with any short frames queued behind it (a body larger than that is
// read straight into its pooled buffer), and a Send is one vectored
// write from scratch that lives in the connection.
type streamFrameConn struct {
	conn net.Conn
	mtu  int

	rmu sync.Mutex // serialises Recv; guards fr
	fr  *xdr.FrameReader
	wmu sync.Mutex // serialises Send; guards fw
	fw  *xdr.FrameWriter
}

// NewStreamFrameConn frames a byte-stream connection. It is exported
// so benchmarks can run the endpoint stack over netsim media pipes.
func NewStreamFrameConn(conn net.Conn) FrameConn {
	return newStreamFrameConnMTU(conn, tcpFragmentSize)
}

// newStreamFrameConnMTU frames a byte-stream connection with a custom
// preferred frame size: local transports (unix) skip a real network
// stack and amortise better with larger fragments.
func newStreamFrameConnMTU(conn net.Conn, mtu int) FrameConn {
	if mtu <= 0 || mtu > maxWireFrame {
		mtu = tcpFragmentSize
	}
	return &streamFrameConn{conn: conn, mtu: mtu,
		fr: xdr.NewFrameReader(conn), fw: xdr.NewFrameWriter(conn)}
}

func (c *streamFrameConn) Send(frame []byte) error {
	if len(frame) > maxWireFrame {
		return ErrTooLarge
	}
	// wmu and rmu are this connection's own: they guard nothing but its
	// write scratch and its read-ahead, so a stalled peer stalls only
	// the senders and the one read loop of this connection.
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.fw.WriteFrame(frame, nil) //lint:allow lockedio per-connection writer lock: it is what puts frames on the stream whole
}

func (c *streamFrameConn) Recv() ([]byte, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	n, err := c.fr.Next() //lint:allow lockedio per-connection reader lock, taken by the connection's read loop alone
	if err != nil {
		return nil, err
	}
	if n > maxWireFrame {
		return nil, ErrBadFrame
	}
	// Pooled receive buffer: the caller owns it (see FrameConn.Recv)
	// and recycles it once the frame is handled. Frames are bounded by
	// maxWireFrame, so the buffer always lands in a right-sized class.
	buf := getPayloadBuf(int(n))
	if err := c.fr.ReadBody(buf); err != nil { //lint:allow lockedio the same reader lock: header and body are one frame
		putPayloadBuf(buf)
		return nil, err
	}
	return buf, nil
}

func (c *streamFrameConn) Close() error { return c.conn.Close() }
func (c *streamFrameConn) MTU() int     { return c.mtu }
func (c *streamFrameConn) RemoteAddr() string {
	if a := c.conn.RemoteAddr(); a != nil {
		return a.String()
	}
	return "?"
}

// maxWireFrame bounds a single transport frame (fragment + headers).
const maxWireFrame = 1 << 20
