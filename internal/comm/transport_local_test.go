package comm

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newLocalTestEndpoint creates an endpoint listening on the given local
// transport ("unix" or "inproc") and registers it with the resolver.
func newLocalTestEndpoint(t testing.TB, urn, transport, addr string, res *testResolver, opts ...EndpointOption) *Endpoint {
	t.Helper()
	opts = append([]EndpointOption{
		WithResolver(res),
		WithRetryInterval(50 * time.Millisecond),
	}, opts...)
	e := NewEndpoint(urn, opts...)
	route, err := e.Listen(ListenSpec{Transport: transport, Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	res.set(urn, route)
	t.Cleanup(e.Close)
	return e
}

func TestEndpointOverUnixTransport(t *testing.T) {
	res := newTestResolver()
	dir := t.TempDir()
	a := newLocalTestEndpoint(t, "urn:ua", "unix", filepath.Join(dir, "a.sock"), res)
	b := newLocalTestEndpoint(t, "urn:ub", "unix", filepath.Join(dir, "b.sock"), res)

	// Large enough to fragment even at the unix frame size.
	payload := make([]byte, 3*unixFragmentSize/2)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	if err := sendWaitT(a, "urn:ub", 9, payload, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	m, err := recvT(b, 5*time.Second)
	if err != nil || !bytes.Equal(m.Payload, payload) {
		t.Fatalf("unix transport: len=%d err=%v", len(m.Payload), err)
	}
	// Reply over the reverse path.
	if err := b.Send("urn:ua", 1, []byte("back")); err != nil {
		t.Fatal(err)
	}
	if m, err := recvT(a, 5*time.Second); err != nil || string(m.Payload) != "back" {
		t.Fatalf("unix reply: %v %v", m, err)
	}
}

func TestUnixListenRecoversStaleSocket(t *testing.T) {
	// Simulate a crashed owner: a socket file exists but nothing
	// accepts on it. (A raw unix listener closed without unlink would
	// be cleaned up by Go's net package, so build the stale file via an
	// abandoned socket path bound by a dead listener's leftover file.)
	addr := filepath.Join(t.TempDir(), "stale.sock")
	ln, err := net.Listen("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Leave the file behind: net.UnixListener unlinks on Close unless
	// told otherwise.
	ln.(*net.UnixListener).SetUnlinkOnClose(false)
	ln.Close()

	ln2, err := UnixTransport{}.Listen(addr)
	if err != nil {
		t.Fatalf("stale socket not recovered: %v", err)
	}
	ln2.Close()
}

func TestEndpointOverInprocTransport(t *testing.T) {
	res := newTestResolver()
	a := newLocalTestEndpoint(t, "urn:ia", "inproc", "", res)
	b := newLocalTestEndpoint(t, "urn:ib", "inproc", "", res)

	payload := make([]byte, 2*inprocMTU+123) // fragments over the channel pair
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if err := sendWaitT(a, "urn:ib", 3, payload, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	m, err := recvT(b, 5*time.Second)
	if err != nil || !bytes.Equal(m.Payload, payload) {
		t.Fatalf("inproc transport: len=%d err=%v", len(m.Payload), err)
	}
	if err := b.Send("urn:ia", 1, []byte("back")); err != nil {
		t.Fatal(err)
	}
	if m, err := recvT(a, 5*time.Second); err != nil || string(m.Payload) != "back" {
		t.Fatalf("inproc reply: %v %v", m, err)
	}
}

func TestInprocAddrConflictAndDialErrors(t *testing.T) {
	tr := InprocTransport{}
	ln, err := tr.Listen("conflict-test")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Listen("conflict-test"); err == nil {
		t.Fatal("duplicate inproc address accepted")
	}
	ln.Close()
	if _, err := tr.Dial("conflict-test"); err == nil {
		t.Fatal("dial of closed inproc listener succeeded")
	}
	if _, err := tr.Dial("never-existed"); err == nil {
		t.Fatal("dial of unknown inproc address succeeded")
	}
}

func TestInprocRecvDrainsAfterPeerClose(t *testing.T) {
	// Frames already handed to Send must survive the sender closing:
	// the receiver drains its queue before seeing ErrClosed.
	dialer, acceptee := newInprocPair("drain")
	for i := 0; i < 3; i++ {
		if err := dialer.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	dialer.Close()
	for i := 0; i < 3; i++ {
		f, err := acceptee.Recv()
		if err != nil || f[0] != byte(i) {
			t.Fatalf("drain frame %d: %v %v", i, f, err)
		}
		putPayloadBuf(f)
	}
	if _, err := acceptee.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("after drain: %v", err)
	}
}

func TestInprocSendCopiesFrame(t *testing.T) {
	// FrameConn contract: the caller's buffer is reusable immediately
	// after Send returns.
	dialer, acceptee := newInprocPair("copy")
	defer dialer.Close()
	defer acceptee.Close()
	buf := []byte("original")
	if err := dialer.Send(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "CLOBBERD")
	f, err := acceptee.Recv()
	if err != nil || string(f) != "original" {
		t.Fatalf("send aliased the caller's buffer: %q %v", f, err)
	}
}

// TestLocalTransportsConcurrentEndpoints drives many endpoint pairs
// over inproc at once — the commtail benchmark's shape in miniature.
func TestLocalTransportsConcurrentEndpoints(t *testing.T) {
	res := newTestResolver()
	sink := newLocalTestEndpoint(t, "urn:lsink", "inproc", "", res)
	const nPairs, nMsgs = 8, 20
	var delivered atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < nPairs*nMsgs; i++ {
			if _, err := recvT(sink, 10*time.Second); err != nil {
				t.Errorf("sink recv %d: %v", i, err)
				return
			}
			delivered.Add(1)
		}
	}()
	var senders sync.WaitGroup
	for p := 0; p < nPairs; p++ {
		src := newLocalTestEndpoint(t, fmt.Sprintf("urn:lp%d", p), "inproc", "", res)
		senders.Add(1)
		go func(e *Endpoint) {
			defer senders.Done()
			for i := 0; i < nMsgs; i++ {
				if err := sendWaitT(e, "urn:lsink", 0, []byte("m"), 10*time.Second); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(src)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Errorf("only %d/%d messages delivered", delivered.Load(), nPairs*nMsgs)
	}
	// The sink holding the last message does not mean its sender has the
	// ack: cleanup closes the senders, so their last SendWait must return
	// first.
	senders.Wait()
}
