package comm

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"snipe/internal/netsim"
	"snipe/internal/testutil"
)

// rudpPair wires two RUDP conns over a simulated packet link.
func rudpPair(t testing.TB, p netsim.Profile, seed uint64) (FrameConn, FrameConn, *netsim.Link) {
	t.Helper()
	ea, eb, link := netsim.PacketPipe(p, seed)
	a := NewRUDPConn(ea)
	b := NewRUDPConn(eb)
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b, link
}

func TestRUDPBasicDelivery(t *testing.T) {
	a, b, _ := rudpPair(t, netsim.Loopback, 1)
	if err := a.Send([]byte("frame-1")); err != nil {
		t.Fatal(err)
	}
	if err := a.Send([]byte("frame-2")); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"frame-1", "frame-2"} {
		got, err := b.Recv()
		if err != nil || string(got) != want {
			t.Fatalf("recv %d: %q %v", i, got, err)
		}
	}
}

func TestRUDPBidirectional(t *testing.T) {
	a, b, _ := rudpPair(t, netsim.Loopback, 2)
	go func() {
		f, _ := b.Recv()
		b.Send(append([]byte("echo:"), f...))
	}()
	if err := a.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := a.Recv()
	if err != nil || string(got) != "echo:hello" {
		t.Fatalf("echo: %q %v", got, err)
	}
}

func TestRUDPReliabilityUnderLoss(t *testing.T) {
	// 20% loss: every frame must still arrive, in order.
	a, b, _ := rudpPair(t, netsim.Loopback.WithLoss(0.2), 3)
	const n = 300
	go func() {
		for i := 0; i < n; i++ {
			if err := a.Send([]byte(fmt.Sprintf("m%04d", i))); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		got, err := b.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if want := fmt.Sprintf("m%04d", i); string(got) != want {
			t.Fatalf("order violated at %d: got %q", i, got)
		}
	}
	ra := a.(*rudpConn).Retransmissions()
	if ra == 0 {
		t.Fatal("expected retransmissions under 20% loss")
	}
}

func TestRUDPHeavyLossBothDirections(t *testing.T) {
	a, b, _ := rudpPair(t, netsim.Loopback.WithLoss(0.35), 4)
	const n = 100
	errs := make(chan error, 2)
	go func() {
		for i := 0; i < n; i++ {
			if err := a.Send([]byte{byte(i)}); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	go func() {
		for i := 0; i < n; i++ {
			got, err := b.Recv()
			if err != nil {
				errs <- err
				return
			}
			if got[0] != byte(i) {
				errs <- fmt.Errorf("order: want %d got %d", i, got[0])
				return
			}
		}
		errs <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestRUDPLargeFrames(t *testing.T) {
	a, b, _ := rudpPair(t, netsim.ATM155, 5)
	payload := make([]byte, a.MTU())
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if err := a.Send(payload); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("large frame: len=%d err=%v", len(got), err)
	}
	// Over-MTU frames are rejected.
	if err := a.Send(make([]byte, a.MTU()+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize: %v", err)
	}
}

func TestRUDPWindowBackpressure(t *testing.T) {
	// With the receiver not draining and high latency, the sender must
	// eventually block at the window limit rather than run away. We
	// verify it is *not* blocked after the receiver drains.
	a, b, _ := rudpPair(t, netsim.Loopback, 6)
	done := make(chan struct{})
	go func() {
		for i := 0; i < rudpWindow*3; i++ {
			if err := a.Send([]byte{byte(i)}); err != nil {
				t.Errorf("send: %v", err)
				break
			}
		}
		close(done)
	}()
	for i := 0; i < rudpWindow*3; i++ {
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sender stuck despite drained window")
	}
}

func TestRUDPCloseUnblocksRecv(t *testing.T) {
	a, b, _ := rudpPair(t, netsim.Loopback, 7)
	errCh := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	a.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Recv not unblocked by peer close")
	}
	if err := b.Send([]byte("x")); err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("send after peer close: %v", err)
	}
}

func TestRUDPSendAfterCloseFails(t *testing.T) {
	a, _, _ := rudpPair(t, netsim.Loopback, 8)
	a.Close()
	if err := a.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestRUDPOverRealUDP(t *testing.T) {
	tr := RUDPTransport{}
	ln, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	acceptCh := make(chan FrameConn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			acceptCh <- c
		}
	}()
	dialer, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dialer.Close()
	if err := dialer.Send([]byte("over real udp")); err != nil {
		t.Fatal(err)
	}
	var server FrameConn
	select {
	case server = <-acceptCh:
	case <-time.After(3 * time.Second):
		t.Fatal("accept timeout")
	}
	defer server.Close()
	got, err := server.Recv()
	if err != nil || string(got) != "over real udp" {
		t.Fatalf("recv: %q %v", got, err)
	}
	// Reply path.
	if err := server.Send([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	got, err = dialer.Recv()
	if err != nil || string(got) != "pong" {
		t.Fatalf("reply: %q %v", got, err)
	}
}

// retxLoops counts the goroutines running an RUDP retransmit loop.
func retxLoops() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "comm.(*rudpConn).retxLoop(")
}

func TestRUDPListenerCloseClosesBacklog(t *testing.T) {
	// A connection that reached the accept backlog and was never accepted
	// is closed with the listener; its retransmit loop must not outlive it.
	before := retxLoops()
	tr := RUDPTransport{}
	ln, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dialer, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := dialer.Send([]byte("never accepted")); err != nil {
		t.Fatal(err)
	}
	backlog := ln.(*rudpListener).accepts
	testutil.WaitFor(t, 3*time.Second, func() bool { return len(backlog) == 1 }, "the connection never reached the backlog")
	dialer.Close()
	ln.Close()
	testutil.WaitFor(t, 3*time.Second, func() bool { return retxLoops() <= before },
		"a backlogged connection's retransmit loop outlived its listener")
}

func TestRUDPManyFramesOverRealUDP(t *testing.T) {
	tr := RUDPTransport{}
	ln, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	//lint:allow goroutinelife echo loop exits when the conn errors after the deferred ln.Close
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			f, err := c.Recv()
			if err != nil {
				return
			}
			if err := c.Send(f); err != nil {
				return
			}
		}
	}()
	dialer, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dialer.Close()
	const n = 200
	go func() {
		for i := 0; i < n; i++ {
			dialer.Send([]byte(fmt.Sprintf("%03d", i)))
		}
	}()
	for i := 0; i < n; i++ {
		got, err := dialer.Recv()
		if err != nil {
			t.Fatalf("echo %d: %v", i, err)
		}
		if want := fmt.Sprintf("%03d", i); string(got) != want {
			t.Fatalf("echo order at %d: %q", i, got)
		}
	}
}

func BenchmarkRUDPThroughputLoopback(b *testing.B) {
	a, bb, _ := rudpPair(b, netsim.Loopback, 1)
	payload := make([]byte, 1024)
	//lint:allow goroutinelife drain loop exits when Recv errors after the pair's cleanup closes bb
	go func() {
		for {
			if _, err := bb.Recv(); err != nil {
				return
			}
		}
	}()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(payload); err != nil {
			b.Fatal(err)
		}
	}
}
