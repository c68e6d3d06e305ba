//go:build unix

package xdr

import (
	"bytes"
	"net"
	"syscall"
	"testing"
	"time"
)

// unread reports whether bytes, or the end of the stream, are waiting in
// c's receive queue: a peek that does not wait, on the descriptor beside
// whoever is reading it. It is called beside the test's goroutine, so a
// failure to look is reported and read as "nothing waiting".
func unread(t *testing.T, c *net.TCPConn) bool {
	rc, err := c.SyscallConn()
	if err == nil {
		var perr error
		err = rc.Control(func(fd uintptr) {
			var one [1]byte
			_, _, perr = syscall.Recvfrom(int(fd), one[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		})
		if err == nil {
			return perr != syscall.EAGAIN
		}
	}
	t.Error(err)
	return false
}

// TestServeFromSocketMatchesReference is TestFrameReaderMatchesReference
// for Serve's other driver, the descriptor of a real connection: every
// stream crosses a loopback TCP connection in writes of the scheduled
// sizes, the writer pausing after each of its first few and then ever more
// rarely so that the reader parks at every kind of boundary. (net.Pipe has
// no descriptor, and no wrapper may stand in: it would hide the one there
// is.) The writer closes once the reader has taken the last byte: an end
// of stream that reaches the socket before the read that takes the last
// bytes is not told apart from none — that read is short either way — and
// is noticed at the descriptor's next event, which this test has none of.
func TestServeFromSocketMatchesReference(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for sname, stream := range referenceStreams {
		for cname, chunks := range referenceChunkings {
			t.Run(sname+"/"+cname, func(t *testing.T) {
				ref := bytes.NewReader(stream)
				want, wantErr := drain(func() ([]byte, error) { return refReadFrame(ref, referenceLimit) })

				w, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				r, err := ln.Accept()
				if err != nil {
					t.Fatal(err)
				}
				served := make(chan struct{})
				written := make(chan struct{})
				go func() {
					defer close(written)
					defer w.Close()
					for i, rest := 0, stream; len(rest) > 0; i++ {
						n := len(rest)
						if len(chunks) > 0 && chunks[i%len(chunks)] > 0 {
							n = min(n, chunks[i%len(chunks)])
						}
						// An error is the reader's refusal of the stream (an
						// oversize header, and the test then closed r).
						if _, err := w.Write(rest[:n]); err != nil {
							return
						}
						rest = rest[n:]
						if i < 16 || i&(i-1) == 0 {
							time.Sleep(50 * time.Microsecond)
						}
					}
					for unread(t, r.(*net.TCPConn)) {
						select {
						case <-served: // refused: the rest stays unread
							return
						case <-time.After(50 * time.Microsecond):
						}
					}
				}()
				got, gotErr := drainServe(r, referenceLimit)
				close(served)
				<-written
				r.Close()
				sameFrames(t, "pushed from a socket", got, gotErr, want, wantErr)
			})
		}
	}
}
