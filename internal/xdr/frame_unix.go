//go:build unix

package xdr

import (
	"io"
	"net"
	"syscall"
)

// serveFD drives Serve's loop from the reader's descriptor, inside its read
// lock and readiness wait (RawConn.Read), if the reader is a stream socket
// itself: a wrapper has a Read of its own to honour, and no other descriptor
// the short-read rule. A read that comes back short has drained the socket's
// queue, so the callback returns false and the goroutine parks without the
// EAGAIN read a conn.Read per frame pays, and without leaving RawConn.Read,
// whose entry resets the readiness latch. After a read that filled its buffer
// the callback is left and entered again, which is where a Close is noticed.
// An end of stream that arrived before the read that took the last bytes is
// found at the descriptor's next event, not at once. (DESIGN.md, "…and what
// it reads and writes".)
func (fr *FrameReader) serveFD() (served bool, err error) {
	switch fr.r.(type) {
	case *net.TCPConn, *net.UnixConn:
	default:
		return false, nil
	}
	rc, err := fr.r.(syscall.Conn).SyscallConn()
	if err != nil {
		return true, err
	}
	var end error
	read := func(fd uintptr) bool {
		dst := fr.next()
		n, err := syscall.Read(int(fd), dst)
		switch {
		case err == syscall.EAGAIN:
			fr.reads++
			return false
		case err == syscall.EINTR:
			return true
		case n == 0 && err == nil:
			err = io.EOF
		}
		end = fr.took(max(n, 0), err)
		return end != nil || n == len(dst)
	}
	for end == nil {
		if err := rc.Read(read); err != nil {
			return true, err
		}
	}
	return true, end
}
