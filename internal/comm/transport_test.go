package comm

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
)

// countingConn is a net.Conn whose Read serves an in-memory stream —
// as many bytes as the caller has room for, like a socket whose data
// has all arrived — and counts the calls.
type countingConn struct {
	net.Conn // nil: only Read is used
	stream   bytes.Reader
	reads    int
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads++
	return c.stream.Read(p)
}

func wireFrames(bodies ...[]byte) []byte {
	var s []byte
	for _, b := range bodies {
		s = binary.BigEndian.AppendUint32(s, uint32(len(b)))
		s = append(s, b...)
	}
	return s
}

// TestStreamRecvReadsPerFrame pins what the read-ahead buys: a burst of
// small frames comes back from one read, not two per frame, and a large
// frame costs its first read plus the reads its body needs — never a
// staging copy through the read-ahead.
func TestStreamRecvReadsPerFrame(t *testing.T) {
	var small [][]byte
	for i := 0; i < 8; i++ {
		small = append(small, bytes.Repeat([]byte{byte(i + 1)}, 90+i)) // 8 frames, 788 bytes on the wire
	}
	cc := &countingConn{}
	cc.stream.Reset(wireFrames(small...))
	conn := NewStreamFrameConn(cc)
	for i, want := range small {
		got, err := conn.Recv()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("small frame %d: %d bytes, %v", i, len(got), err)
		}
		putPayloadBuf(got)
	}
	if cc.reads > 2 {
		t.Errorf("8 small frames in one burst took %d reads, want ≤ 2", cc.reads)
	}

	big := bytes.Repeat([]byte{0xa5}, 64<<10)
	cc = &countingConn{}
	cc.stream.Reset(wireFrames(big, small[0]))
	conn = NewStreamFrameConn(cc)
	got, err := conn.Recv()
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("64 KiB frame: %d bytes, %v", len(got), err)
	}
	if cc.reads > 3 {
		t.Errorf("a 64 KiB frame took %d reads, want ≤ 2 beyond the first", cc.reads)
	}
	if got, err := conn.Recv(); err != nil || !bytes.Equal(got, small[0]) {
		t.Fatalf("frame behind the 64 KiB one: %d bytes, %v", len(got), err)
	}
	if _, err := conn.Recv(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

// TestStreamRecvBounds: a declared length over maxWireFrame is a bad
// frame before any buffer is sized, and a stream that ends inside a
// frame is an error, never a short frame.
func TestStreamRecvBounds(t *testing.T) {
	cc := &countingConn{}
	cc.stream.Reset(binary.BigEndian.AppendUint32(nil, maxWireFrame+1))
	if _, err := NewStreamFrameConn(cc).Recv(); err != ErrBadFrame {
		t.Fatalf("oversize header: %v, want ErrBadFrame", err)
	}
	cc = &countingConn{}
	cc.stream.Reset(wireFrames(make([]byte, 300))[:200])
	if f, err := NewStreamFrameConn(cc).Recv(); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: %d bytes, %v; want io.ErrUnexpectedEOF", len(f), err)
	}
}
