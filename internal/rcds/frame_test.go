package rcds

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"snipe/internal/xdr"
)

// TestServerStalledOversizeHeader: an unauthenticated peer that declares
// the largest frame the protocol allows and then stalls must not make
// the server set that much memory aside. The reader used to make([]byte,
// n) as soon as the four header bytes had arrived — 16 MiB pinned per
// idle connection, before a body byte and before the MAC.
func TestServerStalledOversizeHeader(t *testing.T) {
	srv := NewServer(NewStore("rc0"), WithSecret([]byte("never presented")))
	defer srv.Close()
	// net.Pipe is synchronous: a Write returns once the server's reads
	// have consumed it, so the test knows how far the server has got.
	peer, conn := net.Pipe()
	defer peer.Close()
	srv.mu.Lock()
	srv.conns[conn] = struct{}{}
	srv.mu.Unlock()
	srv.wg.Add(1)
	go srv.serveConn(conn)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	hdr := binary.BigEndian.AppendUint32(nil, maxFrame)
	if _, err := peer.Write(append(hdr, make([]byte, 100)...)); err != nil {
		t.Fatal(err)
	}
	// Consumed only by a read the server issues after it has sized the
	// body buffer: when this returns, the buffer exists.
	if _, err := peer.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 1<<20 {
		t.Fatalf("a stalled 16 MiB header grew the server's heap by %d bytes, want < 1 MiB", grown)
	}
}

// TestLargeFrameRoundTrip: a legitimate frame far beyond the reader's
// first 64 KiB step arrives whole — the buffer grows with the bytes —
// and, with a shared secret, its MAC still covers every byte of it.
func TestLargeFrameRoundTrip(t *testing.T) {
	value := strings.Repeat("0123456789abcdef", maxWireValue/16) // 1 MiB, the largest value the wire allows
	for _, secret := range [][]byte{nil, []byte("rc-shared-secret")} {
		servers := startReplicaGroup(t, 1, secret)
		c := NewClient(groupAddrs(servers), secret)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := c.Set(ctx, "urn:big", "blob", value); err != nil {
			t.Fatalf("secret=%v: Set of a 1 MiB value: %v", secret != nil, err)
		}
		got, ok, err := c.FirstValue(ctx, "urn:big", "blob")
		if err != nil || !ok || got != value {
			t.Fatalf("secret=%v: read back %d bytes, ok=%v, err=%v; want the %d written", secret != nil, len(got), ok, err, len(value))
		}
		cancel()
		c.Close()
	}
}

// TestReadFrameLimitAndMAC: the declared length is checked against
// maxFrame before anything is allocated, and a frame whose MAC does not
// cover its body is refused whole.
func TestReadFrameLimitAndMAC(t *testing.T) {
	over := binary.BigEndian.AppendUint32(nil, maxFrame+1)
	if _, err := nextFrame(xdr.NewFrameReader(bytes.NewReader(over)), nil); err != ErrFrameTooLarge {
		t.Fatalf("header over maxFrame: %v, want ErrFrameTooLarge", err)
	}
	secret := []byte("k")
	var wire bytes.Buffer
	if err := writeFrame(xdr.NewFrameWriter(&wire), []byte("authentic body"), secret); err != nil {
		t.Fatal(err)
	}
	good := append([]byte(nil), wire.Bytes()...)
	if body, err := nextFrame(xdr.NewFrameReader(bytes.NewReader(good)), secret); err != nil || string(body) != "authentic body" {
		t.Fatalf("authentic frame: %q, %v", body, err)
	}
	tampered := append([]byte(nil), good...)
	tampered[6] ^= 1 // a body byte
	if _, err := nextFrame(xdr.NewFrameReader(bytes.NewReader(tampered)), secret); err != ErrBadMAC {
		t.Fatalf("tampered body: %v, want ErrBadMAC", err)
	}
	if _, err := nextFrame(xdr.NewFrameReader(bytes.NewReader(good[:len(good)-5])), secret); err == nil {
		t.Fatal("a frame cut short inside its MAC was accepted")
	}
}

// TestSealFrame: frames sealed one behind another in one encoder read back
// as those frames, each under its MAC, and one past maxFrame is refused
// and dropped, leaving the frames before it whole.
func TestSealFrame(t *testing.T) {
	secret := []byte("k")
	var e xdr.Encoder
	for _, body := range []string{"first", "second"} {
		beginFrame(&e)
		e.PutRaw([]byte(body))
		if err := sealFrame(&e, len(body), secret); err != nil {
			t.Fatal(err)
		}
	}
	sealed := e.Len()
	beginFrame(&e)
	e.PutRaw(make([]byte, maxFrame-macSize+1))
	if err := sealFrame(&e, maxFrame-macSize+1, secret); err != ErrFrameTooLarge || e.Len() != sealed {
		t.Fatalf("a frame past maxFrame: %v, %d bytes left; want ErrFrameTooLarge and the %d before it", err, e.Len(), sealed)
	}
	fr := xdr.NewFrameReader(bytes.NewReader(e.Bytes()))
	for _, want := range []string{"first", "second"} {
		if body, err := nextFrame(fr, secret); err != nil || string(body) != want {
			t.Fatalf("read back %q, %v; want %q", body, err, want)
		}
	}
	if _, err := nextFrame(fr, secret); err != io.EOF {
		t.Fatalf("after the sealed frames: %v, want io.EOF", err)
	}
}
