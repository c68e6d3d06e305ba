package xdr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"testing"
)

var errFrameOverLimit = errors.New("frame over the test's limit")

// refReadFrame is the implementation FrameReader replaced — a ReadFull
// for the header and a ReadFull for the body, straight on the stream —
// kept as the reference the new reader is compared against.
func refReadFrame(r io.Reader, limit uint32) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > limit {
		return nil, errFrameOverLimit
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// readFrameVia pulls one frame the way comm does: Next, a right-sized
// destination buffer, ReadBody.
func readFrameVia(fr *FrameReader, limit uint32) ([]byte, error) {
	n, err := fr.Next()
	if err != nil {
		return nil, err
	}
	if n > limit {
		return nil, errFrameOverLimit
	}
	buf := make([]byte, n)
	if err := fr.ReadBody(buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// drainServe has the frames of r pushed the way rcds does — Serve, one
// buffer handed back for all of a stream's frames, so what is kept is a
// copy — until the first error, which it returns in the reference's terms.
func drainServe(r io.Reader, limit uint32) (frames [][]byte, err error) {
	err = NewFrameReader(r).Serve(limit, nil, func(frame []byte) ([]byte, error) {
		frames = append(frames, append([]byte{}, frame...))
		return frame[:0], nil
	}, nil)
	if err == ErrFrameTooLarge {
		err = errFrameOverLimit
	}
	return frames, err
}

// chunkReader hands out a byte stream in reads of scheduled sizes,
// cycling through the schedule, then io.EOF. A zero in the schedule
// means "as much as the caller asked for". With eofWithData the last
// bytes and io.EOF come from the same Read, as io.Reader allows.
type chunkReader struct {
	data        []byte
	chunks      []int
	next        int
	eofWithData bool
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if len(c.chunks) > 0 {
		if k := c.chunks[c.next%len(c.chunks)]; k > 0 && k < n {
			n = k
		}
		c.next++
	}
	n = copy(p[:n], c.data)
	c.data = c.data[n:]
	if len(c.data) == 0 && c.eofWithData {
		return n, io.EOF
	}
	return n, nil
}

// drain reads frames until the first error.
func drain(read func() ([]byte, error)) (frames [][]byte, err error) {
	for {
		f, err := read()
		if err != nil {
			return frames, err
		}
		frames = append(frames, f)
	}
}

// sameFrames requires of one face of FrameReader the reference's frames
// and the reference's terminal error.
func sameFrames(t *testing.T, face string, got [][]byte, gotErr error, want [][]byte, wantErr error) {
	t.Helper()
	if gotErr != wantErr {
		t.Fatalf("%s: after %d frames error %v, reference %v after %d", face, len(got), gotErr, wantErr, len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, reference %d", face, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) || (got[i] == nil) != (want[i] == nil) {
			t.Fatalf("%s: frame %d differs from the reference (%d vs %d bytes)", face, i, len(got[i]), len(want[i]))
		}
	}
}

// checkAgainstReference delivers stream in the given chunking to the
// reference and to both faces of FrameReader — frames pulled, frames
// pushed by Serve through a blocking Read — and requires the same frames
// and the same terminal error from all three.
func checkAgainstReference(t *testing.T, stream []byte, chunks []int, limit uint32) {
	t.Helper()
	for _, eofWithData := range []bool{false, true} {
		src := func() io.Reader {
			return &chunkReader{data: stream, chunks: chunks, eofWithData: eofWithData}
		}
		ref := src()
		want, wantErr := drain(func() ([]byte, error) { return refReadFrame(ref, limit) })
		fr := NewFrameReader(src())
		got, gotErr := drain(func() ([]byte, error) { return readFrameVia(fr, limit) })
		sameFrames(t, fmt.Sprintf("pulled, eofWithData=%v", eofWithData), got, gotErr, want, wantErr)
		got, gotErr = drainServe(src(), limit)
		sameFrames(t, fmt.Sprintf("pushed, eofWithData=%v", eofWithData), got, gotErr, want, wantErr)
	}
}

// frameStream frames bodies of the given sizes, each filled with a
// pattern that depends on its index and offset.
func frameStream(sizes ...int) []byte {
	var s []byte
	for i, n := range sizes {
		s = binary.BigEndian.AppendUint32(s, uint32(n))
		for j := 0; j < n; j++ {
			s = append(s, byte(i*31+j))
		}
	}
	return s
}

// The streams and the chunkings every face and every driver of
// FrameReader is held to the reference over.
const referenceLimit = 1 << 20

var (
	smallFrames      = frameStream(64, 17, 200, 1, 90)
	referenceStreams = map[string][]byte{
		"small frames":               smallFrames,
		"zero-length frames":         frameStream(0, 5, 0, 0, 3, 0),
		"straddling the read-ahead":  frameStream(300, 300, 300, 300),
		"around the read-ahead size": frameStream(FrameReadAhead-5, FrameReadAhead-4, FrameReadAhead-3, FrameReadAhead, FrameReadAhead+1, 2*FrameReadAhead+3),
		"large then small":           frameStream(70<<10, 10, 200<<10, 0, 7),
		"oversize header":            append(frameStream(8, 8), 0xff, 0xff, 0xff, 0xff, 1, 2, 3),
		"just over the limit":        binary.BigEndian.AppendUint32(frameStream(3), referenceLimit+1),
		"EOF mid-header":             append(frameStream(12), 0, 0),
		"EOF after header":           binary.BigEndian.AppendUint32(frameStream(12), 40),
		"EOF mid-body":               smallFrames[:len(smallFrames)-10],
		"EOF mid large body":         frameStream(100 << 10)[:80<<10],
		"empty stream":               nil,
	}
	referenceChunkings = map[string][]int{
		"one read":           nil,
		"a byte at a time":   {1},
		"two bytes":          {2},
		"header-sized":       {4},
		"odd sizes":          {3, 1, 7, 2, 500, 5},
		"half frames":        {34, 34, 10, 11, 102, 102},
		"read-ahead minus 1": {FrameReadAhead - 1},
		"read-ahead plus 1":  {FrameReadAhead + 1},
		"big then small":     {4096, 1},
	}
)

func TestFrameReaderMatchesReference(t *testing.T) {
	for sname, stream := range referenceStreams {
		for cname, chunks := range referenceChunkings {
			t.Run(sname+"/"+cname, func(t *testing.T) {
				checkAgainstReference(t, stream, chunks, referenceLimit)
			})
		}
	}
}

func FuzzFrameReader(f *testing.F) {
	f.Add(frameStream(64, 17, 0, 200), []byte{0})
	f.Add(frameStream(300, 300, 300), []byte{1})
	f.Add(frameStream(FrameReadAhead+9, 3), []byte{3, 200, 1})
	f.Add(append(frameStream(5), 0xff, 0xff, 0xff, 0xff), []byte{2})
	f.Add(frameStream(40)[:20], []byte{255, 1})
	f.Add([]byte{0, 0}, []byte{})
	f.Fuzz(func(t *testing.T, stream, schedule []byte) {
		chunks := make([]int, len(schedule))
		for i, b := range schedule {
			chunks[i] = int(b) * 3 // 0 = whatever the reader asks for; up to 765, past the read-ahead
		}
		// The limit is low so that a fuzzed header cannot make the
		// reference allocate gigabytes, and sits inside the streams the
		// fuzzer builds so that both sides of it are reached.
		checkAgainstReference(t, stream, chunks, 4096)
	})
}

// TestFrameReaderStalledBody: a declared length costs nothing until the
// bytes come. A 16 MiB header followed by a trickle must leave the
// reader holding its first 64 KiB step, not the declared size.
func TestFrameReaderStalledBody(t *testing.T) {
	const declared = 16 << 20
	stream := binary.BigEndian.AppendUint32(nil, declared)
	stream = append(stream, make([]byte, 1000)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := drainServe(&chunkReader{data: stream}, declared); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated body: %v, want io.ErrUnexpectedEOF", err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("a 16 MiB header and 1000 body bytes made the reader allocate %d bytes", got)
	}
}

// TestServeReusesAndGrows: storage handed back is read into again with
// nothing allocated while frames fit it, none costs a small frame its own
// size and not the first growth step, and a large frame's buffer is at
// most twice what arrived. The whole stream costs a handful of reads: the
// first four frames and the fifth's header in the read-ahead, the rest of
// the fifth straight into its storage, one read per step of its growth.
func TestServeReusesAndGrows(t *testing.T) {
	var wire bytes.Buffer
	fw := NewFrameWriter(&wire)
	sizes := []int{300, 40, 0, 100, 200 << 10}
	for _, n := range sizes {
		if err := fw.WriteFrame(bytes.Repeat([]byte{byte(n)}, n), nil); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&chunkReader{data: wire.Bytes(), eofWithData: true})
	i, had := 0, 0
	err := fr.Serve(1<<20, nil, func(buf []byte) ([]byte, error) {
		n := sizes[i]
		if !bytes.Equal(buf, bytes.Repeat([]byte{byte(n)}, n)) {
			t.Fatalf("frame %d: %d bytes, want %d of %d", i, len(buf), n, byte(n))
		}
		switch {
		case n <= had && cap(buf) != had:
			t.Errorf("frame %d (%d bytes) fitted the %d-byte buffer and was read into another of %d", i, n, had, cap(buf))
		case i == 0 && cap(buf) > 2*n:
			t.Errorf("a first frame of %d bytes got a buffer of %d", n, cap(buf))
		case cap(buf) > 2*n+frameGrowStep:
			t.Errorf("a %d-byte frame left a buffer of %d", n, cap(buf))
		}
		i, had = i+1, cap(buf)
		return buf, nil // Serve starts the next frame at the storage's start
	}, nil)
	if err != io.EOF || i != len(sizes) {
		t.Fatalf("%d of %d frames, then %v; want all and io.EOF", i, len(sizes), err)
	}
	if reads, frames := fr.Counts(); reads > 6 || frames != uint64(len(sizes)) {
		t.Errorf("Counts() = %d reads, %d frames; want ≤ 6 and %d", reads, frames, len(sizes))
	}
}

// TestServeFlushesOncePerRead: flush follows the frames each read
// completed — three, then one, then one that took two reads and the end —
// and is not called for a read that completed none. An error from fn or
// flush ends Serve after the flush of what the read completed, and fn's
// wins.
func TestServeFlushesOncePerRead(t *testing.T) {
	stream := frameStream(10, 10, 10, 10, 10) // 14 bytes a frame
	refused, stop := errors.New("frame refused"), errors.New("flush failed")
	serve := func(failAt, failFlush int) (flushed []int, err error) { // the frame fn refuses, the flush that fails; 0 for none
		var frames int
		fr := NewFrameReader(&chunkReader{data: stream, chunks: []int{42, 14, 7, 7}, eofWithData: true})
		err = fr.Serve(1<<20, nil, func(frame []byte) ([]byte, error) {
			if frames++; frames == failAt {
				return nil, refused
			}
			return frame, nil
		}, func() error {
			if flushed = append(flushed, frames); len(flushed) == failFlush {
				return stop
			}
			return nil
		})
		return flushed, err
	}
	if flushed, err := serve(0, 0); err != io.EOF || !slices.Equal(flushed, []int{3, 4, 5}) {
		t.Errorf("flushes after %v frames, then %v; want after [3 4 5], then io.EOF", flushed, err)
	}
	if flushed, err := serve(0, 2); err != stop || !slices.Equal(flushed, []int{3, 4}) {
		t.Errorf("a failing second flush: flushes after %v frames, then %v; want after [3 4], then its error", flushed, err)
	}
	if flushed, err := serve(2, 1); err != refused || !slices.Equal(flushed, []int{2}) {
		t.Errorf("fn failing on frame 2, and the flush after it: flushes after %v frames, then %v; want after [2], then fn's error", flushed, err)
	}
}

// TestServeResumes: a Serve that fn ended leaves the frames behind the
// one it ended on in the read-ahead, and the next Serve begins with them.
func TestServeResumes(t *testing.T) {
	stop := errors.New("one frame")
	fr := NewFrameReader(bytes.NewReader(frameStream(5, 0, 700, 9)))
	for i, want := range []int{5, 0, 700, 9} {
		got := -1
		err := fr.Serve(1<<20, nil, func(frame []byte) ([]byte, error) {
			got = len(frame)
			return nil, stop
		}, nil)
		if err != stop || got != want {
			t.Fatalf("Serve %d: a frame of %d bytes and %v, want %d", i, got, err, want)
		}
	}
	if err := fr.Serve(1<<20, nil, nil, nil); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

func TestFrameWriterRoundTrip(t *testing.T) {
	var wire bytes.Buffer
	fw := NewFrameWriter(&wire)
	bodies := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{7}, 3000)}
	for _, b := range bodies {
		if err := fw.WriteFrame(b, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.WriteFrame([]byte("body"), []byte("mac!")); err != nil {
		t.Fatal(err)
	}
	bodies = append(bodies, []byte("bodymac!"))
	fr := NewFrameReader(&wire)
	for i, want := range bodies {
		got, err := readFrameVia(fr, 1<<20)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %q, %v; want %q", i, got, err, want)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
	for _, b := range fw.vec {
		if b != nil {
			t.Fatal("FrameWriter kept a reference to the caller's buffers after WriteFrame")
		}
	}
}
