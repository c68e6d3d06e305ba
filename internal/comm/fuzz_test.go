//go:build go1.18

package comm

import (
	"bytes"
	"encoding/binary"
	"testing"

	"snipe/internal/xdr"
)

// The comm decoders face bytes straight off a transport; none of them
// may panic or allocate proportionally to a hostile length prefix.

func FuzzDecodeMsgFrame(f *testing.F) {
	for _, seed := range []struct {
		fr   msgFrame
		acks carriedAcks
	}{
		{fr: msgFrame{Src: "urn:snipe:a", Dst: "urn:snipe:b", Tag: 7, Seq: 1, FragIdx: 0, FragCount: 1, Payload: []byte("hi")}},
		{fr: msgFrame{Src: "", Dst: "", Tag: 0, Seq: 0, FragIdx: 2, FragCount: 5, Payload: nil}},
		{fr: msgFrame{Src: "urn:snipe:x", Dst: "urn:snipe:y", Tag: AnyTag, Seq: 1 << 40, FragIdx: 9, FragCount: 10, Payload: bytes.Repeat([]byte{0xab}, 100)}},
		{fr: msgFrame{Src: "urn:snipe:s", Dst: "urn:snipe:d", Tag: 3, Seq: 8, FragIdx: 1, FragCount: 4, Flags: flagStriped, Payload: []byte("striped")}},
		{fr: msgFrame{Src: "urn:snipe:c", Dst: "urn:snipe:r", Tag: StreamTag, Seq: 9, FragCount: 1, Flags: flagReplyExpected, Payload: []byte("request")}},
		{fr: msgFrame{Src: "urn:snipe:r", Dst: "urn:snipe:c", Tag: StreamTag, Seq: 4, FragCount: 1, Payload: []byte("response")}, acks: seqTrailer(9)},
		{fr: msgFrame{Src: "urn:snipe:r", Dst: "urn:snipe:c", Tag: 1, Seq: 5, FragCount: 2, Flags: flagReplyExpected}, acks: seqTrailer(make([]uint64, ackBatchMax)...)},
	} {
		f.Add(encodeMsgFrame(&seed.fr, seed.acks)[1:]) // strip the frame-type byte, as the dispatcher does
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// A trailer whose count promises more than the frame holds.
	hostile := encodeMsgFrame(&msgFrame{Src: "a", Dst: "b", Seq: 1, FragCount: 1}, seqTrailer(1))[1:]
	binary.BigEndian.PutUint32(hostile[len(hostile)-12:], 0xffffffff)
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, b []byte) {
		var names peerNames // shared by both decodes: the second takes the reuse path
		fr, acks, err := decodeMsgFrame(xdr.NewDecoder(b), &names)
		if err != nil {
			return
		}
		if fr.FragCount == 0 || fr.FragIdx >= fr.FragCount {
			t.Fatalf("decodeMsgFrame accepted inconsistent fragment %d/%d", fr.FragIdx, fr.FragCount)
		}
		if fr.Flags&^flagsKnown != 0 {
			t.Fatalf("decodeMsgFrame accepted flags %#x", fr.Flags)
		}
		if n := acks.count(); (fr.Flags&flagAcks != 0) != (n > 0) || n > ackBatchMax || len(acks)%carriedAckSize != 0 {
			t.Fatalf("decodeMsgFrame accepted flags %#x with a %d-byte trailer", fr.Flags, len(acks))
		}
		// A successful decode consumed the whole frame, so encoding it
		// again gives the same bytes, and they decode to the same frame.
		enc := encodeMsgFrame(&fr, acks)[1:]
		if !bytes.Equal(enc, b) {
			t.Fatalf("re-encoding differs:\n got %x\nfrom %x", enc, b)
		}
		again, acksAgain, err := decodeMsgFrame(xdr.NewDecoder(enc), &names)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Src != fr.Src || again.Dst != fr.Dst || again.Tag != fr.Tag || again.Seq != fr.Seq ||
			again.FragIdx != fr.FragIdx || again.FragCount != fr.FragCount || again.Flags != fr.Flags ||
			!bytes.Equal(again.Payload, fr.Payload) || !bytes.Equal(acksAgain, acks) {
			t.Fatalf("round-trip mismatch: %+v %x vs %+v %x", fr, acks, again, acksAgain)
		}
	})
}

func FuzzDecodeFragAck(f *testing.F) {
	f.Add(encodeFragAck("urn:snipe:a", "urn:snipe:b", 42, 7)[1:])
	f.Add(encodeFragAck("", "", 0, 0)[1:])
	f.Add([]byte{0, 0, 0, 9})
	f.Fuzz(func(t *testing.T, b []byte) {
		var names peerNames
		src, dst, seq, idx, err := decodeFragAck(xdr.NewDecoder(b), &names)
		if err != nil {
			return
		}
		b2 := encodeFragAck(src, dst, seq, idx)[1:]
		s2, d2, q2, i2, err := decodeFragAck(xdr.NewDecoder(b2), &names)
		if err != nil || s2 != src || d2 != dst || q2 != seq || i2 != idx {
			t.Fatalf("frag-ack round-trip mismatch: %q %q %d %d err=%v", s2, d2, q2, i2, err)
		}
	})
}

func FuzzDecodeHello(f *testing.F) {
	f.Add(encodeHello("urn:snipe:node:1")[1:])
	f.Add(encodeHello("")[1:])
	f.Add([]byte{0x7f, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		urn, err := decodeHello(xdr.NewDecoder(b))
		if err == nil && len(urn) > maxWireURN {
			t.Fatalf("decodeHello returned %d-byte URN beyond cap", len(urn))
		}
	})
}

func FuzzDecodeAck(f *testing.F) {
	f.Add(encodeAck("urn:snipe:a", "urn:snipe:b", 42)[1:])
	f.Add(encodeAck("", "", 0)[1:])
	f.Add([]byte{0, 0, 0, 9})
	f.Fuzz(func(t *testing.T, b []byte) {
		var names peerNames
		src, dst, seq, err := decodeAck(xdr.NewDecoder(b), &names)
		if err != nil {
			return
		}
		b2 := encodeAck(src, dst, seq)[1:]
		s2, d2, q2, err := decodeAck(xdr.NewDecoder(b2), &names)
		if err != nil || s2 != src || d2 != dst || q2 != seq {
			t.Fatalf("ack round-trip mismatch: %q %q %d err=%v", s2, d2, q2, err)
		}
	})
}

// encodeAckBatchSeed builds a batch frame body (frame-type byte
// stripped) for fuzz seeding.
func encodeAckBatchSeed(ftype uint8, refs []ackRef) []byte {
	e := xdr.NewEncoder(64)
	putAckBatch(e, ftype, refs)
	return e.Bytes()[1:]
}

func FuzzDecodeAckBatch(f *testing.F) {
	f.Add(encodeAckBatchSeed(frameAckBatch, []ackRef{
		{src: "urn:snipe:a", dst: "urn:snipe:b", seq: 1},
		{src: "urn:snipe:a", dst: "urn:snipe:b", seq: 2},
	}))
	f.Add(encodeAckBatchSeed(frameAckBatch, nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // hostile count, no entries
	f.Fuzz(func(t *testing.T, b []byte) {
		var names peerNames
		var scratch, scratch2 [ackBatchMax]ackRef
		refs, err := decodeAckBatch(xdr.NewDecoder(b), &names, false, scratch[:0])
		if err != nil {
			return
		}
		// A successful decode must round-trip entry for entry.
		b2 := encodeAckBatchSeed(frameAckBatch, refs)
		again, err := decodeAckBatch(xdr.NewDecoder(b2), &names, false, scratch2[:0])
		if err != nil || len(again) != len(refs) {
			t.Fatalf("re-decode: %d entries, err=%v (want %d)", len(again), err, len(refs))
		}
		for i := range refs {
			if again[i].src != refs[i].src || again[i].dst != refs[i].dst || again[i].seq != refs[i].seq {
				t.Fatalf("entry %d mismatch: %+v vs %+v", i, refs[i], again[i])
			}
		}
	})
}

func FuzzDecodeFragAckBatch(f *testing.F) {
	f.Add(encodeAckBatchSeed(frameFragAckBatch, []ackRef{
		{src: "urn:snipe:a", dst: "urn:snipe:b", seq: 9, fragIdx: 0},
		{src: "urn:snipe:a", dst: "urn:snipe:b", seq: 9, fragIdx: 3},
	}))
	f.Add(encodeAckBatchSeed(frameFragAckBatch, nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		var names peerNames
		var scratch, scratch2 [ackBatchMax]ackRef
		refs, err := decodeAckBatch(xdr.NewDecoder(b), &names, true, scratch[:0])
		if err != nil {
			return
		}
		b2 := encodeAckBatchSeed(frameFragAckBatch, refs)
		again, err := decodeAckBatch(xdr.NewDecoder(b2), &names, true, scratch2[:0])
		if err != nil || len(again) != len(refs) {
			t.Fatalf("re-decode: %d entries, err=%v (want %d)", len(again), err, len(refs))
		}
		for i := range refs {
			if again[i] != refs[i] {
				t.Fatalf("entry %d mismatch: %+v vs %+v", i, refs[i], again[i])
			}
		}
	})
}

func FuzzParseRoute(f *testing.F) {
	for _, s := range []string{
		"tcp://127.0.0.1:7000",
		"rudp://10.0.0.1:7001;net=lab;rate=1000000",
		"tcp://host:1;net=;rate=0.5",
		"://",
		"tcp://",
		"tcp://h;bogus",
		"tcp://h;rate=notanumber",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r, err := ParseRoute(s)
		if err != nil {
			return
		}
		if r.Transport == "" || r.Addr == "" {
			t.Fatalf("ParseRoute(%q) accepted empty transport or addr: %+v", s, r)
		}
		// Accepted routes must re-parse to the same route.
		again, err := ParseRoute(r.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q) failed: %v", r.String(), s, err)
		}
		if again != r {
			t.Fatalf("round-trip mismatch: %+v vs %+v", r, again)
		}
	})
}

func FuzzDecodeSequenceState(f *testing.F) {
	var st SequenceState
	st.NextSeq = map[string]uint64{"urn:a": 3}
	st.Expected = map[string]uint64{"urn:b": 9}
	st.Mailbox = []Message{{Src: "urn:a", Dst: "urn:b", Tag: 5, Seq: 2, Payload: []byte("m")}}
	e := xdr.NewEncoder(128)
	st.Encode(e)
	f.Add(e.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		DecodeSequenceState(xdr.NewDecoder(b))
	})
}

func FuzzDecodeStreamFrames(f *testing.F) {
	seq := func(frames ...streamFrame) []byte {
		e := xdr.NewEncoder(64)
		for i := range frames {
			frames[i].encode(e)
		}
		return e.Bytes()
	}
	open := streamFrame{kind: streamOpen, id: 1, orig: true, method: "echo", delta: 1 << 20}
	data := streamFrame{kind: streamData, id: 1, orig: true, data: []byte("request")}
	closeF := streamFrame{kind: streamClose, id: 1, orig: true}
	// Each kind alone, a unary call's batch, a cut tail, garbage after a
	// valid frame, a length prefix far past the payload.
	f.Add(seq(open))
	f.Add(seq(data))
	f.Add(seq(closeF))
	f.Add(seq(streamFrame{kind: streamReset, id: 2, reason: drainReason}))
	f.Add(seq(streamFrame{kind: streamWindow, id: 2, delta: 4096}))
	call := seq(open, data, closeF)
	f.Add(call)
	f.Add(call[:len(call)-13])
	f.Add(append(seq(closeF), 0xff, 0xff, 0xff, 0xff))
	f.Add(append(seq(closeF), streamData, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0xff, 0xff, 0xff, 0xff))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		var frames []streamFrame
		err := forEachStreamFrame(b, func(fr streamFrame) { frames = append(frames, fr) })
		// What was applied is exactly a frame sequence: re-encoded, it
		// has the size wireSize promises and decodes whole to the same
		// frames. An undamaged payload is used up by its frames.
		e := xdr.NewEncoder(len(b))
		for i := range frames {
			before := e.Len()
			frames[i].encode(e)
			if n := e.Len() - before; n != frames[i].wireSize() {
				t.Fatalf("frame %d: wireSize %d, encoded %d", i, frames[i].wireSize(), n)
			}
		}
		if e.Len() > len(b) || (err == nil && e.Len() != len(b)) {
			t.Fatalf("%d applied frames re-encode to %d bytes of a %d-byte payload (err %v)", len(frames), e.Len(), len(b), err)
		}
		i := 0
		if err := forEachStreamFrame(e.Bytes(), func(fr streamFrame) {
			if !sameStreamFrame(fr, frames[i]) {
				t.Fatalf("frame %d round-trip mismatch: %+v vs %+v", i, fr, frames[i])
			}
			i++
		}); err != nil || i != len(frames) {
			t.Fatalf("re-decode applied %d of %d frames: %v", i, len(frames), err)
		}
	})
}
