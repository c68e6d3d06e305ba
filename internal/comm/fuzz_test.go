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
		{fr: msgFrame{Src: "urn:snipe:s", Dst: "urn:snipe:d", Tag: 3, Seq: 8, FragIdx: 1, FragCount: 4, Payload: []byte("middle")}},
		{fr: msgFrame{Src: "urn:snipe:c", Dst: "urn:snipe:r", Tag: StreamTag, Seq: 9, FragCount: 1, Flags: flagReplyExpected, Payload: []byte("request")}},
		{fr: msgFrame{Src: "urn:snipe:r", Dst: "urn:snipe:c", Tag: StreamTag, Seq: 4, FragCount: 1, Payload: []byte("response")}, acks: seqTrailer(9)},
		{fr: msgFrame{Src: "urn:snipe:r", Dst: "urn:snipe:c", Tag: 1, Seq: 5, FragCount: 2, Flags: flagReplyExpected}, acks: seqTrailer(make([]uint64, ackBatchMax)...)},
	} {
		f.Add(encodeMsgFrame(&seed.fr, seed.acks)[1:]) // strip the frame-type byte, as the dispatcher does
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// A trailer of half an entry.
	f.Add(encodeMsgFrame(&msgFrame{Src: "a", Dst: "b", Seq: 1, FragCount: 1}, seqTrailer(1)[:4])[1:])
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
	f.Add(ackFrame("urn:snipe:a", "urn:snipe:b", 42)[1:])
	f.Add(ackFrame("", "", 0)[1:])
	f.Add([]byte{0, 0, 0, 9})
	f.Add(ackFrame("urn:snipe:a", "urn:snipe:b", 1, 2, 1<<40)[1:])
	f.Add(ackFrame("urn:snipe:a", "urn:snipe:b", make([]uint64, ackBatchMax)...)[1:])
	f.Add(ackFrame("urn:snipe:a", "urn:snipe:b", make([]uint64, ackBatchMax+1)...)[1:])
	f.Add(ackFrame("urn:snipe:a", "urn:snipe:b")[1:]) // no entry
	f.Fuzz(func(t *testing.T, b []byte) {
		var names peerNames // shared by both decodes: the second takes the reuse path
		src, dst, acks, err := decodeAck(xdr.NewDecoder(b), &names)
		if err != nil {
			return
		}
		if n := acks.count(); n < 1 || n > ackBatchMax || len(acks) != n*carriedAckSize {
			t.Fatalf("decodeAck accepted a %d-byte ack list", len(acks))
		}
		// A successful decode consumed the whole frame, so encoding it
		// again gives the same bytes, and they decode to the same acks.
		e := xdr.NewEncoder(len(b) + 1)
		putAck(e, src, dst, acks)
		if !bytes.Equal(e.Bytes()[1:], b) {
			t.Fatalf("re-encoding differs:\n got %x\nfrom %x", e.Bytes()[1:], b)
		}
		s2, d2, acks2, err := decodeAck(xdr.NewDecoder(e.Bytes()[1:]), &names)
		if err != nil || s2 != src || d2 != dst || !bytes.Equal(acks2, acks) {
			t.Fatalf("ack round-trip mismatch: %q %q %x err=%v", s2, d2, []byte(acks2), err)
		}
	})
}

// FuzzDecodeAckBatch feeds the ack list alone, as it ends an ack frame or
// rides a message frame as its trailer: a list the decoder takes holds
// whole entries within the bound and is the bytes it was given.
func FuzzDecodeAckBatch(f *testing.F) {
	f.Add([]byte(seqTrailer(1, 2)))
	f.Add([]byte{})                       // a batch of no acks
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // what was a hostile count: half an entry
	f.Fuzz(func(t *testing.T, b []byte) {
		acks, err := decodeCarriedAcks(xdr.NewDecoder(b))
		if err != nil {
			return
		}
		if n := acks.count(); n < 1 || n > ackBatchMax || len(acks) != n*carriedAckSize || !bytes.Equal(acks, b) {
			t.Fatalf("decodeCarriedAcks took %d bytes as %x", len(b), []byte(acks))
		}
		for i := 0; i < acks.count(); i++ {
			if acks.seq(i) != binary.BigEndian.Uint64(b[i*carriedAckSize:]) {
				t.Fatalf("entry %d reads %d", i, acks.seq(i))
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
