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
		{fr: msgFrame{Src: "urn:snipe:r", Dst: "urn:snipe:c", Tag: ReplyTag, Seq: 4, FragCount: 1, Payload: []byte("response")}, acks: seqTrailer(9)},
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

// FuzzDecodeStreamFrames fuzzes the two messages of a call (stream.go):
// every input is read both as a request and as a reply.
func FuzzDecodeStreamFrames(f *testing.F) {
	request := func(id uint64, method, body string) []byte {
		e := xdr.NewEncoder(64)
		e.PutUint64(id)
		e.PutString(method)
		e.PutRaw([]byte(body))
		return e.Bytes()
	}
	// A request with and without a body, a cut method, a method length
	// far past the payload, replies of each status and an unknown one, a
	// reply with no status, nothing.
	call := request(1, "echo", "request")
	f.Add(call)
	f.Add(request(1<<40, "m", ""))
	f.Add(call[:13])
	f.Add(append(binary.BigEndian.AppendUint64(nil, 2), 0xff, 0xff, 0xff, 0xff))
	f.Add(callReply(1, callOK, "response"))
	f.Add(callReply(2, callFailed, "unknown method echo"))
	f.Add(callReply(3, callDraining, ""))
	f.Add(callReply(4, 0xff, "?"))
	f.Add(binary.BigEndian.AppendUint64(nil, 5))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		// A request that decodes is exactly its parts, re-encoded.
		if id, method, body, err := decodeRequest(b); err == nil {
			if cap(body) != len(body) {
				t.Fatalf("body has capacity %d past its length %d", cap(body), len(body))
			}
			if again := request(id, method, string(body)); !bytes.Equal(again, b) {
				t.Fatalf("request %d %q %q re-encodes to %x, not %x", id, method, body, again, b)
			}
		}
		// A reply always reads as a known status; a well-formed one is its
		// status byte and the rest.
		status, body := decodeReply(b)
		if status > callOverloaded {
			t.Fatalf("reply read with unknown status %d", status)
		}
		if len(b) >= replyHeaderSize && b[8] <= callOverloaded && (status != b[8] || !bytes.Equal(body, b[replyHeaderSize:])) {
			t.Fatalf("reply %x read as status %d body %x", b, status, body)
		}
	})
}
