//go:build go1.18

package rcds

import (
	"bytes"
	"testing"

	"snipe/internal/xdr"
)

func fuzzAssertionBytes(a Assertion) []byte {
	e := xdr.NewEncoder(128)
	a.Encode(e)
	return e.Bytes()
}

func FuzzDecodeAssertion(f *testing.F) {
	f.Add(fuzzAssertionBytes(Assertion{
		URI: "urn:snipe:host:a", Name: "comm-addr", Value: "tcp://h:1",
		Clock: 7, Origin: "srv1", Seq: 3,
	}))
	f.Add(fuzzAssertionBytes(Assertion{
		URI: "urn:x", Name: "n", Value: "", Deleted: true, ServerTime: -1,
		Signature: bytes.Repeat([]byte{1}, 64), Signer: "alice",
	}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(fuzzAssertionBytes(Assertion{
		URI: "snipe://hosts/a", Name: "heartbeat", Value: "41 1790000000 0.25",
		Clock: 9, Origin: "srv2", Seq: 4, Sole: true, ServerTime: 1,
	}))
	f.Fuzz(func(t *testing.T, b []byte) {
		a, err := DecodeAssertion(xdr.NewDecoder(b))
		if err != nil {
			return
		}
		if a.Sole && a.Deleted {
			t.Fatalf("decoded a Sole tombstone: %+v", a)
		}
		again, err := DecodeAssertion(xdr.NewDecoder(fuzzAssertionBytes(a)))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.URI != a.URI || again.Name != a.Name || again.Value != a.Value ||
			again.Clock != a.Clock || again.Origin != a.Origin || again.Seq != a.Seq ||
			again.Deleted != a.Deleted || again.Sole != a.Sole || !bytes.Equal(again.Signature, a.Signature) {
			t.Fatalf("round-trip mismatch:\n%+v\n%+v", a, again)
		}
	})
}

func FuzzDecodeAssertions(f *testing.F) {
	e := xdr.NewEncoder(256)
	EncodeAssertions(e, []Assertion{
		{URI: "urn:a", Name: "n", Value: "v", Clock: 1, Origin: "o", Seq: 1},
		{URI: "urn:b", Name: "m", Value: "w", Clock: 2, Origin: "o", Seq: 2},
	})
	f.Add(e.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // hostile count
	f.Add(hostileCount)                   // one the cap on preallocation alone would let through
	e = xdr.NewEncoder(256)
	EncodeAssertions(e, []Assertion{
		{URI: "urn:a", Name: "n", Value: "v", Clock: 3, Origin: "o", Seq: 3, Sole: true},
		{URI: "urn:a", Name: "n", Value: "v", Clock: 4, Origin: "o", Seq: 4, Deleted: true},
	})
	f.Add(e.Bytes())
	f.Fuzz(func(t *testing.T, b []byte) {
		DecodeAssertions(xdr.NewDecoder(b))
	})
}

func FuzzDecodeVersionVector(f *testing.F) {
	vv := VersionVector{"srv1": 10, "srv2": 3}
	e := xdr.NewEncoder(64)
	vv.Encode(e)
	f.Add(e.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // hostile count, no body
	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := DecodeVersionVector(xdr.NewDecoder(b))
		if err != nil {
			return
		}
		e := xdr.NewEncoder(64)
		v.Encode(e)
		again, err := DecodeVersionVector(xdr.NewDecoder(e.Bytes()))
		if err != nil || !again.Dominates(v) || !v.Dominates(again) {
			t.Fatalf("vector round-trip mismatch: %v vs %v (err %v)", v, again, err)
		}
	})
}

func FuzzParseResponse(f *testing.F) {
	f.Add(okResponse(func(e *xdr.Encoder) { e.PutString("pong") })[muxHeader:])
	f.Add(errResponse(ErrServer)[muxHeader:])
	f.Add(wrongShardResponse(2, 7)[muxHeader:])
	f.Add([]byte{statusWrongShard, 0, 0, 0, 1}) // truncated redirect
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 0, 4, 'j', 'u', 'n', 'k'})
	f.Fuzz(func(t *testing.T, b []byte) {
		// Every status except OK yields an error: statusErr and
		// statusWrongShard by design (server error / typed redirect),
		// everything else as ErrUnknownStatus.
		if len(b) > 0 && b[0] != statusOK {
			if _, err := parseBody(b); err == nil {
				t.Fatalf("parseResponse accepted non-OK status %d", b[0])
			}
			return
		}
		parseBody(b)
	})
}

// FuzzServeFrame feeds the server whole request frames, as its read loop
// hands them to serve after the MAC check: a frame is answered under
// its own non-zero ID, or is a posted Apply answered with nothing, or is
// refused — and a refused frame leaves the store as it was.
func FuzzServeFrame(f *testing.F) {
	triple := func(e *xdr.Encoder) { e.PutString("urn:a"); e.PutString("n"); e.PutString("v") }
	posted := request(cmdApply, func(e *xdr.Encoder) {
		e.PutString("rc1")
		EncodeAssertions(e, []Assertion{{URI: "urn:a", Name: "n", Value: "v", Clock: 1, Origin: "rc1", Seq: 1, Sole: true}})
	})
	f.Add(posted)                                                      // a posted Apply
	f.Add(request(cmdSet, triple))                                     // ID 0 + other command
	f.Add(withID(append([]byte(nil), posted...), 9))                   // Apply under a request ID
	f.Add(request(cmdApply, func(e *xdr.Encoder) { e.PutString("") })) // posted, no sender origin
	f.Add(withID(request(cmdSet, triple), 1))
	f.Add(withID(request(cmdGet, func(e *xdr.Encoder) { e.PutString("urn:a") }), 2))
	f.Add(withID(request(cmdWait, func(e *xdr.Encoder) { e.PutUint64(0); e.PutUint32(1 << 31) }), 3))
	f.Add([]byte{0, 0, 0})
	f.Add(request(cmdApply, func(e *xdr.Encoder) { e.PutString("rc1"); e.PutRaw(hostileCount) })) // more ops declared than bytes
	f.Fuzz(func(t *testing.T, frame []byte) {
		s := NewServer(NewStore("rc0"))
		resp, err := s.serve(new(served), frame, nil) // nil: a Wait is answered at once, as past the parked bound
		if err != nil {
			if resp != nil {
				t.Fatalf("refused with %v and answered %x", err, resp)
			}
			if uris, _, _ := s.Store().Stats(); uris != 0 || s.Store().Version() != 0 {
				t.Fatalf("refused with %v after touching the store", err)
			}
			return
		}
		id, _, _ := splitMux(frame) // serve accepted it, so it has an ID
		if (id == 0) != (resp == nil) {
			t.Fatalf("request ID %d answered %x", id, resp)
		}
		if resp != nil {
			if got, _, err := splitMux(resp); err != nil || got != id {
				t.Fatalf("request ID %d answered under ID %d (%v)", id, got, err)
			}
		}
	})
}
