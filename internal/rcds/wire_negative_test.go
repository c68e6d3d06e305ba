package rcds

import (
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"snipe/internal/xdr"
)

// TestParseResponseNegative exercises the hostile shapes a response
// body can take: truncated frames, an error string whose declared
// length exceeds both the cap and the bytes present, and status tags
// the protocol does not define.
func TestParseResponseNegative(t *testing.T) {
	// statusErr followed by a 2 GB claimed string length and no body.
	oversized := []byte{statusErr}
	oversized = binary.BigEndian.AppendUint32(oversized, 2<<30)

	// statusErr with a declared length just over the per-value cap,
	// and enough real bytes to back it: the cap must fire, not the
	// truncation check.
	overCap := []byte{statusErr}
	overCap = binary.BigEndian.AppendUint32(overCap, maxWireValue+1)
	overCap = append(overCap, make([]byte, maxWireValue+3)...)

	cases := []struct {
		name    string
		body    []byte
		wantErr error  // errors.Is target, nil = any error
		wantSub string // substring of the message, "" = skip
	}{
		{name: "empty body", body: nil},
		{name: "truncated error string", body: []byte{statusErr, 0, 0, 0, 10, 'h', 'i'}},
		{name: "oversized error length", body: oversized, wantErr: xdr.ErrStringTooLong},
		{name: "error length over value cap", body: overCap, wantErr: xdr.ErrStringTooLong},
		{name: "unknown status tag", body: []byte{0x7f, 0, 0, 0, 0}, wantErr: ErrUnknownStatus, wantSub: "unknown response status"},
		{name: "high status tag", body: []byte{0xff}, wantErr: ErrUnknownStatus, wantSub: "unknown response status"},
		{name: "server error passes through", body: errResponse(errors.New("boom"))[muxHeader:], wantErr: ErrServer, wantSub: "boom"},
		{name: "wrong shard truncated after group", body: []byte{statusWrongShard, 0, 0, 0, 2}},
		{name: "wrong shard empty payload", body: []byte{statusWrongShard}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := parseBody(tc.body)
			if err == nil {
				t.Fatalf("parseResponse(%x) accepted (decoder %v)", tc.body, d)
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("error %v, want errors.Is(%v)", err, tc.wantErr)
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q missing %q", err, tc.wantSub)
			}
		})
	}

	// The well-formed shapes still parse.
	if _, err := parseBody(okResponse(nil)[muxHeader:]); err != nil {
		t.Fatalf("empty OK response rejected: %v", err)
	}
	if _, err := parseBody(okResponse(func(e *xdr.Encoder) { e.PutString("x") })[muxHeader:]); err != nil {
		t.Fatalf("OK response rejected: %v", err)
	}

	// A well-formed wrong-shard redirect surfaces as the typed error,
	// not an opaque server error: the router matches on it to re-resolve
	// the shard map.
	_, err := parseBody(wrongShardResponse(3, 9)[muxHeader:])
	if !errors.Is(err, ErrWrongShard) {
		t.Fatalf("wrong-shard response: error %v, want errors.Is(ErrWrongShard)", err)
	}
	var ws *WrongShardError
	if !errors.As(err, &ws) || ws.Group != 3 || ws.Epoch != 9 {
		t.Fatalf("wrong-shard response decoded %+v, want group 3 epoch 9", ws)
	}
}

// TestDecodeAssertionFlagsNegative: the flags byte admits Deleted or
// Sole, never both and no bit beyond them.
func TestDecodeAssertionFlagsNegative(t *testing.T) {
	encode := func(flags uint8) []byte {
		e := xdr.NewEncoder(64)
		(&Assertion{URI: "u", Name: "n", Value: "v", Clock: 1, Origin: "o", Seq: 1}).Encode(e)
		b := e.Bytes()
		// URI, name, value (4+1 each), clock (8), origin (4+1), seq (8).
		const flagsAt = 5 + 5 + 5 + 8 + 5 + 8
		b[flagsAt] = flags
		return b
	}
	for flags := 0; flags < 256; flags++ {
		a, err := DecodeAssertion(xdr.NewDecoder(encode(uint8(flags))))
		if flags <= int(flagSole) {
			if err != nil || a.Deleted != (flags == int(flagDeleted)) || a.Sole != (flags == int(flagSole)) {
				t.Errorf("flags %#x: decoded %+v, %v", flags, a, err)
			}
		} else if !errors.Is(err, ErrBadFlags) {
			t.Errorf("flags %#x: error %v, want ErrBadFlags", flags, err)
		}
	}
}

// hostileCount is an assertion list that declares 4,096 entries and has
// eight bytes to show for them.
var hostileCount = append(binary.BigEndian.AppendUint32(nil, 4096), make([]byte, 8)...)

// TestDecodeAssertionsCountNegative: a list is sized by its count only
// once the bytes that follow could hold that many assertions — on every
// path that takes a list, a 12-byte body declaring 4,096 used to cost the
// receiver 4,096 × 144 B before the first decode failed.
func TestDecodeAssertionsCountNegative(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	as, err := DecodeAssertions(xdr.NewDecoder(hostileCount))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, xdr.ErrStringTooLong) || as != nil {
		t.Fatalf("4,096 assertions declared in 8 bytes: %d decoded, error %v; want xdr.ErrStringTooLong", len(as), err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4096 {
		t.Errorf("refusing the count allocated %d bytes", got)
	}
	// The bound is the smallest assertion there is: a list of exactly
	// those still decodes.
	e := xdr.NewEncoder(256)
	EncodeAssertions(e, make([]Assertion, 5))
	if e.Len() != 4+5*minWireAssertion {
		t.Fatalf("five empty assertions encode in %d bytes, want 4 + 5 × %d", e.Len(), minWireAssertion)
	}
	if as, err := DecodeAssertions(xdr.NewDecoder(e.Bytes())); err != nil || len(as) != 5 {
		t.Fatalf("five empty assertions: %d decoded, %v", len(as), err)
	}
}

// postedApply builds an Apply frame as Client.Apply posts it: request ID
// 0, the command, then whatever origin and ops write.
func postedApply(origin func(*xdr.Encoder), ops []Assertion) []byte {
	return request(cmdApply, func(e *xdr.Encoder) {
		origin(e)
		EncodeAssertions(e, ops)
	})
}

// withID puts a request ID into a frame built by request.
func withID(frame []byte, id uint64) []byte {
	setMuxID(frame, id)
	return frame
}

// TestApplyOriginNegative: an Apply names the replica it comes from, or
// is refused before any op in it is looked at.
func TestApplyOriginNegative(t *testing.T) {
	srv := NewServer(NewStore("rc0"))
	op := []Assertion{NewStore("rc1").Set("u", "n", "v")}
	cases := []struct {
		name   string
		origin func(*xdr.Encoder)
	}{
		{"empty origin", func(e *xdr.Encoder) { e.PutString("") }},
		{"over-long origin", func(e *xdr.Encoder) { e.PutString(strings.Repeat("x", maxWireURI+1)) }},
		{"no origin field", func(*xdr.Encoder) {}}, // the op count is read as its length
	}
	for _, tc := range cases {
		if resp, err := srv.serve(new(served), postedApply(tc.origin, op), nil); err == nil {
			t.Errorf("%s: accepted (response %x), want the connection refused", tc.name, resp)
		}
	}
	if _, err := srv.serve(new(served), request(cmdApply, nil), nil); err == nil {
		t.Error("bare Apply command accepted")
	}
	if _, elems, _ := srv.Store().Stats(); elems != 0 {
		t.Fatalf("a refused Apply left %d elements", elems)
	}
	if got := counter(srv, "applies_received"); got != 0 {
		t.Fatalf("applies_received = %d after refusals only", got)
	}
	resp, err := srv.serve(new(served), postedApply(func(e *xdr.Encoder) { e.PutString("rc1") }, op), nil)
	if err != nil || resp != nil {
		t.Fatalf("well-formed Apply: response %x, error %v; want neither", resp, err)
	}
	if v, ok := srv.Store().FirstValue("u", "n"); !ok || v != "v" {
		t.Fatalf("well-formed Apply not applied: %q, %v", v, ok)
	}
	if got := counter(srv, "applies_received"); got != 1 {
		t.Fatalf("applies_received = %d after one applied frame", got)
	}
}

// TestRequestIDZeroNegative: request ID 0 asks for no answer, and Apply
// is the one command that may and must. Everything else about the pair
// is a refusal that ends the connection with the store untouched — seen
// here both at serve, which decides, and on a live connection, which the
// server closes without writing a byte.
func TestRequestIDZeroNegative(t *testing.T) {
	srv := NewServer(NewStore("rc0"), WithAntiEntropyInterval(0))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	op := []Assertion{NewStore("rc1").Set("u", "n", "v")}
	triple := func(e *xdr.Encoder) { e.PutString("u"); e.PutString("n"); e.PutString("v") }
	cut := postedApply(func(e *xdr.Encoder) { e.PutString("rc1") }, op)
	cases := []struct {
		name  string
		frame []byte
	}{
		{"ID 0 on Set", request(cmdSet, triple)},
		{"ID 0 on Get", request(cmdGet, func(e *xdr.Encoder) { e.PutString("u") })},
		{"ID 0 on Ping", request(cmdPing, nil)},
		{"ID 0 on Wait", request(cmdWait, func(e *xdr.Encoder) { e.PutUint64(0); e.PutUint32(10) })},
		{"ID 0 on an unknown command", request(0x7f, nil)},
		{"ID 0 and no command", make([]byte, muxHeader)},
		{"shorter than an ID", []byte{0, 0, 0}},
		{"Apply under a request ID", withID(postedApply(func(e *xdr.Encoder) { e.PutString("rc1") }, op), 7)},
		{"posted Apply cut short", cut[:len(cut)-3]},
		{"posted Apply with a hostile op count", request(cmdApply, func(e *xdr.Encoder) { e.PutString("rc1"); e.PutUint32(1 << 31) })},
	}
	for _, tc := range cases {
		if resp, err := srv.serve(new(served), tc.frame, nil); err == nil {
			t.Errorf("%s: serve accepted it (response %x)", tc.name, resp)
		}
		conn := dialRaw(t, srv.Addr())
		if err := writeFrame(xdr.NewFrameWriter(conn), tc.frame, nil); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := conn.Read(make([]byte, 16)); n != 0 || err != io.EOF {
			t.Errorf("%s: read %d bytes, %v; want the connection closed with nothing written", tc.name, n, err)
		}
		conn.Close()
	}
	if uris, _, _ := srv.Store().Stats(); uris != 0 || srv.Store().Version() != 0 {
		t.Fatalf("refused frames touched the store: %d URIs, version %d", uris, srv.Store().Version())
	}
	if got := counter(srv, "applies_received"); got != 0 {
		t.Fatalf("applies_received = %d, want 0: it counts applied frames only", got)
	}
}
