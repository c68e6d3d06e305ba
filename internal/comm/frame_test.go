package comm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"snipe/internal/xdr"
)

func TestParseRouteRoundTrip(t *testing.T) {
	cases := []Route{
		{Transport: "tcp", Addr: "127.0.0.1:9000"},
		{Transport: "rudp", Addr: "10.0.0.1:1234", NetName: "lan-a"},
		{Transport: "tcp", Addr: "h:1", NetName: "atm", RateBps: 155e6, LatencyUs: 90},
	}
	for _, r := range cases {
		got, err := ParseRoute(r.String())
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		if got != r {
			t.Fatalf("round trip: %v != %v", got, r)
		}
	}
}

func TestParseRouteErrors(t *testing.T) {
	for _, s := range []string{"", "noscheme", "://addr", "tcp://", "tcp://a;rate=x", "tcp://a;bad"} {
		if _, err := ParseRoute(s); err == nil {
			t.Errorf("ParseRoute(%q) accepted", s)
		}
	}
	// Unknown options are tolerated.
	if _, err := ParseRoute("tcp://a;future=1"); err != nil {
		t.Errorf("unknown option rejected: %v", err)
	}
}

// TestParseRouteNegative is the table of hostile route strings: every
// rejection names what was wrong, and values that would poison the
// route-scoring arithmetic (negative, NaN, infinite rate/latency) are
// refused rather than silently carried.
func TestParseRouteNegative(t *testing.T) {
	cases := []struct {
		name, in, wantSub string
	}{
		{"empty", "", "missing transport://"},
		{"no scheme", "hostport", "missing transport://"},
		{"empty transport", "://addr", "empty transport or address"},
		{"empty address", "tcp://", "empty transport or address"},
		{"option without value", "tcp://a;net", "route option"},
		{"unparseable rate", "tcp://a;rate=fast", "route rate"},
		{"negative rate", "tcp://a;rate=-5", "out of range"},
		{"NaN rate", "tcp://a;rate=NaN", "out of range"},
		{"infinite rate", "tcp://a;rate=+Inf", "out of range"},
		{"unparseable latency", "tcp://a;lat=low", "route latency"},
		{"negative latency", "tcp://a;lat=-1", "out of range"},
		{"NaN latency", "tcp://a;lat=nan", "out of range"},
		{"infinite latency", "tcp://a;lat=Inf", "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseRoute(tc.in)
			if err == nil {
				t.Fatalf("ParseRoute(%q) accepted", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q missing %q", err, tc.wantSub)
			}
		})
	}
}

func TestOrderRoutesPrefersSharedNetworkThenRate(t *testing.T) {
	local := []Route{
		{Transport: "tcp", Addr: "l1", NetName: "myrinet-1"},
		{Transport: "tcp", Addr: "l2", NetName: "lan-a"},
	}
	remote := []Route{
		{Transport: "tcp", Addr: "public", RateBps: 1e9},
		{Transport: "tcp", Addr: "lan", NetName: "lan-a", RateBps: 1e8},
		{Transport: "tcp", Addr: "myri", NetName: "myrinet-1", RateBps: 6.4e8},
		{Transport: "tcp", Addr: "other", NetName: "lan-z", RateBps: 2e9},
	}
	got := OrderRoutes(local, remote)
	// Shared networks first (fastest shared first), then the rest by rate.
	if got[0].Addr != "myri" || got[1].Addr != "lan" {
		t.Fatalf("shared networks not preferred: %v", got)
	}
	if got[2].Addr != "other" || got[3].Addr != "public" {
		t.Fatalf("non-shared rate order wrong: %v", got)
	}
	// Input must not be mutated.
	if remote[0].Addr != "public" {
		t.Fatal("OrderRoutes mutated input")
	}
}

func TestOrderRoutesLatencyTiebreak(t *testing.T) {
	remote := []Route{
		{Transport: "tcp", Addr: "slowlat", RateBps: 1e8, LatencyUs: 500},
		{Transport: "tcp", Addr: "fastlat", RateBps: 1e8, LatencyUs: 50},
	}
	got := OrderRoutes(nil, remote)
	if got[0].Addr != "fastlat" {
		t.Fatalf("latency tiebreak: %v", got)
	}
}

func TestFragmentReassemble(t *testing.T) {
	payload := make([]byte, 10_000)
	for i := range payload {
		payload[i] = byte(i)
	}
	frames := fragment("urn:a", "urn:b", 7, 42, payload, 1024, 0)
	if len(frames) != 10 {
		t.Fatalf("fragment count = %d", len(frames))
	}
	r := newReassembly(frames[0].FragCount, frames[0].Tag, frames[0].Dst)
	// Deliver out of order.
	order := []int{3, 0, 9, 1, 2, 5, 4, 7, 8, 6}
	var got []byte
	for _, i := range order {
		complete, _, err := r.add(frames[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		if complete {
			got = r.assemble(make([]byte, r.size))
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("reassembled payload differs")
	}
}

func TestFragmentEmptyPayload(t *testing.T) {
	frames := fragment("a", "b", 0, 1, nil, 1024, 0)
	if len(frames) != 1 || frames[0].FragCount != 1 {
		t.Fatalf("empty payload frames = %v", frames)
	}
	r := newReassembly(1, 0, "b")
	complete, _, err := r.add(frames[0], nil)
	if err != nil || !complete {
		t.Fatalf("reassemble empty: complete=%v %v", complete, err)
	}
	if out := r.assemble(make([]byte, r.size)); out == nil || len(out) != 0 {
		t.Fatalf("reassemble empty: %v", out)
	}
}

func TestReassemblyDuplicateFragment(t *testing.T) {
	frames := fragment("a", "b", 0, 1, []byte("hello world"), 4, 0)
	r := newReassembly(frames[0].FragCount, 0, "b")
	if _, _, err := r.add(frames[0], nil); err != nil {
		t.Fatal(err)
	}
	complete, retained, err := r.add(frames[0], nil) // duplicate
	if err != nil || complete || retained {
		t.Fatalf("duplicate: complete=%v %v retained=%v", complete, err, retained)
	}
	for _, f := range frames[1:] {
		if complete, _, err = r.add(f, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !complete {
		t.Fatal("not complete after every fragment")
	}
	if out := r.assemble(make([]byte, r.size)); string(out) != "hello world" {
		t.Fatalf("got %q", out)
	}
}

func TestReassemblyCountMismatch(t *testing.T) {
	r := newReassembly(3, 0, "b")
	bad := &msgFrame{Src: "a", Dst: "b", Seq: 1, FragIdx: 0, FragCount: 5, Payload: []byte("x")}
	if _, _, err := r.add(bad, nil); err == nil {
		t.Fatal("count mismatch accepted")
	}
}

func TestMsgFrameEncodeDecode(t *testing.T) {
	f := &msgFrame{Src: "urn:snipe:p1", Dst: "urn:snipe:p2", Tag: 99,
		Seq: 1 << 40, FragIdx: 2, FragCount: 5, Payload: []byte{1, 2, 3}}
	buf := encodeMsgFrame(f, nil)
	d := xdr.NewDecoder(buf)
	ftype, _ := d.Uint8()
	if ftype != frameMsg {
		t.Fatalf("frame type %d", ftype)
	}
	got, acks, err := decodeMsgFrame(d, &peerNames{})
	if err != nil || len(acks) != 0 {
		t.Fatalf("decode: %v, %d-byte trailer", err, len(acks))
	}
	if got.Src != f.Src || got.Dst != f.Dst || got.Tag != 99 ||
		got.Seq != f.Seq || got.FragIdx != 2 || got.FragCount != 5 ||
		!bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("round trip: %+v", got)
	}
}

// seqTrailer builds the trailer a sender would for these acks.
func seqTrailer(seqs ...uint64) carriedAcks {
	var c carriedAcks
	for _, q := range seqs {
		c = binary.BigEndian.AppendUint64(c, q)
	}
	return c
}

// TestMsgFrameWire pins the message frame byte for byte, trailer
// included: the layout is the protocol, and both ends must run it.
func TestMsgFrameWire(t *testing.T) {
	f := &msgFrame{Src: "ab", Dst: "c", Tag: 0x01020304, Seq: 5, FragIdx: 0, FragCount: 1,
		Flags: flagReplyExpected, Payload: []byte{0xee}}
	acks := seqTrailer(7, 1<<32)
	want := []byte{
		frameMsg,
		0, 0, 0, 2, 'a', 'b', // src
		0, 0, 0, 1, 'c', // dst
		1, 2, 3, 4, // tag
		0, 0, 0, 0, 0, 0, 0, 5, // seq
		0, 0, 0, 0, // fragment index
		0, 0, 0, 1, // fragment count
		flagReplyExpected | flagAcks,
		0, 0, 0, 1, 0xee, // payload
		0, 0, 0, 2, // carried acks: count
		0, 0, 0, 0, 0, 0, 0, 7,
		0, 0, 0, 1, 0, 0, 0, 0,
	}
	got := encodeMsgFrame(f, acks)
	if !bytes.Equal(got, want) {
		t.Fatalf("wire bytes\n got %x\nwant %x", got, want)
	}
	if n := msgFrameOverhead + len(f.Src) + len(f.Dst) + len(f.Payload) + ackTrailerOverhead + 2*carriedAckSize; len(got) != n {
		t.Fatalf("frame is %d bytes, the overhead constants say %d", len(got), n)
	}
	dec, carried, err := decodeMsgFrame(xdr.NewDecoder(got[1:]), &peerNames{})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Flags != flagReplyExpected|flagAcks || carried.count() != 2 || carried.seq(0) != 7 || carried.seq(1) != 1<<32 {
		t.Fatalf("decoded flags %#x, acks %x", dec.Flags, []byte(carried))
	}
	// Without acks the same frame ends at its payload and says so.
	got = encodeMsgFrame(f, nil)
	if !bytes.Equal(got, append(want[:32:32], flagReplyExpected, 0, 0, 0, 1, 0xee)) {
		t.Fatalf("wire bytes without a trailer: %x", got)
	}
}

// TestMsgFrameRejectsBadTrailers: the flag and the trailer come together
// or not at all, the count is the rest of the frame exactly, and a flag
// bit this build does not know is not guessed at.
func TestMsgFrameRejectsBadTrailers(t *testing.T) {
	f := &msgFrame{Src: "a", Dst: "b", Seq: 1, FragCount: 1, Payload: []byte("xy")}
	two := seqTrailer(3, 4)
	full := seqTrailer(make([]uint64, ackBatchMax)...)
	body := func(acks carriedAcks) []byte { return encodeMsgFrame(f, acks)[1:] }
	// withFlags is the body with its flags byte rewritten.
	withFlags := func(acks carriedAcks, edit func(flags uint8) uint8) []byte {
		b := body(acks)
		at := len(b) - acks.wireSize() - 4 - len(f.Payload) - 1
		b[at] = edit(b[at])
		return b
	}
	// withCount is the two-ack body with its count rewritten.
	withCount := func(n uint32) []byte {
		b := body(two)
		binary.BigEndian.PutUint32(b[len(b)-len(two)-4:], n)
		return b
	}
	for name, b := range map[string][]byte{
		"unknown flag bit":         withFlags(nil, func(fl uint8) uint8 { return fl | 1<<3 }),
		"top flag bit":             withFlags(nil, func(fl uint8) uint8 { return fl | 1<<7 }),
		"flag without trailer":     withFlags(nil, func(fl uint8) uint8 { return fl | flagAcks }),
		"trailer without flag":     withFlags(two, func(fl uint8) uint8 { return fl &^ flagAcks }),
		"bytes behind the payload": append(body(nil), 0),
		"count of zero":            append(withFlags(nil, func(fl uint8) uint8 { return fl | flagAcks }), 0, 0, 0, 0),
		"count above the entries":  withCount(3),
		"count below the entries":  withCount(1),
		"hostile count":            withCount(0xffffffff),
		"count that wraps":         withCount(0x20000002), // times 8 is 16 in 32-bit arithmetic
		"half an entry":            body(two)[:len(body(two))-4],
		"count cut short":          body(two)[:len(body(two))-len(two)-2],
		"more than a batch":        body(seqTrailer(make([]uint64, ackBatchMax+1)...)),
	} {
		if _, _, err := decodeMsgFrame(xdr.NewDecoder(b), &peerNames{}); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: %v, want ErrBadFrame", name, err)
		}
	}
	for name, acks := range map[string]carriedAcks{"no trailer": nil, "two acks": two, "a full batch": full} {
		_, got, err := decodeMsgFrame(xdr.NewDecoder(body(acks)), &peerNames{})
		if err != nil || !bytes.Equal(got, acks) {
			t.Errorf("%s: %d acks, %v", name, got.count(), err)
		}
	}
}

func TestMsgFrameRejectsBadFragments(t *testing.T) {
	f := &msgFrame{Src: "a", Dst: "b", FragIdx: 5, FragCount: 5, Payload: nil}
	buf := encodeMsgFrame(f, nil)
	d := xdr.NewDecoder(buf)
	d.Uint8()
	if _, _, err := decodeMsgFrame(d, &peerNames{}); err == nil {
		t.Fatal("FragIdx >= FragCount accepted")
	}
	f2 := &msgFrame{Src: "a", Dst: "b", FragIdx: 0, FragCount: 0}
	d2 := xdr.NewDecoder(encodeMsgFrame(f2, nil))
	d2.Uint8()
	if _, _, err := decodeMsgFrame(d2, &peerNames{}); err == nil {
		t.Fatal("FragCount == 0 accepted")
	}
}

func TestAckEncodeDecode(t *testing.T) {
	buf := encodeAck("urn:src", "urn:dst", 77)
	d := xdr.NewDecoder(buf)
	ftype, _ := d.Uint8()
	if ftype != frameAck {
		t.Fatalf("frame type %d", ftype)
	}
	src, dst, seq, err := decodeAck(d, &peerNames{})
	if err != nil || src != "urn:src" || dst != "urn:dst" || seq != 77 {
		t.Fatalf("ack round trip: %s %s %d %v", src, dst, seq, err)
	}
}

// ackBatchBody is a batch frame of n entries after its type byte.
func ackBatchBody(ftype uint8, n int) ([]ackRef, []byte) {
	refs := make([]ackRef, n)
	for i := range refs {
		refs[i] = ackRef{src: fmt.Sprintf("urn:s%d", i%3), dst: "urn:d", seq: uint64(i) << 20, fragIdx: uint32(i)}
	}
	e := xdr.NewEncoder(64)
	putAckBatch(e, ftype, refs)
	return refs, e.Bytes()[1:]
}

// TestAckBatchBeyondScratch: a batch longer than the caller's scratch
// (which no build sends, but the wire allows) still decodes entry for
// entry, into a slice of its own.
func TestAckBatchBeyondScratch(t *testing.T) {
	for _, ftype := range []uint8{frameAckBatch, frameFragAckBatch} {
		withFrag := ftype == frameFragAckBatch
		want, body := ackBatchBody(ftype, 3*ackBatchMax+1)
		var scratch [ackBatchMax]ackRef
		got, err := decodeAckBatch(xdr.NewDecoder(body), &peerNames{}, withFrag, scratch[:0])
		if err != nil || len(got) != len(want) {
			t.Fatalf("type %d: %d of %d entries, %v", ftype, len(got), len(want), err)
		}
		for i := range want {
			if !withFrag {
				want[i].fragIdx = 0
			}
			if got[i] != want[i] {
				t.Fatalf("type %d entry %d: %+v, want %+v", ftype, i, got[i], want[i])
			}
		}
	}
}

// TestAckBatchHostileCount: a count the frame's bytes cannot hold fails
// as a bad frame before anything is sized by it, whether or not it would
// have fit the scratch.
func TestAckBatchHostileCount(t *testing.T) {
	for _, count := range []uint32{2, ackBatchMax + 1, 1000, 0xffffffff} {
		_, body := ackBatchBody(frameFragAckBatch, 1)
		binary.BigEndian.PutUint32(body, count)
		decode := func() error {
			var scratch [ackBatchMax]ackRef
			_, err := decodeAckBatch(xdr.NewDecoder(body), &peerNames{}, true, scratch[:0])
			return err
		}
		if err := decode(); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("count %d over one entry: %v, want ErrBadFrame", count, err)
		}
		if raceEnabled {
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			decode()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / 100; per > 512 {
			t.Errorf("count %d: %d bytes allocated per refusal", count, per)
		}
	}
}

// Property: fragmentation at any MTU reassembles to the original
// payload regardless of arrival order.
func TestQuickFragmentRoundTrip(t *testing.T) {
	f := func(payload []byte, mtuSeed uint16, perm []uint16) bool {
		mtu := int(mtuSeed)%4096 + 1
		frames := fragment("s", "d", 1, 1, payload, mtu, 0)
		idx := make([]int, len(frames))
		for i := range idx {
			idx[i] = i
		}
		for i := range idx {
			if len(perm) > 0 {
				j := int(perm[i%len(perm)]) % (i + 1)
				idx[i], idx[j] = idx[j], idx[i]
			}
		}
		r := newReassembly(frames[0].FragCount, 1, "d")
		var got []byte
		for _, i := range idx {
			complete, _, err := r.add(frames[i], nil)
			if err != nil {
				return false
			}
			if complete {
				got = r.assemble(make([]byte, r.size))
			}
		}
		return bytes.Equal(got, payload) || (len(payload) == 0 && len(got) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: route strings round-trip for arbitrary metadata values.
func TestQuickRouteRoundTrip(t *testing.T) {
	f := func(addrSeed uint16, net uint8, rate uint32, lat uint16) bool {
		r := Route{
			Transport: "tcp",
			Addr:      "h:" + string(rune('0'+addrSeed%10)),
			RateBps:   float64(rate),
			LatencyUs: float64(lat),
		}
		if net%2 == 0 {
			r.NetName = "lan"
		}
		got, err := ParseRoute(r.String())
		return err == nil && got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeHelpersFitTheirCapacity: every encode* helper sizes its
// buffer from the frame it is about to build, so building it must be one
// allocation — a second means the size hint is short and the last Put
// regrew the buffer (as encodeAck's did, by one byte, on every ack).
func TestEncodeHelpersFitTheirCapacity(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, urn := range []string{"", "a", "urn:snipe:p1", "urn:snipe:host-17/process-with-a-long-name"} {
		src, dst := urn, urn+"x"
		frame := &msgFrame{Src: src, Dst: dst, Tag: 1, Seq: 2, FragCount: 1, Payload: []byte("payload")}
		acks := seqTrailer(9, 10, 11)
		for name, encode := range map[string]func() []byte{
			"encodeHello":              func() []byte { return encodeHello(src) },
			"encodeMsgFrame":           func() []byte { return encodeMsgFrame(frame, nil) },
			"encodeMsgFrame with acks": func() []byte { return encodeMsgFrame(frame, acks) },
			"encodeAck":                func() []byte { return encodeAck(src, dst, 7) },
			"encodeFragAck":            func() []byte { return encodeFragAck(src, dst, 7, 3) },
		} {
			if got := testing.AllocsPerRun(20, func() { encode() }); got != 1 {
				t.Errorf("%s with %d-byte URNs: %.0f allocations, want 1", name, len(src), got)
			}
		}
		// And the constants are exact, not merely large enough.
		for name, carried := range map[string]carriedAcks{"plain": nil, "carrying": acks} {
			want := msgFrameOverhead + len(src) + len(dst) + len(frame.Payload) + carried.wireSize()
			if b := encodeMsgFrame(frame, carried); len(b) != want || cap(b) != want {
				t.Errorf("%s frame with %d-byte URNs: len %d cap %d, want %d", name, len(src), len(b), cap(b), want)
			}
		}
	}
}
