package rcds

import (
	"bytes"
	"fmt"
	"slices"

	"snipe/internal/xdr"
)

// Well-known assertion names used throughout SNIPE (paper §5.2). The
// metadata schema is open — "little is hidden in internal data
// structures" — so these are conventions, not a closed set.
const (
	// AttrHostDaemonURL is the URL of a host's SNIPE daemon.
	AttrHostDaemonURL = "host-daemon-url"
	// AttrCPUs describes the number and type of CPUs on a host.
	AttrCPUs = "cpus"
	// AttrArch is a host's architecture / data format identifier.
	AttrArch = "arch"
	// AttrInterface describes one network interface (repeatable).
	AttrInterface = "interface"
	// AttrBroker is the URL of a broker managing a host (repeatable).
	AttrBroker = "broker"
	// AttrPublicKey is a principal's public key (hex).
	AttrPublicKey = "public-key"
	// AttrCommAddr is a process's communications address (repeatable).
	AttrCommAddr = "comm-addr"
	// AttrNotify is a member of a process's notify list (repeatable).
	AttrNotify = "notify"
	// AttrState is a task/process state.
	AttrState = "state"
	// AttrLocation is a replica location for a file/service (repeatable).
	AttrLocation = "location"
	// AttrMcastRouter is a multicast router URL for a group (repeatable).
	AttrMcastRouter = "mcast-router"
	// AttrLoad is a host's load average, published by its daemon.
	AttrLoad = "load"
	// AttrHeartbeat is a host daemon's liveness heartbeat: a
	// monotonically increasing sequence number, a wall-clock timestamp
	// and the current load in one value (see internal/liveness), so one
	// replicated write per beat carries both liveness and placement
	// input. A trailing "down" marks a clean shutdown tombstone.
	AttrHeartbeat = "heartbeat"
	// AttrMemory is a host's available memory in MB.
	AttrMemory = "memory-mb"
	// AttrSupervisorLIFN is a process's supervisor LIFN (§5.2.3).
	AttrSupervisorLIFN = "supervisor-lifn"
	// AttrCodeHash is the content hash of a mobile code image.
	AttrCodeHash = "code-hash"
	// AttrCodeSig is the signature over a mobile code image.
	AttrCodeSig = "code-sig"
	// AttrPlayground advertises a host's playground capabilities.
	AttrPlayground = "playground"
	// AttrProtocol lists a file server's supported access protocols.
	AttrProtocol = "protocol"
	// AttrServiceReplica is one replica's endpoint URN, published under
	// a service-group URN (repeatable; see internal/service). Load and
	// liveness for the replica ride its host's heartbeat, so joining a
	// group costs exactly one extra assertion.
	AttrServiceReplica = "service-replica"
	// AttrGroupDigest is a gossip group's liveness digest, published by
	// the group's elected reporter under the group's liveness URI: one
	// catalog assertion per group per interval carrying every member's
	// incarnation, sequence, state and load (see internal/gossip). It
	// replaces per-host heartbeat writes on the catalog hot path.
	AttrGroupDigest = "group-digest"
	// AttrGossipGroup records which gossip group a host belongs to, as
	// "<group>/<groups>", written once by its daemon at startup so load
	// and liveness readers can find the host's digest.
	AttrGossipGroup = "gossip-group"
)

// Assertion is one replicated metadata op and the catalog entry it
// leaves: for resource URI, the pair Name=Value, stamped with the
// update's Lamport clock and origin. A plain assertion is an element of
// the multi-valued attribute (Add); a Deleted one is the tombstone a
// Remove leaves so the removal wins over an earlier Add wherever the two
// meet. A Sole assertion is a clear-and-set (Set): it is the attribute's
// register, and every element and tombstone of (URI, Name) stamped
// before it is gone — deleted where it is held, dropped where it arrives
// late. Sole and Deleted never combine. ServerTime is the wall-clock
// time (Unix nanoseconds) at which the accepting RC server stamped the
// update — the paper's "automatic time stamping of metadata by the RC
// servers" that lets temporally disjoint tasks judge the age of what they
// read (§3.1). It is informational and plays no part in conflict
// resolution.
//
// The struct's 136 bytes are what an op costs in flight — a request, a
// push, an answer. A Store keeps none: it keeps a 72-byte entry
// (store.go) and rebuilds the Assertion it hands out.
type Assertion struct {
	URI        string
	Name       string
	Value      string
	Clock      uint64 // Lamport clock of the update
	Origin     string // ID of the server that accepted the update
	Seq        uint64 // per-origin sequence number (op log position)
	Deleted    bool   // tombstone of a removed element
	Sole       bool   // clear-and-set: the (URI, Name) register
	ServerTime int64
	Signature  []byte // optional detached signature over (URI,Name,Value)
	Signer     string // principal that produced Signature
}

// attrNames holds the well-known names above, each mapped to itself: the
// copy a decoder hands out instead of allocating the name again for every
// op and keeping one per catalog entry. It is built once and only read.
var attrNames = func() map[string]string {
	names := []string{
		AttrHostDaemonURL, AttrCPUs, AttrArch, AttrInterface, AttrBroker,
		AttrPublicKey, AttrCommAddr, AttrNotify, AttrState, AttrLocation,
		AttrMcastRouter, AttrLoad, AttrHeartbeat, AttrMemory,
		AttrSupervisorLIFN, AttrCodeHash, AttrCodeSig, AttrPlayground,
		AttrProtocol, AttrServiceReplica, AttrGroupDigest, AttrGossipGroup,
	}
	m := make(map[string]string, len(names))
	for _, n := range names {
		m[n] = n
	}
	return m
}()

// decodeName reads an assertion name. A well-known one comes back as the
// package's own string, with nothing allocated; any other is kept as
// decoded and not remembered — the schema stays open and attrNames stays
// the size it was built.
func decodeName(d *xdr.Decoder) (string, error) {
	b, err := d.BytesMax(maxWireURI)
	if err != nil {
		return "", err
	}
	if name, ok := attrNames[string(b)]; ok {
		return name, nil
	}
	return string(b), nil
}

// Supersedes reports whether a beats b under last-writer-wins order:
// higher Lamport clock wins; equal clocks break ties by origin so that
// all replicas pick the same winner.
func (a *Assertion) Supersedes(b *Assertion) bool {
	if a.Clock != b.Clock {
		return a.Clock > b.Clock
	}
	if a.Origin != b.Origin {
		return a.Origin > b.Origin
	}
	// Same origin, same clock: the later sequence number wins.
	return a.Seq > b.Seq
}

// SignedBytes returns the canonical byte string a detached assertion
// signature covers.
func (a *Assertion) SignedBytes() []byte {
	e := xdr.NewEncoder(len(a.URI) + len(a.Name) + len(a.Value) + 16)
	e.PutString(a.URI)
	e.PutString(a.Name)
	e.PutString(a.Value)
	return e.Bytes()
}

// String renders the assertion for logs.
func (a *Assertion) String() string {
	kind := ""
	switch {
	case a.Deleted:
		kind = " (deleted)"
	case a.Sole:
		kind = " (sole)"
	}
	return fmt.Sprintf("%s: %s=%q @%d/%s#%d%s", a.URI, a.Name, a.Value, a.Clock, a.Origin, a.Seq, kind)
}

// Wire flags of an assertion: one byte where the Deleted bool used to
// be, so a tombstone encodes as before.
const (
	flagDeleted uint8 = 1 << iota
	flagSole
)

// Encode writes the assertion to e.
func (a *Assertion) Encode(e *xdr.Encoder) {
	e.PutString(a.URI)
	e.PutString(a.Name)
	e.PutString(a.Value)
	e.PutUint64(a.Clock)
	e.PutString(a.Origin)
	e.PutUint64(a.Seq)
	var flags uint8
	if a.Deleted {
		flags |= flagDeleted
	}
	if a.Sole {
		flags |= flagSole
	}
	e.PutUint8(flags)
	e.PutInt64(a.ServerTime)
	e.PutBytes(a.Signature)
	e.PutString(a.Signer)
}

// Per-field wire-decode caps handed to the xdr *Max decoders: URIs,
// names and origins are short; values are bounded well below the frame
// limit; a signature is an ed25519 signature plus slack.
const (
	maxWireURI   = 4096
	maxWireValue = 1 << 20
	maxWireSig   = 256
	maxWireItems = 64 << 10 // list responses: values, URIs, names
)

// assertionView is an assertion as it lies in the frame it arrived in:
// the numbers, flags and name (decodeName's) in a, the other strings as
// views into the frame's buffer — for own to copy or, the URI and origin,
// for the caller to replace by a copy it already holds.
type assertionView struct {
	a                               Assertion
	uri, value, origin, sig, signer []byte
}

// decode reads an assertion written by Encode.
func (v *assertionView) decode(d *xdr.Decoder) (err error) {
	if v.uri, err = d.BytesMax(maxWireURI); err != nil {
		return err
	}
	if v.a.Name, err = decodeName(d); err != nil {
		return err
	}
	if v.value, err = d.BytesMax(maxWireValue); err != nil {
		return err
	}
	if v.a.Clock, err = d.Uint64(); err != nil {
		return err
	}
	if v.origin, err = d.BytesMax(maxWireURI); err != nil {
		return err
	}
	if v.a.Seq, err = d.Uint64(); err != nil {
		return err
	}
	flags, err := d.Uint8()
	if err != nil {
		return err
	}
	if flags&^(flagDeleted|flagSole) != 0 || flags == flagDeleted|flagSole {
		return fmt.Errorf("%w: %#x", ErrBadFlags, flags)
	}
	v.a.Deleted, v.a.Sole = flags&flagDeleted != 0, flags&flagSole != 0
	if v.a.ServerTime, err = d.Int64(); err != nil {
		return err
	}
	if v.sig, err = d.BytesMax(maxWireSig); err != nil {
		return err
	}
	v.signer, err = d.BytesMax(maxWireURI)
	return err
}

// own returns the assertion under uri and origin — the view's, as strings
// the caller holds or has made — with its own copy of the value and of
// any signature and signer. Nothing in it aliases the frame.
func (v assertionView) own(uri, origin string) Assertion {
	a := v.a
	a.URI, a.Origin = uri, origin
	a.Value, a.Signer = string(v.value), string(v.signer)
	if len(v.sig) > 0 {
		a.Signature = bytes.Clone(v.sig)
	}
	return a
}

// copied is own for a caller that holds no string of the assertion.
func (v assertionView) copied() Assertion { return v.own(string(v.uri), string(v.origin)) }

// DecodeAssertion reads an assertion written by Encode.
func DecodeAssertion(d *xdr.Decoder) (Assertion, error) {
	var v assertionView
	if err := v.decode(d); err != nil {
		return Assertion{}, err
	}
	return v.copied(), nil
}

// EncodeAssertions writes a length-prefixed assertion list.
func EncodeAssertions(e *xdr.Encoder, as []Assertion) {
	e.PutUint32(uint32(len(as)))
	for i := range as {
		as[i].Encode(e)
	}
}

// minWireAssertion is the size of the smallest encoded assertion: six
// empty length-prefixed fields, three 8-byte numbers and the flags.
const minWireAssertion = 6*4 + 3*8 + 1

// DecodeAssertions reads a list written by EncodeAssertions.
func DecodeAssertions(d *xdr.Decoder) ([]Assertion, error) {
	return decodeAssertions(d, nil, assertionView.copied)
}

// decodeAssertions reads a list written by EncodeAssertions into dst's
// storage, each assertion as own makes it from its view. A count that the
// bytes left could not hold is refused before anything is sized by it.
func decodeAssertions(d *xdr.Decoder, dst []Assertion, own func(assertionView) Assertion) ([]Assertion, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if int64(n)*minWireAssertion > int64(d.Remaining()) {
		return nil, fmt.Errorf("%w: %d assertions declared, %d bytes remain",
			xdr.ErrStringTooLong, n, d.Remaining())
	}
	dst = slices.Grow(dst[:0], min(int(n), 4096))
	var v assertionView
	for i := uint32(0); i < n; i++ {
		if err := v.decode(d); err != nil {
			return nil, err
		}
		dst = append(dst, own(v))
	}
	return dst, nil
}

// VersionVector summarises how much of each origin's op log a replica
// holds: origin → highest contiguous sequence number applied.
type VersionVector map[string]uint64

// Copy returns an independent copy of the vector.
func (v VersionVector) Copy() VersionVector {
	out := make(VersionVector, len(v))
	for k, val := range v {
		out[k] = val
	}
	return out
}

// Dominates reports whether v has seen everything in w.
func (v VersionVector) Dominates(w VersionVector) bool {
	for origin, seq := range w {
		if v[origin] < seq {
			return false
		}
	}
	return true
}

// Encode writes the vector.
func (v VersionVector) Encode(e *xdr.Encoder) {
	e.PutUint32(uint32(len(v)))
	for origin, seq := range v {
		e.PutString(origin)
		e.PutUint64(seq)
	}
}

// DecodeVersionVector reads a vector written by Encode.
func DecodeVersionVector(d *xdr.Decoder) (VersionVector, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	// Each entry costs at least 12 encoded bytes (string length + u64);
	// fail fast on hostile counts before the map preallocation below.
	if int64(n)*12 > int64(d.Remaining()) {
		return nil, fmt.Errorf("%w: vector count %d exceeds remaining %d bytes",
			xdr.ErrStringTooLong, n, d.Remaining())
	}
	v := make(VersionVector, min(int(n), 1024))
	for i := uint32(0); i < n; i++ {
		origin, err := d.StringMax(maxWireURI)
		if err != nil {
			return nil, err
		}
		seq, err := d.Uint64()
		if err != nil {
			return nil, err
		}
		v[origin] = seq
	}
	return v, nil
}
