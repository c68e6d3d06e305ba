package comm

import "sync"

// Gateways implement §5.1: "other protocols can be used — either via a
// gateway (for non-IP capable hosts), or between IP-capable hosts that
// also share a faster communications medium". A process that cannot be
// reached directly advertises a route of transport "gw" whose address
// is a gateway endpoint's URN; senders deliver through the gateway,
// which relays frames to the destination and routes the destination's
// end-to-end acknowledgements back.
//
// The gateway is stateless apart from the (src, dst, seq) → origin
// connection table used to return acknowledgements: reliability stays
// end-to-end (the origin's system buffer retries through the gateway
// until the destination's ack makes it back), so a gateway crash is
// just another recoverable path failure.

// GatewayTransport is the route transport name for gateway-relayed
// addresses; the route Addr is the gateway's URN.
const GatewayTransport = "gw"

// WithGatewayRelay makes the endpoint relay traffic addressed to other
// URNs (a SNIPE gateway, typically run next to a host daemon that
// bridges network domains).
func WithGatewayRelay() EndpointOption {
	return func(e *Endpoint) {
		e.gateway = true
		e.relayConns = make(map[relayKey]FrameConn)
		e.relayReasm = make(map[reasmKey]*reassembly)
	}
}

// GatewayRoute builds the route a destination publishes to be reached
// via a gateway.
func GatewayRoute(gatewayURN string) Route {
	return Route{Transport: GatewayTransport, Addr: gatewayURN}
}

// relayKey identifies one relayed message for ack back-routing.
type relayKey struct {
	src string
	dst string
	seq uint64
}

// relayTableMax bounds gateway state; beyond it the oldest entries are
// dropped wholesale (the affected acks are recovered by origin
// retries).
const relayTableMax = 65536

// relayMu guards the relay tables (kept separate from e.mu: relays
// re-enter transmit, which takes e.mu).
var relayMu sync.Mutex

// relayMsgFrame forwards one frame's message toward its destination.
// Whole messages are reassembled and re-fragmented so the outbound MTU
// may differ from the inbound one. buf is the pooled receive buffer
// backing f.Payload; the return value reports whether its ownership
// was consumed, mirroring handleMsgFrame.
func (e *Endpoint) relayMsgFrame(conn FrameConn, f *msgFrame, buf []byte) (retained bool) {
	key := reasmKey{f.Src, f.Dst, f.Seq}
	relayMu.Lock()
	payload, parts, retained, err := collect(e.relayReasm, key, f, buf)
	if err != nil || (payload == nil && parts == nil) {
		relayMu.Unlock()
		return retained
	}
	if parts != nil {
		// transmit holds the payload for as long as it likes: a buffer
		// of its own, sized to the message.
		payload = parts.assemble(make([]byte, parts.size))
	}
	if len(e.relayConns) >= relayTableMax {
		e.relayConns = make(map[relayKey]FrameConn)
	}
	e.relayConns[relayKey{f.Src, f.Dst, f.Seq}] = conn
	relayMu.Unlock()

	om := &outMsg{
		msg:   Message{Src: f.Src, Dst: f.Dst, Tag: f.Tag, Seq: f.Seq, Payload: payload},
		acked: make(chan struct{}),
	}
	// Best-effort single transmission: the origin's retries drive
	// recovery, so the gateway holds no send buffer.
	go e.transmit(om)
	return retained
}

// relayAck routes a destination's acknowledgement back to the origin
// connection, returning true if this ack belonged to a relayed
// message.
func (e *Endpoint) relayAck(src, dst string, seq uint64) bool {
	if !e.gateway {
		return false
	}
	key := relayKey{src, dst, seq}
	relayMu.Lock()
	conn, ok := e.relayConns[key]
	if ok {
		delete(e.relayConns, key)
	}
	relayMu.Unlock()
	if !ok {
		return false
	}
	conn.Send(encodeAck(src, dst, seq))
	return true
}
