package comm

// Gateways implement §5.1: "other protocols can be used — either via a
// gateway (for non-IP capable hosts), or between IP-capable hosts that
// also share a faster communications medium". A process that cannot be
// reached directly advertises a route of transport "gw" whose address
// is a gateway endpoint's URN; senders deliver through the gateway,
// which relays frames to the destination and routes the destination's
// end-to-end acknowledgements back, in the frames of DESIGN.md's table.
//
// The gateway is stateless apart from the table that maps (src, dst,
// seq) to the ack coalescer of the origin connection: reliability stays
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
		e.relayAcks = make(map[relayKey]*ackCoalescer)
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

// relayMsgFrame forwards one frame's message toward its destination.
// Whole messages are reassembled and re-fragmented so the outbound MTU
// may differ from the inbound one. ac is the coalescer of the connection
// the frame arrived on, which takes the message's ack back. buf is the
// pooled receive buffer backing f.Payload; the return value reports
// whether its ownership was consumed, mirroring handleMsgFrame.
func (e *Endpoint) relayMsgFrame(ac *ackCoalescer, f *msgFrame, buf []byte) (retained bool) {
	key := reasmKey{f.Src, f.Dst, f.Seq}
	e.relayMu.Lock()
	payload, parts, retained, err := collect(e.relayReasm, key, f, buf)
	if err != nil || (payload == nil && parts == nil) {
		e.relayMu.Unlock()
		return retained
	}
	if parts != nil {
		// transmit holds the payload for as long as it likes: a buffer
		// of its own, sized to the message.
		payload = parts.assemble(make([]byte, parts.size))
	}
	if len(e.relayAcks) >= relayTableMax {
		e.relayAcks = make(map[relayKey]*ackCoalescer)
	}
	e.relayAcks[relayKey{f.Src, f.Dst, f.Seq}] = ac
	e.relayMu.Unlock()

	om := &outMsg{
		msg:   Message{Src: f.Src, Dst: f.Dst, Tag: f.Tag, Seq: f.Seq, Payload: payload},
		acked: make(chan struct{}),
	}
	// Best-effort single transmission: the origin's retries drive
	// recovery, so the gateway holds no send buffer.
	go e.transmit(om)
	return retained
}

// relayAck hands a destination's acknowledgement to the coalescer of
// the origin connection, returning true if this ack belonged to a
// relayed message.
func (e *Endpoint) relayAck(src, dst string, seq uint64) bool {
	if !e.gateway {
		return false
	}
	key := relayKey{src, dst, seq}
	e.relayMu.Lock()
	ac, ok := e.relayAcks[key]
	if ok {
		delete(e.relayAcks, key)
	}
	e.relayMu.Unlock()
	if ok {
		ac.ack(src, dst, seq)
	}
	return ok
}
