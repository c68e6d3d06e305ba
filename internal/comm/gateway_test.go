package comm

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// gatewayWorld: sender can reach the gateway; the receiver advertises
// only a gateway route (a "non-IP host" behind a bridge, §5.1).
func gatewayWorld(t *testing.T) (sender, gateway, receiver *Endpoint, res *testResolver) {
	t.Helper()
	res = newTestResolver()
	// Only the gateway knows the direct route: it resolves through a view
	// of its own.
	gwView := newTestResolver()

	gateway = NewEndpoint("urn:gw", WithResolver(gwView), WithGatewayRelay())
	t.Cleanup(gateway.Close)
	gwRoute, err := gateway.Listen(ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	res.set("urn:gw", gwRoute)

	receiver = NewEndpoint("urn:behind", WithResolver(res))
	t.Cleanup(receiver.Close)
	rRoute, err := receiver.Listen(ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	// The gateway resolves the receiver's real address; senders only see
	// the gateway route.
	_ = rRoute

	sender = NewEndpoint("urn:outside", WithResolver(res), WithRetryInterval(50*time.Millisecond))
	t.Cleanup(sender.Close)
	sRoute, err := sender.Listen(ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	res.set("urn:outside", GatewayRoute("urn:gw"), sRoute)
	res.set("urn:behind", GatewayRoute("urn:gw"))
	gwView.set("urn:behind", rRoute)
	gwView.set("urn:outside", sRoute)
	return
}

func TestGatewayRelayDelivery(t *testing.T) {
	sender, _, receiver, _ := gatewayWorld(t)
	if err := sendWaitT(sender, "urn:behind", 7, []byte("through the wall"), 10*time.Second); err != nil {
		t.Fatalf("SendWait via gateway: %v", err)
	}
	m, err := recvT(receiver, 5*time.Second)
	if err != nil || string(m.Payload) != "through the wall" {
		t.Fatalf("recv: %v %v", m, err)
	}
	if m.Src != "urn:outside" || m.Tag != 7 || m.Seq != 1 {
		t.Fatalf("message identity: %+v", m)
	}
}

func TestGatewayRelayLargeAndOrdered(t *testing.T) {
	sender, _, receiver, _ := gatewayWorld(t)
	big := make([]byte, 300_000)
	for i := range big {
		big[i] = byte(i * 13)
	}
	for i := 0; i < 5; i++ {
		if err := sender.Send("urn:behind", uint32(i), big); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		m, err := recvT(receiver, 10*time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if int(m.Tag) != i || !bytes.Equal(m.Payload, big) {
			t.Fatalf("message %d: tag=%d len=%d", i, m.Tag, len(m.Payload))
		}
	}
	// End-to-end acks drained the sender's buffer.
	deadline := time.Now().Add(5 * time.Second)
	for sender.Pending() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pending = %d", sender.Pending())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestGatewayReplyPath(t *testing.T) {
	sender, _, receiver, _ := gatewayWorld(t)
	if err := sender.Send("urn:behind", 1, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	m, err := recvT(receiver, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The receiver replies through the gateway too (its resolver maps
	// urn:outside to the gateway route only? In this world the receiver
	// shares the sender-side resolver, which lists the gateway first and
	// the direct route second — either path must work).
	if err := sendWaitT(receiver, m.Src, 2, []byte("pong"), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	r, err := recvMatchT(sender, "urn:behind", 2, 5*time.Second)
	if err != nil || string(r.Payload) != "pong" {
		t.Fatalf("reply: %v %v", r, err)
	}
}

func TestGatewayCrashFailsOverToSecondGateway(t *testing.T) {
	res := newTestResolver()
	gwView := newTestResolver()
	mkGW := func(urn string) *Endpoint {
		gw := NewEndpoint(urn, WithResolver(gwView), WithGatewayRelay())
		t.Cleanup(gw.Close)
		route, err := gw.Listen(ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		res.set(urn, route)
		gwView.set(urn, route)
		return gw
	}
	gw1 := mkGW("urn:gw1")
	mkGW("urn:gw2")

	receiver := NewEndpoint("urn:behind", WithResolver(res))
	t.Cleanup(receiver.Close)
	rRoute, err := receiver.Listen(ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	gwView.set("urn:behind", rRoute) // only gateways see the direct route
	res.set("urn:behind", GatewayRoute("urn:gw1"), GatewayRoute("urn:gw2"))

	sender := NewEndpoint("urn:outside", WithResolver(res), WithRetryInterval(50*time.Millisecond))
	t.Cleanup(sender.Close)
	sRoute, err := sender.Listen(ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	res.set("urn:outside", sRoute)
	gwView.set("urn:outside", sRoute)

	// The preferred gateway is dead; the send must reach the receiver
	// via the second.
	gw1.Close()
	if err := sendWaitT(sender, "urn:behind", 3, []byte("survives"), 10*time.Second); err != nil {
		t.Fatalf("send after gateway crash: %v", err)
	}
	m, err := recvT(receiver, 5*time.Second)
	if err != nil || string(m.Payload) != "survives" {
		t.Fatalf("recv: %v %v", m, err)
	}
}

func TestGatewayNoChains(t *testing.T) {
	// A gateway whose own routes are gateway routes must not be used
	// (cycle guard): the send fails with no route rather than looping.
	res := newTestResolver()
	sender := NewEndpoint("urn:s", WithResolver(res), WithoutBuffering())
	t.Cleanup(sender.Close)
	res.set("urn:dst", GatewayRoute("urn:gwA"))
	res.set("urn:gwA", GatewayRoute("urn:gwB"))
	res.set("urn:gwB", GatewayRoute("urn:gwA"))
	if err := sender.Send("urn:dst", 1, []byte("x")); err == nil {
		t.Fatal("chained gateway send succeeded")
	}
}

// TestGatewayStreamEchoPiggybacksNothing: a unary stream call to a
// destination behind a gateway. Acks on a relayed path keep to the
// connections the gateway expects them on: what came through the gateway
// is acknowledged at once where it arrived (the hello there names the
// gateway, not the sender), and a frame that leaves through the gateway
// carries no ack. So the call completes with no ack parked or carried
// anywhere, no retransmission, and the gateway's ack table drained.
func TestGatewayStreamEchoPiggybacksNothing(t *testing.T) {
	sender, gateway, receiver, _ := gatewayWorld(t)
	ms, mr := NewStreamMux(sender), NewStreamMux(receiver)
	defer ms.Close()
	defer mr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp := patternPayload(6, 4<<10)
	defer serveEchoes(ctx, mr, resp, nil)()
	defer cancel()

	const calls = 20
	for i := 0; i < calls; i++ {
		got, err := unaryEcho(ctx, ms, "urn:behind", make([]byte, 256))
		if err != nil || !bytes.Equal(got, resp) {
			t.Fatalf("call %d through the gateway: %d bytes, %v", i, len(got), err)
		}
	}
	waitFor(t, 3*time.Second, func() bool { return sender.Pending() == 0 && receiver.Pending() == 0 },
		"acks outstanding after the last call")
	for _, e := range []*Endpoint{sender, gateway, receiver} {
		c := counters(e, "acks_deferred", "acks_piggybacked", "retried", "duplicates")
		if c[0]+c[1]+c[2]+c[3] != 0 {
			t.Errorf("%s: %d acks deferred, %d piggybacked, %d retried, %d duplicates, want none",
				e.URN(), c[0], c[1], c[2], c[3])
		}
	}
	// A call is one request message.
	if got := counters(receiver, "received", "ack_frames", "acks_batched"); got[0] != calls || got[1]+got[2] != got[0] {
		t.Errorf("receiver accepted %d messages for %d calls and acknowledged %d+%d on their arrival connection",
			got[0], calls, got[1], got[2])
	}
	waitFor(t, 3*time.Second, func() bool {
		gateway.relayMu.Lock()
		defer gateway.relayMu.Unlock()
		return len(gateway.relayAcks) == 0
	}, "the gateway still holds ack routes for relayed messages")
}

// TestGatewayRouteCarriesNoAcks: the request came straight from its
// sender, so its ack is parked for the reply — but the only way back is
// through a gateway, and a frame on a gateway route carries nothing: the
// gateway would have to pick the acks out of a frame it only relays. The
// ack leaves with the timer, on the connection the request arrived on.
func TestGatewayRouteCarriesNoAcks(t *testing.T) {
	res := newTestResolver()
	gwView := newTestResolver()
	gateway := NewEndpoint("urn:gw", WithResolver(gwView), WithGatewayRelay())
	defer gateway.Close()
	gwRoute, err := gateway.Listen(ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	res.set("urn:gw", gwRoute)
	opts := []EndpointOption{WithRetryInterval(10 * time.Second), withAckFlush(50 * time.Millisecond)}
	asker := newTestEndpoint(t, "urn:asker", res, opts...)
	answerer := newTestEndpoint(t, "urn:answerer", res, opts...)
	gwView.set("urn:asker", asker.Routes()[0])
	res.set("urn:asker", GatewayRoute("urn:gw")) // the way back is the gateway alone

	sendExpectingReply(t, asker, "urn:answerer", []byte("request"))
	if _, err := recvT(answerer, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := answerer.Send("urn:asker", 9, []byte("response")); err != nil {
		t.Fatal(err)
	}
	if m, err := recvT(asker, 3*time.Second); err != nil || string(m.Payload) != "response" {
		t.Fatalf("response through the gateway: %v, %v", m, err)
	}
	waitFor(t, 3*time.Second, func() bool { return asker.Pending() == 0 && answerer.Pending() == 0 },
		"acks outstanding after the exchange")
	if c := counters(answerer, "acks_deferred", "acks_piggybacked", "ack_frames"); c[0] != 1 || c[1] != 0 || c[2] != 1 {
		t.Errorf("answerer: %d deferred, %d piggybacked, %d ack frames, want 1, 0 and 1", c[0], c[1], c[2])
	}
	for _, e := range []*Endpoint{asker, gateway, answerer} {
		if c := counters(e, "retried", "duplicates"); c[0]+c[1] != 0 {
			t.Errorf("%s: %d retried, %d duplicates, want none", e.URN(), c[0], c[1])
		}
	}
}
