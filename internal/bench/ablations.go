package bench

import (
	"context"
	"fmt"
	"time"

	"snipe/internal/comm"
)

// Path ablations: the cost of each optional layer in the SNIPE
// communications stack, measured as ping-pong RTT over loopback TCP.

// PathPoint is one path-ablation measurement.
type PathPoint struct {
	Path      string
	MsgSize   int
	RTTMicros float64
}

// pathEndpoints holds one assembled variant of the stack.
type pathEndpoints struct {
	a, b    *comm.Endpoint
	cleanup []func()
}

func (p *pathEndpoints) close() {
	for i := len(p.cleanup) - 1; i >= 0; i-- {
		p.cleanup[i]()
	}
}

func buildPath(path string) (*pathEndpoints, error) {
	pe := &pathEndpoints{}
	shared := newLockedResolver()

	transport := "tcp"
	var opts []comm.EndpointOption
	if path == "encrypted" {
		transports := comm.NewTransports()
		transports.Register(comm.EncryptedTransport{Inner: comm.TCPTransport{}, Secret: []byte("bench")})
		opts = append(opts, comm.WithTransports(transports))
		transport = "tcp+tls"
	}

	mk := func(urn string, res comm.Resolver, extra ...comm.EndpointOption) (*comm.Endpoint, comm.Route, error) {
		ep := comm.NewEndpoint(urn, append(append([]comm.EndpointOption{
			comm.WithResolver(res),
			comm.WithRetryInterval(5 * time.Second),
		}, opts...), extra...)...)
		route, err := ep.Listen(comm.ListenSpec{Transport: transport, Addr: "127.0.0.1:0"})
		if err != nil {
			ep.Close()
			pe.close()
			return nil, comm.Route{}, err
		}
		pe.cleanup = append(pe.cleanup, ep.Close)
		return ep, route, nil
	}

	var ra, rb comm.Route
	var err error
	switch path {
	case "direct", "encrypted":
		if pe.a, ra, err = mk("urn:pa", shared); err != nil {
			return nil, err
		}
		if pe.b, rb, err = mk("urn:pb", shared); err != nil {
			return nil, err
		}
		shared.set("urn:pa", ra)
		shared.set("urn:pb", rb)
	case "gateway":
		// Senders only see the gateway; the gateway's private resolver
		// holds the direct addresses.
		gwView := newLockedResolver()
		_, rg, err := mk("urn:pgw", gwView, comm.WithGatewayRelay())
		if err != nil {
			return nil, err
		}
		if pe.a, ra, err = mk("urn:pa", shared); err != nil {
			return nil, err
		}
		if pe.b, rb, err = mk("urn:pb", shared); err != nil {
			return nil, err
		}
		shared.set("urn:pgw", rg)
		shared.set("urn:pa", comm.GatewayRoute("urn:pgw"))
		shared.set("urn:pb", comm.GatewayRoute("urn:pgw"))
		gwView.set("urn:pa", ra)
		gwView.set("urn:pb", rb)
	default:
		return nil, fmt.Errorf("bench: unknown path %q", path)
	}
	return pe, nil
}

// MeasurePath measures a ping-pong RTT over one of the stack variants:
//
//	"direct"    — plain TCP transport
//	"encrypted" — AES-GCM-sealed TCP transport (§3.4's optional encryption)
//	"gateway"   — both directions relayed through a gateway (§5.1)
func MeasurePath(path string, msgSize, iters int) (PathPoint, error) {
	pt := PathPoint{Path: path, MsgSize: msgSize}
	pe, err := buildPath(path)
	if err != nil {
		return pt, err
	}
	defer pe.close()

	// Warmup establishes connections and JITs the path before timing.
	const warmup = 20
	payload := make([]byte, msgSize)
	errCh := make(chan error, 1)
	go func() {
		for i := 0; i < warmup+iters; i++ {
			rctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			m, err := pe.b.RecvMatch(rctx, "", 1)
			cancel()
			if err != nil {
				errCh <- err
				return
			}
			if err := pe.b.Send(m.Src, 2, m.Payload); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	pingPong := func() error {
		if err := pe.a.Send("urn:pb", 1, payload); err != nil {
			return err
		}
		rctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_, err := pe.a.RecvMatch(rctx, "", 2)
		return err
	}
	for i := 0; i < warmup; i++ {
		if err := pingPong(); err != nil {
			return pt, err
		}
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := pingPong(); err != nil {
			return pt, err
		}
	}
	elapsed := time.Since(start)
	if err := <-errCh; err != nil {
		return pt, err
	}
	pt.RTTMicros = float64(elapsed.Microseconds()) / float64(iters)
	return pt, nil
}
