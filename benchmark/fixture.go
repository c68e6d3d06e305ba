package main

import (
	"context"
	"fmt"
	"time"

	"snipe/internal/comm"
	"snipe/internal/naming"
	"snipe/internal/rcds"
)

// compactKeep is the op-log tail the benchmark's catalog replicas keep,
// the value BENCH_catalog.json runs with. Without compaction the log of
// a write-heavy run grows the heap until GC marking dominates the
// figures (README, design rule 4).
const compactKeep = 4096

// stack is the metadata half of the system under test, built the way
// core.New builds it: a replica group of RC servers meshed as peers, and
// a remote catalog client in front of them.
type stack struct {
	servers []*rcds.Server
	client  *rcds.Client   // the shared catalog client
	catalog naming.Catalog // naming.ClientCatalog(client)
	eps     []*comm.Endpoint
}

// newStack starts replicas RC servers on loopback TCP. cached selects
// the shared client's watch-coherent read cache, which core.New turns on
// for every universe.
func newStack(replicas int, cached bool, opts ...rcds.ServerOption) (*stack, error) {
	s := &stack{}
	for i := 0; i < replicas; i++ {
		srv := rcds.NewServer(rcds.NewStore(fmt.Sprintf("rc%d", i)), opts...)
		if err := srv.Start("127.0.0.1:0"); err != nil {
			s.close()
			return nil, fmt.Errorf("starting rc server %d: %w", i, err)
		}
		s.servers = append(s.servers, srv)
	}
	for i, srv := range s.servers {
		var peers []string
		for j, p := range s.servers {
			if i != j {
				peers = append(peers, p.Addr())
			}
		}
		srv.SetPeers(peers...)
	}
	s.client = s.newClient(cached)
	s.catalog = naming.ClientCatalog(s.client)
	return s, nil
}

// addrs lists the replicas, replica 0 first: a client dials the first
// address and only moves on when it fails, so every client of the
// benchmark talks to replica 0 and replica 1 is fed by replication.
func (s *stack) addrs() []string {
	out := make([]string, len(s.servers))
	for i, srv := range s.servers {
		out[i] = srv.Addr()
	}
	return out
}

func (s *stack) newClient(cached bool) *rcds.Client {
	if cached {
		return rcds.NewClient(s.addrs(), nil, rcds.WithReadCache())
	}
	return rcds.NewClient(s.addrs(), nil)
}

// endpoint creates a process endpoint the way core.Universe.NewClient
// does: a resolver over the shared catalog, listeners TCP listeners on
// loopback, and the routes registered under the URN.
func (s *stack) endpoint(urn string, listeners int, opts ...comm.EndpointOption) (*comm.Endpoint, error) {
	opts = append(opts, comm.WithResolver(naming.NewResolver(s.catalog)))
	ep := comm.NewEndpoint(urn, opts...)
	s.eps = append(s.eps, ep)
	var routes []comm.Route
	for i := 0; i < listeners; i++ {
		route, err := ep.Listen(comm.ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
		if err != nil {
			return nil, fmt.Errorf("endpoint %s: %w", urn, err)
		}
		routes = append(routes, route)
	}
	if err := naming.Register(s.catalog, urn, routes); err != nil {
		return nil, err
	}
	return ep, nil
}

// converged reports whether every replica holds what replica 0 holds:
// its version vector dominates replica 0's and the content hashes match.
// The vector comes first because a hash can match by coincidence while
// ops are still in flight.
func (s *stack) converged() bool {
	v0 := s.servers[0].Store().Vector()
	for _, srv := range s.servers[1:] {
		if !srv.Store().Vector().Dominates(v0) {
			return false
		}
	}
	h0 := s.servers[0].Store().ContentHash()
	for _, srv := range s.servers[1:] {
		if srv.Store().ContentHash() != h0 {
			return false
		}
	}
	return true
}

// awaitConverged polls converged until it holds or ctx or the limit ends.
func (s *stack) awaitConverged(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for !s.converged() {
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("replicas did not converge within %v", limit)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (s *stack) close() {
	for _, ep := range s.eps {
		ep.Close()
	}
	if s.client != nil {
		s.client.Close()
	}
	for _, srv := range s.servers {
		srv.Close()
	}
}
