package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"snipe/internal/comm"
	"snipe/internal/liveness"
	"snipe/internal/naming"
	"snipe/internal/rcds"
)

// Handler serves one accepted stream. The request side is read from st
// until io.EOF; the response is written back on the same stream. A nil
// return half-closes the stream cleanly (clients see EOF after the
// response); an error resets it, and the client treats the call as
// failed and retries on another replica.
type Handler func(ctx context.Context, st *comm.Stream) error

// ServerConfig wires one replica of a service group.
type ServerConfig struct {
	// Name is the service name; all replicas of a group share it.
	Name     string
	Catalog  naming.Catalog
	Endpoint *comm.Endpoint
	// Monitor and HostURL, when both set, arm self-draining: the
	// replica drains as soon as its own host enters Suspect, without
	// waiting for an external Evacuator to tell it to.
	Monitor *liveness.Monitor
	HostURL string
}

// drainGrace bounds how long Drain waits for in-flight streams.
const drainGrace = 15 * time.Second

// Server is one replica: it registers its endpoint URN under the
// service URN and serves streams accepted from the group's clients.
type Server struct {
	cfg ServerConfig
	mux *comm.StreamMux // over cfg.Endpoint; built and closed by the server
	uri string          // service URN (naming.ServiceURN)
	urn string          // this replica's endpoint URN

	mu       sync.Mutex
	handlers map[string]Handler

	ctx       context.Context
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	inflight  sync.WaitGroup
	cancelSub func()

	withdrawOnce sync.Once
	closeOnce    sync.Once
}

// NewServer registers the replica in the catalog and starts accepting
// streams. Handlers may be added before or after (Handle is safe
// concurrently); a stream for a method with no handler is reset.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Name == "" || cfg.Catalog == nil || cfg.Endpoint == nil {
		return nil, errors.New("service: server needs Name, Catalog and Endpoint")
	}
	s := &Server{
		cfg:      cfg,
		mux:      comm.NewStreamMux(cfg.Endpoint),
		uri:      naming.ServiceURN(cfg.Name),
		urn:      cfg.Endpoint.URN(),
		handlers: make(map[string]Handler),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	if err := cfg.Catalog.Add(s.uri, rcds.AttrServiceReplica, s.urn); err != nil {
		s.mux.Close()
		s.cancel()
		return nil, fmt.Errorf("service: registering %s replica %s: %w", cfg.Name, s.urn, err)
	}
	if cfg.Monitor != nil && cfg.HostURL != "" {
		events, cancel := cfg.Monitor.Subscribe(16)
		s.cancelSub = cancel
		s.wg.Add(1)
		go s.watchOwnHost(events)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// URN returns the replica's endpoint URN (the value registered under
// the service URN).
func (s *Server) URN() string { return s.urn }

// ServiceURI returns the group's catalog URN.
func (s *Server) ServiceURI() string { return s.uri }

// Mux exposes the stream mux.
func (s *Server) Mux() *comm.StreamMux { return s.mux }

// Draining reports whether the replica has stopped accepting streams.
func (s *Server) Draining() bool { return s.mux.Draining() }

// Handle registers the handler for a method.
func (s *Server) Handle(method string, h Handler) {
	s.mu.Lock()
	s.handlers[method] = h
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		st, err := s.mux.Accept(s.ctx)
		if err != nil {
			return // mux closed or server shutting down
		}
		s.inflight.Add(1)
		go s.serve(st)
	}
}

func (s *Server) serve(st *comm.Stream) {
	defer s.inflight.Done()
	s.mu.Lock()
	h := s.handlers[st.Method()]
	s.mu.Unlock()
	if h == nil {
		st.Reset("unknown method " + st.Method())
		return
	}
	if err := h(s.ctx, st); err != nil {
		st.Reset(err.Error())
		return
	}
	st.CloseWrite() // idempotent if the handler already half-closed
}

// watchOwnHost self-drains when this replica's host turns Suspect —
// the same early-warning reaction the Evacuator applies to tasks,
// local to the replica so it fires even with no orchestrator running.
func (s *Server) watchOwnHost(events <-chan liveness.Event) {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case e, ok := <-events:
			if !ok {
				return
			}
			if e.Host == s.cfg.HostURL && (e.To == liveness.Suspect || e.To == liveness.Dead) {
				go s.DrainFor(s.cfg.HostURL)
				return
			}
		}
	}
}

// withdraw removes the replica from the group's catalog entry, once.
func (s *Server) withdraw() {
	s.withdrawOnce.Do(func() {
		s.cfg.Catalog.Remove(s.uri, rcds.AttrServiceReplica, s.urn)
	})
}

// Drain takes the replica out of service gracefully: withdraw the
// catalog registration so new resolutions skip it, stop accepting
// streams (peers that raced the withdrawal get ErrDraining and retry
// on another replica), then wait for in-flight streams to finish —
// bounded by ctx AND drainGrace. The endpoint stays
// open throughout so in-flight responses can still ride every route.
func (s *Server) Drain(ctx context.Context) error {
	s.withdraw()
	s.mux.Drain()
	ctx, cancel := context.WithTimeout(ctx, drainGrace)
	defer cancel()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("service: drain of %s replica %s: %w", s.cfg.Name, s.urn, ctx.Err())
	}
	// Handlers have returned, but their last frames may still be queued
	// in the mux: a stream stays active until both sides have closed and
	// everything it queued has been handed to the endpoint.
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for s.mux.ActiveStreams() > 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("service: drain of %s replica %s: %w", s.cfg.Name, s.urn, ctx.Err())
		case <-tick.C:
		}
	}
	return nil
}

// DrainFor adapts Drain to the migrate.EvacuatorConfig.DrainHook
// shape: it drains only when the suspect host is this replica's own.
func (s *Server) DrainFor(hostURL string) {
	if s.cfg.HostURL != "" && hostURL != s.cfg.HostURL {
		return
	}
	s.Drain(context.Background())
}

// Close withdraws the registration and stops the replica. In-flight
// handlers are cancelled via their context rather than awaited; use
// Drain first for a graceful exit.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.withdraw()
		s.cancel()
		if s.cancelSub != nil {
			s.cancelSub()
		}
		s.mux.Close()
	})
	s.wg.Wait()
}
