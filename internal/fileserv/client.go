package fileserv

import (
	"context"
	"fmt"
	"sync"
	"time"

	"snipe/internal/comm"
	"snipe/internal/lifn"
	"snipe/internal/naming"
	"snipe/internal/rcds"
	"snipe/internal/task"
)

// Client gives a SNIPE process file access through its own endpoint.
type Client struct {
	cat naming.Catalog
	ep  *comm.Endpoint

	mu      sync.Mutex
	timeout time.Duration
}

// NewClient builds a file client over an endpoint.
func NewClient(cat naming.Catalog, ep *comm.Endpoint) *Client {
	return &Client{cat: cat, ep: ep, timeout: 10 * time.Second}
}

// SetTimeout adjusts the per-request timeout (transfer deadline).
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

func (c *Client) requestTimeout() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.timeout
}

// Servers returns the registered file-server URNs.
func (c *Client) Servers() ([]string, error) {
	return c.cat.Values(naming.ServiceURN(ServiceName), rcds.AttrLocation)
}

// Store writes data to the named file on a server: a one-shot sink.
func (c *Client) Store(serverURN, name string, data []byte) error {
	sink := c.OpenSink(serverURN, name)
	if err := sink.Write(data); err != nil {
		return err
	}
	return sink.Close(10 * time.Second)
}

// Fetch retrieves a whole file from a server: a one-shot source
// streaming back to this client.
func (c *Client) Fetch(serverURN, name string) ([]byte, error) {
	return fetch(c.ep, serverURN, name, c.requestTimeout())
}

// fetch streams the named file from server to ep, as the replies to one
// request.
func fetch(ep *comm.Endpoint, server, name string, timeout time.Duration) ([]byte, error) {
	var out []byte
	err := exchange(ep, server, &fileMsg{Op: opFetch, Name: name}, timeout, func(f *fileMsg) bool {
		out = append(out, f.Data...)
		return f.EOF
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// exchange sends req to server as a request (DESIGN "Request and reply")
// and hands its replies to each until each returns true (nil: one reply
// ends it), all within timeout. A reply that reports failure ends the
// exchange with ErrRemote.
func exchange(ep *comm.Endpoint, server string, req *fileMsg, timeout time.Duration, each func(*fileMsg) bool) error {
	req.ReqID = ep.NewRequest(server)
	defer ep.EndRequest(req.ReqID)
	if err := ep.SendRequest(server, task.TagFile, req.encode()); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for {
		m, err := ep.AwaitReply(ctx, req.ReqID)
		if err != nil {
			return err
		}
		f, err := decodeFileMsg(m.Payload)
		if err != nil {
			return err
		}
		if !f.OK {
			return fmt.Errorf("%w: %s", ErrRemote, f.Err)
		}
		if each == nil || each(f) {
			return nil
		}
	}
}

// FetchAny resolves the file's replica locations from RC metadata and
// fetches from the best one, failing over across replicas — duplicated
// file access "via location of closest resource daemons" (§6).
func (c *Client) FetchAny(name string, localNets []string) ([]byte, error) {
	locs, err := lifn.Locations(c.cat, naming.FileURN(name))
	if err != nil {
		return nil, err
	}
	ranked := lifn.SelectLocation(locs, c.ep.URN(), localNets)
	var lastErr error
	for _, server := range ranked {
		data, err := c.Fetch(server, name)
		if err == nil {
			return data, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("fileserv: all %d replicas failed: %w", len(ranked), lastErr)
}

// StreamTo spawns a file source on the server: the server reads the
// named file and sends it, as SNIPE messages, to the given destination
// URN (§5.9: "a file source process reads a file consisting of SNIPE
// messages and sends them to a SNIPE address"). The receiver collects
// it with ReceiveStream.
func (c *Client) StreamTo(serverURN, name, dstURN string) error {
	req := &fileMsg{Op: opRead, Name: name, Dst: dstURN}
	return c.ep.Send(serverURN, task.TagFile, req.encode())
}

// ReceiveStream collects one file streamed to ep by a file source,
// returning its name and contents. It accepts the first stream that
// arrives from srcServer ("" = any server). A server sends one stream
// whole before the next, so the chunks from the first chunk's server
// are that stream's.
func ReceiveStream(ep *comm.Endpoint, srcServer string, timeout time.Duration) (name string, data []byte, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for {
		m, err := ep.RecvMatch(ctx, srcServer, task.TagFile)
		if err != nil {
			return "", nil, err
		}
		f, err := decodeFileMsg(m.Payload)
		if err != nil || f.Op != opData {
			continue
		}
		if !f.OK {
			return f.Name, nil, fmt.Errorf("%w: %s", ErrRemote, f.Err)
		}
		srcServer = m.Src
		data = append(data, f.Data...)
		if f.EOF {
			return f.Name, data, nil
		}
	}
}

// List returns the files held by a server.
func (c *Client) List(serverURN string) ([]string, error) {
	var names []string
	err := exchange(c.ep, serverURN, &fileMsg{Op: opList}, c.requestTimeout(), func(f *fileMsg) bool {
		names = f.Names
		return true
	})
	return names, err
}

// Pull instructs server to replicate the named file from fromServer.
func (c *Client) Pull(serverURN, name, fromServerURN string) error {
	req := &fileMsg{Op: opPull, Name: name, Dst: fromServerURN}
	return exchange(c.ep, serverURN, req, c.requestTimeout(), nil)
}

// Sink is an open-for-writing file: "a file sink process reads SNIPE
// messages sent to it and stores them into a file" (§5.9). Writes are
// streamed as messages; Close commits the file and waits for the
// server's acknowledgement.
type Sink struct {
	c      *Client
	server string
	name   string
}

// OpenSink opens the named file for writing on the server.
func (c *Client) OpenSink(serverURN, name string) *Sink {
	return &Sink{c: c, server: serverURN, name: name}
}

// Write appends data to the sink.
func (s *Sink) Write(data []byte) error {
	for off := 0; off < len(data) || off == 0; off += chunkSize {
		end := off + chunkSize
		if end > len(data) {
			end = len(data)
		}
		msg := &fileMsg{Op: opAppend, Name: s.name, Data: data[off:end]}
		if err := s.c.ep.Send(s.server, task.TagFile, msg.encode()); err != nil {
			return err
		}
		if len(data) == 0 {
			break
		}
	}
	return nil
}

// Close commits the file, waits for the server's acknowledgement, and
// registers the file's location in RC metadata.
func (s *Sink) Close(timeout time.Duration) error {
	return exchange(s.c.ep, s.server, &fileMsg{Op: opCommit, Name: s.name}, timeout, nil)
}

// ReplicationPolicy configures a replication daemon.
type ReplicationPolicy struct {
	MinReplicas int
	Interval    time.Duration
}

// Replicator is a replication daemon: it watches the file population
// across all registered servers and creates replicas until every file
// meets the redundancy requirement — "replication daemons on these
// servers communicate with one another, creating and deleting replicas
// of files according to local policy, redundancy requirements, and
// demand" (§3.2).
type Replicator struct {
	c      *Client
	policy ReplicationPolicy

	mu      sync.Mutex
	stopped bool
	done    chan struct{}
	wg      sync.WaitGroup
	copied  int
}

// NewReplicator builds a replication daemon over a dedicated client.
func NewReplicator(c *Client, policy ReplicationPolicy) *Replicator {
	if policy.MinReplicas <= 0 {
		policy.MinReplicas = 2
	}
	if policy.Interval <= 0 {
		policy.Interval = 500 * time.Millisecond
	}
	return &Replicator{c: c, policy: policy, done: make(chan struct{})}
}

// Start begins the replication loop.
func (r *Replicator) Start() {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		ticker := time.NewTicker(r.policy.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-r.done:
				return
			case <-ticker.C:
				r.RunOnce()
			}
		}
	}()
}

// Stop halts the loop.
func (r *Replicator) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	close(r.done)
	r.mu.Unlock()
	r.wg.Wait()
}

// Copied reports how many replicas this daemon has created.
func (r *Replicator) Copied() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.copied
}

// RunOnce performs one replication sweep and returns the number of
// replicas created.
func (r *Replicator) RunOnce() int {
	servers, err := r.c.Servers()
	if err != nil || len(servers) < 2 {
		return 0
	}
	// Census: file → servers holding it.
	holders := make(map[string][]string)
	for _, srv := range servers {
		files, err := r.c.List(srv)
		if err != nil {
			continue // server down; heal on a later sweep
		}
		for _, f := range files {
			holders[f] = append(holders[f], srv)
		}
	}
	created := 0
	for file, have := range holders {
		want := r.policy.MinReplicas
		if want > len(servers) {
			want = len(servers)
		}
		if len(have) >= want {
			continue
		}
		haveSet := make(map[string]bool, len(have))
		for _, h := range have {
			haveSet[h] = true
		}
		src := have[0]
		for _, dst := range servers {
			if len(have) >= want {
				break
			}
			if haveSet[dst] {
				continue
			}
			if err := r.c.Pull(dst, file, src); err != nil {
				continue
			}
			have = append(have, dst)
			created++
		}
	}
	r.mu.Lock()
	r.copied += created
	r.mu.Unlock()
	return created
}
