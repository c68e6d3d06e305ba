package core

import (
	"context"
	"fmt"
	"time"

	"snipe/internal/comm"
	"snipe/internal/daemon"
	"snipe/internal/fileserv"
	"snipe/internal/mcast"
	"snipe/internal/migrate"
	"snipe/internal/naming"
	"snipe/internal/rcds"
	"snipe/internal/rm"
	"snipe/internal/task"
)

// Client is the SNIPE client library (paper §3.4): resource location,
// communications, task management, multicast membership, and access to
// external data stores, all through one endpoint with a global URN.
type Client struct {
	u   *Universe
	urn string
	ep  *comm.Endpoint
	rmc *rm.Client
	fsc *fileserv.Client
}

// NewClient creates a client process named name, globally registered
// and ready to communicate.
func (u *Universe) NewClient(name string) (*Client, error) {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil, ErrClosed
	}
	u.mu.Unlock()
	c := &Client{u: u, urn: naming.ProcessURN("client", name)}
	resolver := naming.NewResolver(u.catalog)
	c.ep = comm.NewEndpoint(c.urn, comm.WithResolver(resolver))
	route, err := c.ep.Listen(comm.ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
	if err != nil {
		c.ep.Close()
		return nil, fmt.Errorf("core: client %s: %w", name, err)
	}
	if err := naming.Register(u.catalog, c.urn, []comm.Route{route}); err != nil {
		c.ep.Close()
		return nil, err
	}
	c.rmc = rm.NewClient(u.catalog, c.ep)
	c.fsc = fileserv.NewClient(u.catalog, c.ep)
	u.mu.Lock()
	u.clients = append(u.clients, c)
	u.mu.Unlock()
	return c, nil
}

// URN returns the client's global name.
func (c *Client) URN() string { return c.urn }

// Endpoint exposes the underlying comm endpoint.
func (c *Client) Endpoint() *comm.Endpoint { return c.ep }

// Close withdraws the client's registration and endpoint.
func (c *Client) Close() {
	naming.Unregister(c.u.catalog, c.urn)
	c.ep.Close()
}

// --- communications --------------------------------------------------

// Send queues a reliable message to any SNIPE process by URN.
func (c *Client) Send(dst string, tag uint32, payload []byte) error {
	return c.ep.Send(dst, tag, payload)
}

// SendWait sends and waits for the end-to-end acknowledgement.
func (c *Client) SendWait(dst string, tag uint32, payload []byte, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return c.ep.SendWait(ctx, dst, tag, payload)
}

// Recv returns the next message.
func (c *Client) Recv(timeout time.Duration) (*comm.Message, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return c.ep.Recv(ctx)
}

// RecvMatch receives selectively by source and tag.
func (c *Client) RecvMatch(src string, tag uint32, timeout time.Duration) (*comm.Message, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return c.ep.RecvMatch(ctx, src, tag)
}

// --- resource location ------------------------------------------------

// Lookup returns the live values of an attribute of any URI — the
// client library's "resource location" facility.
func (c *Client) Lookup(uri, attr string) ([]string, error) {
	return c.u.catalog.Values(uri, attr)
}

// LookupFirst returns the most recent value of an attribute.
func (c *Client) LookupFirst(uri, attr string) (string, bool, error) {
	return c.u.catalog.FirstValue(uri, attr)
}

// PutMeta publishes shared application metadata — the paper notes RC
// servers let applications "share data without the creation of many
// temporary small files" (§3.1).
func (c *Client) PutMeta(uri, attr, value string) error {
	return c.u.catalog.Set(uri, attr, value)
}

// AddMeta adds one value of a multi-valued attribute.
func (c *Client) AddMeta(uri, attr, value string) error {
	return c.u.catalog.Add(uri, attr, value)
}

// --- task management ---------------------------------------------------

// Spawn places and starts a task via the resource-manager service,
// returning its URN.
func (c *Client) Spawn(spec task.Spec) (string, error) {
	return c.rmc.Allocate(spec)
}

// SpawnOn starts a task on a specific host, directly via its daemon.
func (c *Client) SpawnOn(host string, spec task.Spec) (string, error) {
	durn, ok, err := c.u.catalog.FirstValue(naming.HostURL(host), rcds.AttrHostDaemonURL)
	if err != nil || !ok {
		return "", fmt.Errorf("core: host %s has no daemon: %w", host, err)
	}
	return daemon.SpawnRemote(c.ep, durn, spec, 10*time.Second)
}

// Signal delivers a signal to a task via its host daemon.
func (c *Client) Signal(taskURN string, sig task.Signal) error {
	durn, err := c.daemonOf(taskURN)
	if err != nil {
		return err
	}
	return daemon.SignalRemote(c.ep, durn, taskURN, sig)
}

// TaskState reads a task's recorded state from RC metadata.
func (c *Client) TaskState(taskURN string) (task.State, error) {
	v, ok, err := c.u.catalog.FirstValue(taskURN, rcds.AttrState)
	if err != nil {
		return "", err
	}
	if !ok {
		return "", fmt.Errorf("core: %s has no state metadata", taskURN)
	}
	return task.State(v), nil
}

// WaitState polls until the task reaches the wanted state.
func (c *Client) WaitState(taskURN string, want task.State, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st, err := c.TaskState(taskURN)
		if err == nil && st == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("core: %s state %v, want %v: %w", taskURN, st, want, comm.ErrTimeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Watch subscribes this client to a task's notify list; state changes
// arrive as task.TagNotify messages.
func (c *Client) Watch(taskURN string) error {
	return c.u.catalog.Add(taskURN, rcds.AttrNotify, c.urn)
}

// NextNotify returns the next state-change notification.
func (c *Client) NextNotify(timeout time.Duration) (task.StateChange, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	m, err := c.ep.RecvMatch(ctx, "", task.TagNotify)
	if err != nil {
		return task.StateChange{}, err
	}
	return task.DecodeStateChange(m.Payload)
}

// Migrate moves a running task to another host, via the daemons'
// message protocols.
func (c *Client) Migrate(taskURN, dstHost string) (time.Duration, error) {
	srcDaemon, err := c.daemonOf(taskURN)
	if err != nil {
		return 0, err
	}
	dstDaemon, ok, err := c.u.catalog.FirstValue(naming.HostURL(dstHost), rcds.AttrHostDaemonURL)
	if err != nil || !ok {
		return 0, fmt.Errorf("core: host %s has no daemon: %w", dstHost, err)
	}
	return migrate.Remote(c.u.catalog, c.ep, taskURN, srcDaemon, dstDaemon, migrate.Options{})
}

func (c *Client) daemonOf(taskURN string) (string, error) {
	host, ok, err := c.u.catalog.FirstValue(taskURN, "host")
	if err != nil || !ok {
		return "", fmt.Errorf("core: %s has no host metadata: %w", taskURN, err)
	}
	durn, ok, err := c.u.catalog.FirstValue(host, rcds.AttrHostDaemonURL)
	if err != nil || !ok {
		return "", fmt.Errorf("core: host %s has no daemon: %w", host, err)
	}
	return durn, nil
}

// --- multicast ----------------------------------------------------------

// JoinGroup registers this client in a multicast group.
func (c *Client) JoinGroup(groupURN string) (*mcast.Member, error) {
	return mcast.Join(c.u.catalog, c.ep, groupURN)
}

// --- files ----------------------------------------------------------------

// StoreFile writes data to a file server (the first registered one if
// serverURN is empty) and returns the chosen server URN.
func (c *Client) StoreFile(serverURN, name string, data []byte) (string, error) {
	if serverURN == "" {
		servers, err := c.fsc.Servers()
		if err != nil {
			return "", err
		}
		if len(servers) == 0 {
			return "", fmt.Errorf("core: no file servers registered")
		}
		serverURN = servers[0]
	}
	return serverURN, c.fsc.Store(serverURN, name, data)
}

// FetchFile retrieves a file from any replica.
func (c *Client) FetchFile(name string) ([]byte, error) {
	return c.fsc.FetchAny(name, nil)
}

// Files exposes the full file client for advanced use (sinks, sources,
// replication control).
func (c *Client) Files() *fileserv.Client { return c.fsc }
