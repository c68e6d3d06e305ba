// Package rm implements SNIPE resource managers (paper §3.5),
// descendants of PVM's General Resource Manager modified "to allow for
// redundant resource management processes".
//
// A resource manager monitors the hosts it manages through their RC
// metadata (architecture, memory, load published by host daemons),
// clarifies resource requests, and selects actual resources in
// response. It operates in two modes, as the paper describes:
//
//   - passive: the RM reserves resources on a host on a requester's
//     behalf without allocating them;
//   - active: the RM acts as a proxy, spawning the process via the
//     chosen host's daemon.
//
// Any number of RMs may run concurrently; each registers itself under
// the well-known service URN, and clients fail over between them —
// removing PVM's single-resource-manager bottleneck and single point
// of failure (§2.2).
package rm

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"snipe/internal/comm"
	"snipe/internal/daemon"
	"snipe/internal/liveness"
	"snipe/internal/naming"
	"snipe/internal/rcds"
	"snipe/internal/seckey"
	"snipe/internal/task"
	"snipe/internal/xdr"
)

// maxWireHost caps host names, URLs and error strings decoded off the
// wire, so a corrupt length prefix fails fast.
const maxWireHost = 4096

// ServiceName is the well-known replicated-service name for resource
// managers; RMs register their process URNs as AttrLocation values of
// naming.ServiceURN(ServiceName).
const ServiceName = "resource-manager"

// RM protocol operations (TagRM messages).
const (
	opSelect uint8 = iota + 1
	opAllocate
	opReserve
	opRelease
)

// Errors of the resource-management layer.
var (
	// ErrNoHosts indicates no registered host satisfies the request.
	ErrNoHosts = errors.New("rm: no host satisfies request")
	// ErrNoManagers indicates no resource manager answered.
	ErrNoManagers = errors.New("rm: no reachable resource manager")
)

// hostInfo is an RM's view of one candidate host.
type hostInfo struct {
	url       string
	daemonURN string
	arch      string
	memoryMB  int
	load      float64
}

// Manager is one resource manager instance.
type Manager struct {
	name string
	urn  string
	cat  naming.Catalog
	ep   *comm.Endpoint

	mu           sync.Mutex
	reservations map[string]int // host URL → reserved slots
	nextReqID    uint64
	authorizer   *seckey.Authorizer // nil: secure allocation disabled
	closed       bool

	mon         *liveness.Monitor // optional failure detector (UseLiveness)
	cancelWatch func()            // drops the monitor subscription, which ends the watcher
	watchWG     sync.WaitGroup
}

// NewManager creates and registers a resource manager. listens
// defaults to loopback TCP.
func NewManager(name string, cat naming.Catalog, listens []comm.Route) (*Manager, error) {
	m := &Manager{
		name:         name,
		urn:          naming.ProcessURN(name, "rm"),
		cat:          cat,
		reservations: make(map[string]int),
	}
	m.ep = comm.NewEndpoint(m.urn,
		comm.WithResolver(naming.NewResolver(cat)),
		comm.WithHandler(m.handle, task.TagRM))
	if len(listens) == 0 {
		listens = []comm.Route{{Transport: "tcp", Addr: "127.0.0.1:0"}}
	}
	var routes []comm.Route
	for _, l := range listens {
		route, err := m.ep.Listen(l.Spec())
		if err != nil {
			m.ep.Close()
			return nil, fmt.Errorf("rm: listen: %w", err)
		}
		routes = append(routes, route)
	}
	if err := naming.Register(cat, m.urn, routes); err != nil {
		m.ep.Close()
		return nil, err
	}
	if err := cat.Add(naming.ServiceURN(ServiceName), rcds.AttrLocation, m.urn); err != nil {
		m.ep.Close()
		return nil, err
	}
	return m, nil
}

// URN returns the manager's process URN.
func (m *Manager) URN() string { return m.urn }

// UseLiveness connects the manager to a failure detector: SelectHost
// stops placing work on suspect/dead/departed hosts, and a watcher
// re-reports tasks stranded on hosts declared dead — publishing their
// failure and notifying their notify lists, the paper's "failure
// notification" applied to orphaned work. The monitor is not owned:
// the caller closes it.
func (m *Manager) UseLiveness(mon *liveness.Monitor) {
	m.mu.Lock()
	if m.mon != nil || m.closed {
		m.mu.Unlock()
		return
	}
	m.mon = mon
	events, cancel := mon.Subscribe(0)
	m.cancelWatch = cancel
	m.watchWG.Add(1)
	m.mu.Unlock()
	go func() {
		defer m.watchWG.Done()
		for ev := range events { // closed by cancelWatch or the monitor's Close
			if ev.To == liveness.Dead {
				m.reportDeadHost(ev.Host)
			}
		}
	}()
}

// reportDeadHost settles the metadata of every task stranded on a dead
// host: running/suspended tasks are marked failed, their addresses
// withdrawn (no one can reach them), and their notify lists told — the
// work a crashed daemon could not do for itself.
func (m *Manager) reportDeadHost(hostURL string) {
	tasks, err := m.cat.Values(hostURL, "task")
	if err != nil {
		return // catalog unreachable: retried when the next event fires
	}
	for _, urn := range tasks {
		st, ok, err := m.cat.FirstValue(urn, rcds.AttrState)
		if err != nil || !ok {
			continue
		}
		from := task.State(st)
		if from != task.StateRunning && from != task.StateSuspended {
			continue // already settled (exited, failed, checkpointed)
		}
		m.cat.Set(urn, rcds.AttrState, string(task.StateFailed))
		naming.Unregister(m.cat, urn)
		if notify, err := m.cat.Values(urn, rcds.AttrNotify); err == nil && len(notify) > 0 {
			payload := task.EncodeStateChange(task.StateChange{
				URN: urn, From: from, To: task.StateFailed, Host: hostURL,
			})
			for _, n := range notify {
				m.ep.Send(n, task.TagNotify, payload)
			}
		}
	}
}

// Close deregisters and stops the manager.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	cancelWatch := m.cancelWatch
	m.mu.Unlock()
	if cancelWatch != nil {
		cancelWatch()
		m.watchWG.Wait()
	}
	m.cat.Remove(naming.ServiceURN(ServiceName), rcds.AttrLocation, m.urn)
	m.ep.Close()
}

// hosts gathers the current host inventory from RC metadata. Catalog
// errors propagate — "this record is not a host" and "the catalog is
// unreachable" are different facts, and conflating them would have a
// partitioned RM serve placements from a silently shrinking inventory
// instead of failing so clients rotate to a reachable replica's RM.
func (m *Manager) hosts() ([]hostInfo, error) {
	urls, err := m.cat.URIs(naming.HostPrefix)
	if err != nil {
		return nil, fmt.Errorf("rm: host inventory: %w", err)
	}
	infos := make([]hostInfo, 0, len(urls))
	for _, url := range urls {
		durn, ok, err := m.cat.FirstValue(url, rcds.AttrHostDaemonURL)
		if err != nil {
			return nil, fmt.Errorf("rm: reading %s: %w", url, err)
		}
		if !ok {
			continue // not a SNIPE host record (withdrawn or foreign)
		}
		info := hostInfo{url: url, daemonURN: durn}
		if v, ok, err := m.cat.FirstValue(url, rcds.AttrArch); err != nil {
			return nil, fmt.Errorf("rm: reading %s: %w", url, err)
		} else if ok {
			info.arch = v
		}
		if v, ok, err := m.cat.FirstValue(url, rcds.AttrMemory); err != nil {
			return nil, fmt.Errorf("rm: reading %s: %w", url, err)
		} else if ok {
			info.memoryMB, _ = strconv.Atoi(v)
		}
		if load, ok := liveness.HostLoad(m.cat, url); ok {
			info.load = load
		}
		infos = append(infos, info)
	}
	return infos, nil
}

// SelectHost picks the best host for the requirements: the paper's
// "selecting the actual resources in response to a request", using the
// load figures the daemons publish. Reserved slots count toward load
// so passive reservations steer later placements.
func (m *Manager) SelectHost(req task.Requirements) (hostURL, daemonURN string, err error) {
	infos, err := m.hosts()
	if err != nil {
		return "", "", err
	}
	m.mu.Lock()
	mon := m.mon
	m.mu.Unlock()
	candidates := infos[:0]
	for _, h := range infos {
		// Liveness filter: never place on a host the detector calls
		// suspect, dead, or cleanly departed. Unknown passes — a record
		// with no heartbeat history predates the monitor, not the host's
		// death.
		if mon != nil && !mon.State(h.url).Placeable() {
			continue
		}
		if req.Host != "" && req.Host != h.url {
			continue
		}
		if req.Arch != "" && req.Arch != h.arch {
			continue
		}
		if req.MinMemoryMB > 0 && req.MinMemoryMB > h.memoryMB {
			continue
		}
		candidates = append(candidates, h)
	}
	if len(candidates) == 0 {
		return "", "", fmt.Errorf("%w: %+v", ErrNoHosts, req)
	}
	m.mu.Lock()
	for i := range candidates {
		candidates[i].load += float64(m.reservations[candidates[i].url])
	}
	m.mu.Unlock()
	sort.SliceStable(candidates, func(i, j int) bool {
		return candidates[i].load < candidates[j].load
	})
	return candidates[0].url, candidates[0].daemonURN, nil
}

// Allocate is active-mode resource management: select a host and spawn
// the spec there via the host daemon, returning the new task URN.
func (m *Manager) Allocate(spec task.Spec) (string, error) {
	_, daemonURN, err := m.SelectHost(spec.Req)
	if err != nil {
		return "", err
	}
	m.mu.Lock()
	m.nextReqID++
	reqID := m.nextReqID
	m.mu.Unlock()
	return daemon.SpawnRemote(m.ep, daemonURN, spec, reqID, 10*time.Second)
}

// Reserve is passive-mode management: mark one slot on the host as
// spoken for, "allowing a process to reserve resources on a particular
// host, without actually providing the access" (§3.5).
func (m *Manager) Reserve(hostURL string) {
	m.mu.Lock()
	m.reservations[hostURL]++
	m.mu.Unlock()
}

// Release returns a reserved slot.
func (m *Manager) Release(hostURL string) {
	m.mu.Lock()
	if m.reservations[hostURL] > 0 {
		m.reservations[hostURL]--
	}
	m.mu.Unlock()
}

// Reserved reports outstanding reservations for a host.
func (m *Manager) Reserved(hostURL string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reservations[hostURL]
}

// SignalTask enforces resource policy on a running task (suspend,
// kill): the RM locates the task's host daemon via RC metadata and
// relays the signal — the paper's active-mode "suspend, kill, or ...
// migrate processes".
func (m *Manager) SignalTask(taskURN string, sig task.Signal) error {
	hostURL, ok, err := m.cat.FirstValue(taskURN, "host")
	if err != nil || !ok {
		return fmt.Errorf("rm: task %s has no host metadata: %w", taskURN, err)
	}
	daemonURN, ok, err := m.cat.FirstValue(hostURL, rcds.AttrHostDaemonURL)
	if err != nil || !ok {
		return fmt.Errorf("rm: host %s has no daemon: %w", hostURL, err)
	}
	return daemon.SignalRemote(m.ep, daemonURN, taskURN, sig)
}

// handle answers the RM message protocol.
func (m *Manager) handle(msg *comm.Message) {
	if msg.Tag != task.TagRM {
		return
	}
	d := xdr.NewDecoder(msg.Payload)
	reqID, err := d.Uint64()
	if err != nil {
		return
	}
	op, err := d.Uint8()
	if err != nil {
		return
	}
	e := xdr.NewEncoder(64)
	e.PutUint64(reqID)
	switch op {
	case opSelect:
		spec, err := task.DecodeSpec(d)
		var hostURL string
		if err == nil {
			hostURL, _, err = m.SelectHost(spec.Req)
		}
		putResult(e, hostURL, err)
	case opAllocate:
		spec, err := task.DecodeSpec(d)
		var urn string
		if err == nil {
			urn, err = m.Allocate(spec)
		}
		putResult(e, urn, err)
	case opReserve:
		host, err := d.StringMax(maxWireHost)
		if err == nil {
			m.Reserve(host)
		}
		putResult(e, host, err)
	case opRelease:
		host, err := d.StringMax(maxWireHost)
		if err == nil {
			m.Release(host)
		}
		putResult(e, host, err)
	case opSecureAllocate:
		m.handleSecure(d, e)
	default:
		putResult(e, "", fmt.Errorf("rm: unknown op %d", op))
	}
	m.ep.Send(msg.Src, task.TagRMResp, e.Bytes())
}

func putResult(e *xdr.Encoder, value string, err error) {
	e.PutBool(err == nil)
	if err != nil {
		e.PutString(err.Error())
	} else {
		e.PutString(value)
	}
}

// Client talks to the replicated resource-manager service, failing
// over between RMs — the redundancy experiment of E6.
type Client struct {
	cat naming.Catalog
	ep  *comm.Endpoint

	mu        sync.Mutex
	nextReqID uint64
	timeout   time.Duration
}

// NewClient builds an RM client over an existing endpoint.
func NewClient(cat naming.Catalog, ep *comm.Endpoint) *Client {
	return &Client{cat: cat, ep: ep, timeout: 5 * time.Second}
}

// SetTimeout adjusts the per-RM request timeout.
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

// managers returns the currently registered RM URNs.
func (c *Client) managers() ([]string, error) {
	return c.cat.Values(naming.ServiceURN(ServiceName), rcds.AttrLocation)
}

// request runs one op against the RM service with failover.
func (c *Client) request(op uint8, body func(*xdr.Encoder)) (string, error) {
	rms, err := c.managers()
	if err != nil {
		return "", err
	}
	if len(rms) == 0 {
		return "", ErrNoManagers
	}
	c.mu.Lock()
	timeout := c.timeout
	c.mu.Unlock()
	var lastErr error = ErrNoManagers
	for _, rmURN := range rms {
		c.mu.Lock()
		c.nextReqID++
		reqID := c.nextReqID
		c.mu.Unlock()
		e := xdr.NewEncoder(128)
		e.PutUint64(reqID)
		e.PutUint8(op)
		if body != nil {
			body(e)
		}
		if err := c.ep.Send(rmURN, task.TagRM, e.Bytes()); err != nil {
			lastErr = err
			continue
		}
		value, err := c.awaitResp(rmURN, reqID, timeout)
		if err == nil {
			return value, nil
		}
		lastErr = err
		if !errors.Is(err, comm.ErrTimeout) {
			return "", err // a real answer (e.g. ErrNoHosts): do not mask it
		}
	}
	return "", fmt.Errorf("%w (last: %v)", ErrNoManagers, lastErr)
}

func (c *Client) awaitResp(rmURN string, reqID uint64, timeout time.Duration) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for {
		m, err := c.ep.RecvMatch(ctx, rmURN, task.TagRMResp)
		if err != nil {
			return "", err
		}
		d := xdr.NewDecoder(m.Payload)
		gotID, err := d.Uint64()
		if err != nil {
			return "", err
		}
		if gotID != reqID {
			continue
		}
		ok, err := d.Bool()
		if err != nil {
			return "", err
		}
		s, err := d.StringMax(maxWireHost)
		if err != nil {
			return "", err
		}
		if !ok {
			return "", fmt.Errorf("rm: %s", s)
		}
		return s, nil
	}
}

// Allocate spawns spec on the best host, via any live RM.
func (c *Client) Allocate(spec task.Spec) (string, error) {
	return c.request(opAllocate, func(e *xdr.Encoder) { spec.Encode(e) })
}

// SelectHost asks any live RM for a placement decision without
// spawning.
func (c *Client) SelectHost(req task.Requirements) (string, error) {
	spec := task.Spec{Req: req}
	return c.request(opSelect, func(e *xdr.Encoder) { spec.Encode(e) })
}

// Reserve makes a passive reservation on a host.
func (c *Client) Reserve(hostURL string) error {
	_, err := c.request(opReserve, func(e *xdr.Encoder) { e.PutString(hostURL) })
	return err
}

// Release drops a passive reservation.
func (c *Client) Release(hostURL string) error {
	_, err := c.request(opRelease, func(e *xdr.Encoder) { e.PutString(hostURL) })
	return err
}
