// Package naming connects the communications layer to the RC metadata
// registry: SNIPE processes are addressable by URN because their
// communication addresses are published as RC assertions (paper §3.1),
// and "unicast message routing is performed using the RCDS metadata for
// the destination process" (§5.3).
//
// # URN conventions
//
// The SNIPE namespace is a set of distinguished prefixes over the RCDS
// URI space (§5.2): hosts get URLs under "snipe://hosts/", processes
// URNs under "urn:snipe:process:", and groups, files and replicated
// services their own URN prefixes (GroupPrefix, FilePrefix,
// ServicePrefix). The constructors (ProcessURN, HostURL, …) are the
// only place these spellings are assembled, so the convention lives
// here and nowhere else. Under a sharded catalog the prefix does not
// pick the replica group — ownership hashes over the scheme-stripped
// path (ShardOf), so "snipe://hosts/h1" and an equivalent URN land on
// the same shard.
//
// # Layers
//
// The package is a thin adapter: Catalog abstracts "some RCDS" —
// either an in-process *rcds.Store or a remote *rcds.Client, which
// routes by the catalog's shard map — behind context-less reads and writes;
// Register/Unregister publish a process's communication addresses;
// Resolver caches URN→address resolutions with a TTL unless the client
// already maintains its watch-coherent read cache, which supersedes it;
// Watch turns whichever change-notification face a Catalog has (push
// subscription, version long-poll, neither) into one callback.
package naming

import (
	"context"
	"fmt"
	"sync"
	"time"

	"snipe/internal/comm"
	"snipe/internal/rcds"
	"snipe/internal/stats"
)

// URN and URL constructors for the SNIPE namespace. Hosts get
// distinguished URLs, processes distinguished URNs (§5.2).
const (
	// ProcessPrefix is the URN prefix for SNIPE processes.
	ProcessPrefix = "urn:snipe:process:"
	// HostPrefix is the distinguished-URL prefix for SNIPE hosts.
	HostPrefix = "snipe://hosts/"
	// GroupPrefix is the URN prefix for multicast groups.
	GroupPrefix = "urn:snipe:group:"
	// FilePrefix is the URN prefix for SNIPE-managed files.
	FilePrefix = "urn:snipe:file:"
	// ServicePrefix is the URN prefix for replicated services.
	ServicePrefix = "urn:snipe:service:"
	// LivenessPrefix is the distinguished-URL prefix for liveness
	// metadata that is not per-host: gossip group digests live under
	// it, one URI per group (see internal/gossip).
	LivenessPrefix = "snipe://liveness/"
)

// ProcessURN returns the distinguished URN for a process.
func ProcessURN(host, name string) string {
	return ProcessPrefix + host + ":" + name
}

// HostURL returns the distinguished URL for a host.
func HostURL(name string) string { return HostPrefix + name }

// GroupURN returns the URN for a multicast group.
func GroupURN(name string) string { return GroupPrefix + name }

// FileURN returns the URN for a managed file.
func FileURN(name string) string { return FilePrefix + name }

// ShardKey returns the portion of a SNIPE name that catalog sharding
// hashes over — the scheme-stripped path, so equivalent URL and URN
// spellings agree. Re-exported from rcds for naming-layer callers.
func ShardKey(uri string) string { return rcds.ShardKey(uri) }

// ShardOf returns the replica group owning uri in an n-group sharded
// catalog — the placement function for anyone reasoning about where a
// name's metadata lives. Re-exported from rcds.
func ShardOf(uri string, n int) int { return rcds.ShardOf(uri, n) }

// ServiceURN returns the URN for a replicated service.
func ServiceURN(name string) string { return ServicePrefix + name }

// LivenessGroupURI returns the distinguished URL under which gossip
// group g's liveness digest is published — ONE catalog record per
// group, replacing per-host heartbeat records on the catalog hot path.
func LivenessGroupURI(g int) string { return fmt.Sprintf("%sgroup/%d", LivenessPrefix, g) }

// Catalog is the RC metadata access surface SNIPE components need;
// satisfied by *rcds.Client (remote replicas) and by in-process stores
// via StoreCatalog.
type Catalog interface {
	Values(uri, name string) ([]string, error)
	FirstValue(uri, name string) (string, bool, error)
	URIs(prefix string) ([]string, error)
	Add(uri, name, value string) error
	Remove(uri, name, value string) error
	RemoveAll(uri, name string) error
	Set(uri, name, value string) error
}

// storeCatalog adapts an in-process rcds.Store to Catalog, for
// single-process universes and tests.
type storeCatalog struct{ s *rcds.Store }

// StoreCatalog wraps a local store as a Catalog.
func StoreCatalog(s *rcds.Store) Catalog { return storeCatalog{s} }

func (c storeCatalog) Values(uri, name string) ([]string, error) { return c.s.Values(uri, name), nil }
func (c storeCatalog) FirstValue(uri, name string) (string, bool, error) {
	v, ok := c.s.FirstValue(uri, name)
	return v, ok, nil
}
func (c storeCatalog) URIs(prefix string) ([]string, error) { return c.s.URIs(prefix), nil }
func (c storeCatalog) Add(uri, name, value string) error    { c.s.Add(uri, name, value); return nil }
func (c storeCatalog) Remove(uri, name, value string) error {
	c.s.Remove(uri, name, value)
	return nil
}
func (c storeCatalog) RemoveAll(uri, name string) error { c.s.RemoveAll(uri, name); return nil }

// MetricsSnapshot exposes the wrapped store's metrics; callers holding
// a Catalog discover it by interface assertion.
func (c storeCatalog) MetricsSnapshot() stats.Snapshot { return c.s.MetricsSnapshot() }
func (c storeCatalog) Set(uri, name, value string) error {
	c.s.Set(uri, name, value)
	return nil
}

// Subscribe exposes the wrapped store's push subscriptions so that
// watchers holding a Catalog (the liveness monitor) can discover the
// cheap event channel by interface assertion instead of polling.
func (c storeCatalog) Subscribe(prefix string, ch chan rcds.Event) int {
	return c.s.Subscribe(prefix, ch)
}

// Unsubscribe cancels a Subscribe registration.
func (c storeCatalog) Unsubscribe(id int) { c.s.Unsubscribe(id) }

// clientCatalog adapts a context-first *rcds.Client to the context-less
// Catalog interface: each call that goes to a server runs under a
// deadline derived from the client's configured per-request timeout.
// Components that want cancellation use the client directly; Catalog
// holders get the same bounded-time behavior the old timeout-signature
// wrappers provided.
type clientCatalog struct{ c *rcds.Client }

// ClientCatalog wraps a remote RCDS client as a Catalog. The wrapper
// also forwards the discovery faces callers probe for by interface
// assertion: ReadCacheActive (Resolver), MetricsSnapshot (daemon
// status), the liveness monitor's long-poll Wait and Watch's WaitURI.
func ClientCatalog(c *rcds.Client) Catalog { return clientCatalog{c} }

// Client returns the wrapped RCDS client, for callers that own its
// lifecycle (core.Universe.Close) or need the context-first API.
func (cc clientCatalog) Client() *rcds.Client { return cc.c }

func (cc clientCatalog) opCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), cc.c.Timeout())
}

// Values and FirstValue build their deadline on a cache miss only: a
// hit never looks at it, and most reads are hits.
func (cc clientCatalog) Values(uri, name string) ([]string, error) {
	if vals, ok := cc.c.CachedValues(uri, name); ok {
		return vals, nil
	}
	ctx, cancel := cc.opCtx()
	defer cancel()
	return cc.c.Values(ctx, uri, name)
}

func (cc clientCatalog) FirstValue(uri, name string) (string, bool, error) {
	if v, present, ok := cc.c.CachedFirstValue(uri, name); ok {
		return v, present, nil
	}
	ctx, cancel := cc.opCtx()
	defer cancel()
	return cc.c.FirstValue(ctx, uri, name)
}

func (cc clientCatalog) URIs(prefix string) ([]string, error) {
	ctx, cancel := cc.opCtx()
	defer cancel()
	return cc.c.URIs(ctx, prefix)
}

func (cc clientCatalog) Add(uri, name, value string) error {
	ctx, cancel := cc.opCtx()
	defer cancel()
	return cc.c.Add(ctx, uri, name, value)
}

func (cc clientCatalog) Remove(uri, name, value string) error {
	ctx, cancel := cc.opCtx()
	defer cancel()
	return cc.c.Remove(ctx, uri, name, value)
}

func (cc clientCatalog) RemoveAll(uri, name string) error {
	ctx, cancel := cc.opCtx()
	defer cancel()
	return cc.c.RemoveAll(ctx, uri, name)
}

func (cc clientCatalog) Set(uri, name, value string) error {
	ctx, cancel := cc.opCtx()
	defer cancel()
	return cc.c.Set(ctx, uri, name, value)
}

// ReadCacheActive reports whether the wrapped client caches reads
// coherently; the Resolver disables its own TTL cache when so.
func (cc clientCatalog) ReadCacheActive() bool { return cc.c.ReadCacheActive() }

// MetricsSnapshot forwards the client's metrics registry.
func (cc clientCatalog) MetricsSnapshot() stats.Snapshot { return cc.c.MetricsSnapshot() }

// Wait forwards the client's long-poll, satisfying the liveness
// monitor's waiter face. The caller supplies the context: long polls
// outlive the per-request timeout by design.
func (cc clientCatalog) Wait(ctx context.Context, since uint64, timeout time.Duration) (uint64, error) {
	return cc.c.Wait(ctx, since, timeout)
}

// WaitURI forwards the shard-aware long-poll: the version stream of the
// replica group that owns uri, which in a sharded catalog need not be the
// seed group Wait follows. It is Watch's long-poll face.
func (cc clientCatalog) WaitURI(ctx context.Context, uri string, since uint64, timeout time.Duration) (uint64, error) {
	return cc.c.WaitURI(ctx, uri, since, timeout)
}

// gatedCatalog wraps a Catalog behind a reachability gate: every
// operation first consults gate and fails with its error while the
// gate is down. Combined with netsim's Fabric.Gate this models a
// network partition between a node and its RC replica — reads and
// heartbeat writes both stop, which is exactly how a partition looks
// from either side of it.
type gatedCatalog struct {
	cat  Catalog
	gate func() error
}

// GatedCatalog wraps cat so that every operation fails with gate's
// error whenever gate returns non-nil.
func GatedCatalog(cat Catalog, gate func() error) Catalog {
	return gatedCatalog{cat: cat, gate: gate}
}

func (g gatedCatalog) Values(uri, name string) ([]string, error) {
	if err := g.gate(); err != nil {
		return nil, err
	}
	return g.cat.Values(uri, name)
}

func (g gatedCatalog) FirstValue(uri, name string) (string, bool, error) {
	if err := g.gate(); err != nil {
		return "", false, err
	}
	return g.cat.FirstValue(uri, name)
}

func (g gatedCatalog) URIs(prefix string) ([]string, error) {
	if err := g.gate(); err != nil {
		return nil, err
	}
	return g.cat.URIs(prefix)
}

func (g gatedCatalog) Add(uri, name, value string) error {
	if err := g.gate(); err != nil {
		return err
	}
	return g.cat.Add(uri, name, value)
}

func (g gatedCatalog) Remove(uri, name, value string) error {
	if err := g.gate(); err != nil {
		return err
	}
	return g.cat.Remove(uri, name, value)
}

func (g gatedCatalog) RemoveAll(uri, name string) error {
	if err := g.gate(); err != nil {
		return err
	}
	return g.cat.RemoveAll(uri, name)
}

func (g gatedCatalog) Set(uri, name, value string) error {
	if err := g.gate(); err != nil {
		return err
	}
	return g.cat.Set(uri, name, value)
}

// Resolver resolves URNs to routes via RC metadata, with a small
// negative-and-positive cache so that message sends do not hammer the
// RC servers. Cache entries are invalidated quickly (default 150ms)
// because stale addresses are rediscovered by the endpoint's retry
// loop anyway — the paper's "processes that do not notice its
// migration ... will find its new location via the RC servers" (§5.6).
type Resolver struct {
	cat Catalog
	ttl time.Duration

	mu    sync.Mutex
	cache map[string]cacheEntry
}

type cacheEntry struct {
	routes  []comm.Route
	expires time.Time
}

// NewResolver builds a resolver over cat. When the catalog itself
// caches reads coherently (an rcds.Client with its watch-invalidated
// read cache), the resolver's TTL cache is disabled and resolution
// rides the client cache instead — invalidation is then push-based
// (Wait sequence numbers) rather than timer-based.
func NewResolver(cat Catalog) *Resolver {
	r := &Resolver{cat: cat, ttl: 150 * time.Millisecond, cache: make(map[string]cacheEntry)}
	if cc, ok := cat.(interface{ ReadCacheActive() bool }); ok && cc.ReadCacheActive() {
		r.ttl = 0
	}
	return r
}

// SetTTL adjusts the cache lifetime.
func (r *Resolver) SetTTL(d time.Duration) {
	r.mu.Lock()
	r.ttl = d
	r.mu.Unlock()
}

// Resolve implements comm.Resolver: it reads the destination's
// AttrCommAddr assertions and parses them into routes.
func (r *Resolver) Resolve(urn string) ([]comm.Route, error) {
	r.mu.Lock()
	ttl := r.ttl
	if e, ok := r.cache[urn]; ok && ttl > 0 && time.Now().Before(e.expires) {
		routes := e.routes
		r.mu.Unlock()
		return routes, nil
	}
	r.mu.Unlock()

	vals, err := r.cat.Values(urn, rcds.AttrCommAddr)
	if err != nil {
		return nil, fmt.Errorf("naming: resolving %s: %w", urn, err)
	}
	routes := make([]comm.Route, 0, len(vals))
	for _, v := range vals {
		route, err := comm.ParseRoute(v)
		if err != nil {
			continue // tolerate foreign address formats in open metadata
		}
		routes = append(routes, route)
	}
	if ttl > 0 {
		r.mu.Lock()
		r.cache[urn] = cacheEntry{routes: routes, expires: time.Now().Add(ttl)}
		r.mu.Unlock()
	}
	return routes, nil
}

// Invalidate drops a cached entry (after a known migration).
func (r *Resolver) Invalidate(urn string) {
	r.mu.Lock()
	delete(r.cache, urn)
	r.mu.Unlock()
}

// Register publishes an endpoint's routes as the URN's communication
// addresses, making the process globally visible (§5.5).
func Register(cat Catalog, urn string, routes []comm.Route) error {
	for _, route := range routes {
		if err := cat.Add(urn, rcds.AttrCommAddr, route.String()); err != nil {
			return fmt.Errorf("naming: registering %s: %w", urn, err)
		}
	}
	return nil
}

// WithdrawRoute removes a single communication address — the metadata
// half of taking one interface out of service while the others keep
// carrying traffic. Peers re-resolving the URN stop seeing the route;
// sends already striped across it requeue their outstanding fragments
// onto the surviving routes (see internal/comm's stripe layer).
func WithdrawRoute(cat Catalog, urn string, route comm.Route) error {
	if err := cat.Remove(urn, rcds.AttrCommAddr, route.String()); err != nil {
		return fmt.Errorf("naming: withdrawing %s from %s: %w", route, urn, err)
	}
	return nil
}

// Unregister withdraws all of a URN's communication addresses — done
// at the start of a migration so new traffic buffers until the new
// location is published.
func Unregister(cat Catalog, urn string) error {
	if err := cat.RemoveAll(urn, rcds.AttrCommAddr); err != nil {
		return fmt.Errorf("naming: unregistering %s: %w", urn, err)
	}
	return nil
}
