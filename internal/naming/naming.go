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
// Resolver reads them and lends the endpoint the catalog's change signal;
// Watch turns a Catalog's Subscribe into one callback.
package naming

import (
	"context"
	"fmt"
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
// satisfied by remote replicas via ClientCatalog and by in-process
// stores via StoreCatalog.
type Catalog interface {
	Values(uri, name string) ([]string, error)
	FirstValue(uri, name string) (string, bool, error)
	URIs(prefix string) ([]string, error)
	Add(uri, name, value string) error
	Remove(uri, name, value string) error
	RemoveAll(uri, name string) error
	Set(uri, name, value string) error
	// Subscribe registers ch for an event each time the records under
	// prefix may have changed, sent without blocking: one a full ch
	// cannot take is dropped. Unsubscribe cancels the registration.
	Subscribe(prefix string, ch chan rcds.Event) int
	Unsubscribe(id int)
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

// routeStamp is the store's version: every write changes it.
func (c storeCatalog) routeStamp(string) (uint64, bool) { return c.s.Version(), true }

// Subscribe is the wrapped store's push subscription.
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

// ClientCatalog wraps a remote RCDS client as a Catalog. Subscribe
// rides the client's one watch loop per replica group. The wrapper also
// forwards MetricsSnapshot (daemon status), which callers probe for by
// interface assertion.
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

// routeStamp is the read-cache epoch of the group owning uri, which
// every version advance the client's watch sees changes.
func (cc clientCatalog) routeStamp(uri string) (uint64, bool) { return cc.c.CacheEpoch(uri) }

// MetricsSnapshot forwards the client's metrics registry.
func (cc clientCatalog) MetricsSnapshot() stats.Snapshot { return cc.c.MetricsSnapshot() }

func (cc clientCatalog) Subscribe(prefix string, ch chan rcds.Event) int {
	return cc.c.Subscribe(prefix, ch)
}

func (cc clientCatalog) Unsubscribe(id int) { cc.c.Unsubscribe(id) }

// gatedCatalog wraps a Catalog behind a reachability gate: every read
// and write first consults gate and fails with its error while the gate
// is down. Combined with netsim's Fabric.Gate this models a network
// partition between a node and its RC replica — reads and heartbeat
// writes both stop, which is exactly how a partition looks from either
// side of it. Subscribe is the wrapped catalog's, ungated: a wake still
// comes, and the reads it starts are the ones the gate blocks.
type gatedCatalog struct {
	cat  Catalog
	gate func() error
}

// GatedCatalog wraps cat so that every read and write fails with gate's
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

func (g gatedCatalog) Subscribe(prefix string, ch chan rcds.Event) int {
	return g.cat.Subscribe(prefix, ch)
}

func (g gatedCatalog) Unsubscribe(id int) { g.cat.Unsubscribe(id) }

// Resolver resolves URNs to routes via RC metadata. It keeps no cache:
// the endpoint keeps one, and reuses a resolution while the stamp
// RouteStamp reads from the catalog holds (see DESIGN.md "Route
// cache"). Processes that do not notice a migration "will find its new
// location via the RC servers" (§5.6) on their first send after the
// catalog changes.
type Resolver struct {
	cat Catalog
}

// NewResolver builds a resolver over cat.
func NewResolver(cat Catalog) *Resolver { return &Resolver{cat: cat} }

// SetTTL does nothing. The resolver had a TTL cache; the endpoint's
// route cache now follows the catalog's change signal instead. It stays
// for the benchmark module's resolve rungs, which still call it.
func (r *Resolver) SetTTL(time.Duration) {}

// RouteStamp implements comm's optional route stamp from the catalog's
// change signal: an in-process store's version, or a remote client's
// read-cache epoch for the group owning urn. ok is false for a catalog
// with no such signal, or a client whose read cache is off or not yet
// confirmed by its watch.
func (r *Resolver) RouteStamp(urn string) (stamp uint64, ok bool) {
	if c, has := r.cat.(interface{ routeStamp(string) (uint64, bool) }); has {
		return c.routeStamp(urn)
	}
	return 0, false
}

// Resolve implements comm.Resolver: it reads the destination's
// AttrCommAddr assertions and parses them into routes.
func (r *Resolver) Resolve(urn string) ([]comm.Route, error) {
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
	return routes, nil
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
