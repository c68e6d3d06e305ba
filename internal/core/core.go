// Package core assembles the SNIPE system (paper §3): replicated
// RC/metadata servers, per-host daemons, redundant resource managers,
// file servers, multicast routers, playgrounds and consoles, plus the
// client library through which applications use them.
//
// A Universe is an in-process SNIPE deployment: every component is
// real (real sockets, real replication, real daemons) but runs inside
// one OS process on virtual hosts — the DESIGN.md substitution for the
// paper's campus testbed. The cmd/ binaries run the same components
// standalone across OS processes.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"snipe/internal/comm"
	"snipe/internal/daemon"
	"snipe/internal/fileserv"
	"snipe/internal/mcast"
	"snipe/internal/naming"
	"snipe/internal/playground"
	"snipe/internal/rcds"
	"snipe/internal/rm"
	"snipe/internal/seckey"
	"snipe/internal/task"
)

// HostConfig describes one virtual host.
type HostConfig struct {
	Name     string
	Arch     string
	CPUs     int
	MemoryMB int
	Listens  []daemon.ListenSpec
}

// Config describes a universe.
type Config struct {
	// RCServers is the number of replicated RC/metadata servers per
	// replica group. 0 means in-process catalog (no TCP RC servers):
	// fastest, used by unit tests; >= 1 starts real master–master
	// replicas.
	RCServers int
	// RCShardGroups partitions the catalog URI namespace across this
	// many replica groups of RCServers replicas each, under a
	// consistent-hash shard map published in the catalog's config
	// namespace (DESIGN.md "Sharded catalog"). 0 or 1 keeps the single
	// fully replicated group. Requires RCServers >= 1.
	RCShardGroups int
	// Secret enables HMAC authentication on the RC protocol.
	Secret []byte
	// Hosts to bring up, each with a SNIPE daemon.
	Hosts []HostConfig
	// ResourceManagers is the number of redundant RMs (default 1 if
	// any hosts are configured).
	ResourceManagers int
	// FileServers is the number of file servers.
	FileServers int
	// McastRedundancy is the target number of multicast routers per
	// group; one router is created per host and self-elects per group
	// up to this redundancy. 0 disables router creation.
	McastRedundancy int
	// Registry holds the programs tasks can run; a fresh registry is
	// created if nil. The playground program is installed automatically
	// when Trust is set.
	Registry *task.Registry
	// Trust, if non-nil, enables playgrounds with this trust store.
	Trust *seckey.TrustStore
	// PlaygroundQuota overrides the default sandbox quota.
	PlaygroundQuota playground.Quota
	// ReplicationPolicy configures the file replication daemon; zero
	// value disables it.
	ReplicationPolicy fileserv.ReplicationPolicy
}

// Universe is a running SNIPE deployment.
type Universe struct {
	cfg      Config
	store    *rcds.Store // in-process mode
	servers  []*rcds.Server
	groups   [][]*rcds.Server // servers by shard group (one group unsharded)
	shardMap *rcds.ShardMap   // nil when unsharded
	catalog  naming.Catalog
	registry *task.Registry

	daemons     map[string]*daemon.Daemon
	rms         []*rm.Manager
	fileServers []*fileserv.Server
	routers     map[string]*mcast.Router
	pg          *playground.Playground
	replicator  *fileserv.Replicator
	repEP       *comm.Endpoint

	mu      sync.Mutex
	clients []*Client
	closed  bool
}

// ErrClosed indicates operations on a closed universe.
var ErrClosed = errors.New("core: universe closed")

// New bootstraps a universe.
func New(cfg Config) (*Universe, error) {
	u := &Universe{
		cfg:      cfg,
		registry: cfg.Registry,
		daemons:  make(map[string]*daemon.Daemon),
		routers:  make(map[string]*mcast.Router),
	}
	if u.registry == nil {
		u.registry = task.NewRegistry()
	}

	// Metadata layer.
	if cfg.RCServers <= 0 {
		u.store = rcds.NewStore("rc-local")
		u.catalog = naming.StoreCatalog(u.store)
	} else {
		nGroups := cfg.RCShardGroups
		if nGroups < 1 {
			nGroups = 1
		}
		u.groups = make([][]*rcds.Server, nGroups)
		for g := 0; g < nGroups; g++ {
			for i := 0; i < cfg.RCServers; i++ {
				s := rcds.NewServer(rcds.NewStore(fmt.Sprintf("rc%d-%d", g, i)),
					rcds.WithSecret(cfg.Secret),
					rcds.WithAntiEntropyInterval(100*time.Millisecond))
				if err := s.Start("127.0.0.1:0"); err != nil {
					u.Close()
					return nil, err
				}
				u.groups[g] = append(u.groups[g], s)
				u.servers = append(u.servers, s)
			}
			// Replication is per group: peers mesh within the group only,
			// so write fan-out stays constant as groups are added.
			for i, s := range u.groups[g] {
				var peers []string
				for j, p := range u.groups[g] {
					if i != j {
						peers = append(peers, p.Addr())
					}
				}
				s.SetPeers(peers...)
			}
		}
		if nGroups > 1 {
			m := &rcds.ShardMap{Epoch: 1}
			for _, srvs := range u.groups {
				addrs := make([]string, len(srvs))
				for i, s := range srvs {
					addrs[i] = s.Addr()
				}
				m.Groups = append(m.Groups, addrs)
			}
			// Enforce ownership and seed the map into every replica's
			// config namespace directly, so the very first client
			// resolution succeeds against any replica (the concurrent
			// same-value writes converge under LWW).
			for g, srvs := range u.groups {
				for _, s := range srvs {
					s.SetShard(g, m)
					s.Store().Set(rcds.ShardMapURI, rcds.AttrShardMap, m.Format())
				}
			}
			u.shardMap = m
		}
		// The universe's shared catalog client caches reads, invalidated
		// by the RC servers' Wait sequence numbers: every resolver in
		// the universe rides one coherent cache instead of polling. Under
		// sharding it routes each URI to its owning group, with a cache
		// and watch per group.
		seed := make([]string, len(u.groups[0]))
		for i, s := range u.groups[0] {
			seed[i] = s.Addr()
		}
		client := rcds.NewClient(seed, cfg.Secret, rcds.WithReadCache())
		u.catalog = naming.ClientCatalog(client)
	}

	// Playground.
	if cfg.Trust != nil {
		u.pg = playground.New(u.catalog, cfg.Trust, nil, cfg.PlaygroundQuota)
		u.pg.Register(u.registry)
	}

	// Hosts and daemons.
	for _, hc := range cfg.Hosts {
		if hc.Arch == "" {
			hc.Arch = "go-sim"
		}
		d := daemon.New(daemon.Config{
			HostName: hc.Name,
			Arch:     hc.Arch,
			CPUs:     hc.CPUs,
			MemoryMB: hc.MemoryMB,
			Catalog:  u.catalog,
			Registry: u.registry,
			Listens:  hc.Listens,
		})
		if err := d.Start(); err != nil {
			u.Close()
			return nil, err
		}
		u.daemons[hc.Name] = d

		if cfg.McastRedundancy > 0 {
			r, err := mcast.NewRouter(hc.Name, u.catalog, nil)
			if err != nil {
				u.Close()
				return nil, err
			}
			u.routers[hc.Name] = r
		}
	}

	// Resource managers.
	nRM := cfg.ResourceManagers
	if nRM == 0 && len(cfg.Hosts) > 0 {
		nRM = 1
	}
	for i := 0; i < nRM; i++ {
		m, err := rm.NewManager(fmt.Sprintf("rm%d", i), u.catalog, nil)
		if err != nil {
			u.Close()
			return nil, err
		}
		u.rms = append(u.rms, m)
	}

	// File servers.
	for i := 0; i < cfg.FileServers; i++ {
		fs, err := fileserv.NewServer(fmt.Sprintf("fs%d", i), u.catalog, nil)
		if err != nil {
			u.Close()
			return nil, err
		}
		u.fileServers = append(u.fileServers, fs)
	}
	if cfg.ReplicationPolicy.MinReplicas > 0 && cfg.FileServers >= 2 {
		u.repEP = comm.NewEndpoint(naming.ProcessURN("core", "replicator"),
			comm.WithResolver(naming.NewResolver(u.catalog)))
		route, err := u.repEP.Listen(comm.ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
		if err != nil {
			u.Close()
			return nil, err
		}
		naming.Register(u.catalog, u.repEP.URN(), []comm.Route{route})
		u.replicator = fileserv.NewReplicator(
			fileserv.NewClient(u.catalog, u.repEP), cfg.ReplicationPolicy)
		u.replicator.Start()
	}
	return u, nil
}

// Catalog exposes the metadata layer.
func (u *Universe) Catalog() naming.Catalog { return u.catalog }

// Registry exposes the shared program registry.
func (u *Universe) Registry() *task.Registry { return u.registry }

// Daemon returns a host's daemon.
func (u *Universe) Daemon(host string) (*daemon.Daemon, bool) {
	d, ok := u.daemons[host]
	return d, ok
}

// Daemons returns all host daemons keyed by host name.
func (u *Universe) Daemons() map[string]*daemon.Daemon { return u.daemons }

// RMs returns the resource managers.
func (u *Universe) RMs() []*rm.Manager { return u.rms }

// FileServers returns the file servers.
func (u *Universe) FileServers() []*fileserv.Server { return u.fileServers }

// Router returns a host's multicast router.
func (u *Universe) Router(host string) (*mcast.Router, bool) {
	r, ok := u.routers[host]
	return r, ok
}

// Playground returns the universe's playground, if configured.
func (u *Universe) Playground() *playground.Playground { return u.pg }

// RCServers returns the RC server replicas (nil in in-process mode),
// group-major when sharded.
func (u *Universe) RCServers() []*rcds.Server { return u.servers }

// RCGroups returns the RC server replicas by shard group: one inner
// slice per group, a single group when the catalog is unsharded.
func (u *Universe) RCGroups() [][]*rcds.Server { return u.groups }

// ShardMap returns the published catalog shard map, nil when the
// catalog is unsharded.
func (u *Universe) ShardMap() *rcds.ShardMap { return u.shardMap }

// RCServerAddrs returns the replica addresses.
func (u *Universe) RCServerAddrs() []string {
	addrs := make([]string, len(u.servers))
	for i, s := range u.servers {
		addrs[i] = s.Addr()
	}
	return addrs
}

// CreateGroup establishes a multicast group with router self-election
// across the universe's hosts, up to the configured redundancy.
func (u *Universe) CreateGroup(name string) (string, error) {
	group := naming.GroupURN(name)
	if u.cfg.McastRedundancy <= 0 {
		return group, fmt.Errorf("core: universe has no multicast routers")
	}
	elected := 0
	for _, r := range u.routers {
		ok, err := r.MaybeServe(group, u.cfg.McastRedundancy)
		if err != nil {
			return group, err
		}
		if ok {
			elected++
		}
	}
	if elected == 0 {
		return group, fmt.Errorf("core: no router elected for %s", group)
	}
	return group, nil
}

// Close shuts the universe down: clients, daemons, services, then the
// metadata layer.
func (u *Universe) Close() {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return
	}
	u.closed = true
	clients := u.clients
	u.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
	if u.replicator != nil {
		u.replicator.Stop()
	}
	if u.repEP != nil {
		u.repEP.Close()
	}
	for _, d := range u.daemons {
		d.Close()
	}
	for _, r := range u.routers {
		r.Close()
	}
	for _, m := range u.rms {
		m.Close()
	}
	for _, fs := range u.fileServers {
		fs.Close()
	}
	if cc, ok := u.catalog.(interface{ Client() *rcds.Client }); ok {
		cc.Client().Close()
	}
	for _, s := range u.servers {
		s.Close()
	}
}
