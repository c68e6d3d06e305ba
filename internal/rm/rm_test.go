package rm

import (
	"errors"
	"strings"
	"testing"
	"time"

	"snipe/internal/comm"
	"snipe/internal/daemon"
	"snipe/internal/liveness"
	"snipe/internal/naming"
	"snipe/internal/rcds"
	"snipe/internal/task"
	"snipe/internal/testutil"
)

type world struct {
	t     *testing.T
	store *rcds.Store
	cat   naming.Catalog
	reg   *task.Registry
}

func newWorld(t *testing.T) *world {
	s := rcds.NewStore("rm-test")
	reg := task.NewRegistry()
	reg.Register("idle", func(ctx *task.Context) error {
		<-ctx.Done()
		return task.ErrKilled
	})
	reg.Register("quick", func(ctx *task.Context) error { return nil })
	return &world{t: t, store: s, cat: naming.StoreCatalog(s), reg: reg}
}

func (w *world) daemon(host, arch string, memMB, cpus int) *daemon.Daemon {
	w.t.Helper()
	d := daemon.New(daemon.Config{
		HostName: host, Arch: arch, CPUs: cpus, MemoryMB: memMB,
		Catalog: w.cat, Registry: w.reg,
	})
	if err := d.Start(); err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(d.Close)
	return d
}

func (w *world) manager(name string) *Manager {
	w.t.Helper()
	m, err := NewManager(name, w.cat, nil)
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(m.Close)
	return m
}

func (w *world) client(urn string) *Client {
	w.t.Helper()
	ep := comm.NewEndpoint(urn, comm.WithResolver(naming.NewResolver(w.cat)))
	route, err := ep.Listen(comm.ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
	if err != nil {
		w.t.Fatal(err)
	}
	naming.Register(w.cat, urn, []comm.Route{route})
	w.t.Cleanup(ep.Close)
	return NewClient(w.cat, ep)
}

func TestSelectHostFiltersAndRanks(t *testing.T) {
	w := newWorld(t)
	w.daemon("big", "go-sim", 4096, 8)
	w.daemon("small", "go-sim", 128, 1)
	w.daemon("sparc", "sparc-solaris", 2048, 4)
	m := w.manager("rm1")

	// Memory filter.
	host, _, err := m.SelectHost(task.Requirements{MinMemoryMB: 1024, Arch: "go-sim"})
	if err != nil || host != naming.HostURL("big") {
		t.Fatalf("memory filter: %q %v", host, err)
	}
	// Arch filter.
	host, _, err = m.SelectHost(task.Requirements{Arch: "sparc-solaris"})
	if err != nil || host != naming.HostURL("sparc") {
		t.Fatalf("arch filter: %q %v", host, err)
	}
	// Pinned host.
	host, _, err = m.SelectHost(task.Requirements{Host: naming.HostURL("small")})
	if err != nil || host != naming.HostURL("small") {
		t.Fatalf("pin: %q %v", host, err)
	}
	// Impossible request.
	if _, _, err := m.SelectHost(task.Requirements{Arch: "vax"}); !errors.Is(err, ErrNoHosts) {
		t.Fatalf("want ErrNoHosts, got %v", err)
	}
}

func TestSelectHostLoadBalancing(t *testing.T) {
	w := newWorld(t)
	d1 := w.daemon("h1", "go-sim", 512, 1)
	w.daemon("h2", "go-sim", 512, 1)
	m := w.manager("rm1")

	// Load h1 with running tasks and let its daemon publish the load.
	for i := 0; i < 3; i++ {
		if _, err := d1.Spawn(task.Spec{Program: "idle"}); err != nil {
			t.Fatal(err)
		}
	}
	testutil.WaitFor(t, 3*time.Second, func() bool {
		load, ok := liveness.HostLoad(w.cat, naming.HostURL("h1"))
		return ok && load == 3.0
	}, "load not published")
	host, _, err := m.SelectHost(task.Requirements{})
	if err != nil || host != naming.HostURL("h2") {
		t.Fatalf("load balancing: %q %v", host, err)
	}
}

func TestReservationsSteerPlacement(t *testing.T) {
	w := newWorld(t)
	w.daemon("h1", "go-sim", 512, 1)
	w.daemon("h2", "go-sim", 512, 1)
	m := w.manager("rm1")

	// Reserve two slots on h1 (by name order it would win ties).
	m.Reserve(naming.HostURL("h1"))
	m.Reserve(naming.HostURL("h1"))
	if m.Reserved(naming.HostURL("h1")) != 2 {
		t.Fatal("reservation count")
	}
	host, _, err := m.SelectHost(task.Requirements{})
	if err != nil || host != naming.HostURL("h2") {
		t.Fatalf("reservations ignored: %q %v", host, err)
	}
	m.Release(naming.HostURL("h1"))
	m.Release(naming.HostURL("h1"))
	m.Release(naming.HostURL("h1")) // over-release is safe
	if m.Reserved(naming.HostURL("h1")) != 0 {
		t.Fatal("release")
	}
}

func TestManagerAllocateSpawns(t *testing.T) {
	w := newWorld(t)
	d := w.daemon("h1", "go-sim", 512, 2)
	m := w.manager("rm1")
	urn, err := m.Allocate(task.Spec{Program: "idle"})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := d.TaskState(urn); err != nil || st != task.StateRunning {
		t.Fatalf("allocated task: %v %v", st, err)
	}
	if err := m.SignalTask(urn, task.SigKill); err != nil {
		t.Fatal(err)
	}
	if st, _ := d.WaitTask(urn, 5*time.Second); st != task.StateExited {
		t.Fatalf("after RM kill: %v", st)
	}
}

func TestClientAllocateViaService(t *testing.T) {
	w := newWorld(t)
	w.daemon("h1", "go-sim", 512, 2)
	w.manager("rm1")
	c := w.client("urn:rmclient")
	urn, err := c.Allocate(task.Spec{Program: "quick"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(urn, "quick") {
		t.Fatalf("urn = %q", urn)
	}
	host, err := c.SelectHost(task.Requirements{})
	if err != nil || host != naming.HostURL("h1") {
		t.Fatalf("SelectHost: %q %v", host, err)
	}
	if err := c.Reserve(naming.HostURL("h1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(naming.HostURL("h1")); err != nil {
		t.Fatal(err)
	}
}

func TestClientFailoverBetweenManagers(t *testing.T) {
	w := newWorld(t)
	w.daemon("h1", "go-sim", 512, 2)
	m1 := w.manager("rm1")
	w.manager("rm2")
	c := w.client("urn:rmclient")
	c.SetTimeout(time.Second)

	// Kill rm1; allocations must still succeed via rm2. Closing the
	// manager also removes its service registration, but we simulate a
	// crash (no deregistration) to exercise timeout failover too.
	m1.Close()
	urn, err := c.Allocate(task.Spec{Program: "quick"})
	if err != nil {
		t.Fatalf("failover allocate: %v", err)
	}
	if urn == "" {
		t.Fatal("empty urn")
	}
}

func TestClientCrashedManagerTimeoutFailover(t *testing.T) {
	w := newWorld(t)
	w.daemon("h1", "go-sim", 512, 2)
	// A phantom RM registration pointing nowhere (simulated crash that
	// never deregistered), plus one live RM.
	w.cat.Add(naming.ServiceURN(ServiceName), rcds.AttrLocation, "urn:snipe:process:ghost:rm")
	w.manager("rm2")
	c := w.client("urn:rmclient")
	c.SetTimeout(500 * time.Millisecond)
	urn, err := c.Allocate(task.Spec{Program: "quick"})
	if err != nil {
		t.Fatalf("timeout failover: %v", err)
	}
	_ = urn
}

func TestClientNoManagers(t *testing.T) {
	w := newWorld(t)
	c := w.client("urn:rmclient")
	if _, err := c.Allocate(task.Spec{Program: "quick"}); !errors.Is(err, ErrNoManagers) {
		t.Fatalf("want ErrNoManagers, got %v", err)
	}
}

func TestClientPropagatesRealErrors(t *testing.T) {
	w := newWorld(t)
	w.daemon("h1", "go-sim", 512, 2)
	w.manager("rm1")
	c := w.client("urn:rmclient")
	// No host has this arch: the RM answers with ErrNoHosts, which must
	// not be masked as ErrNoManagers.
	_, err := c.Allocate(task.Spec{Program: "quick", Req: task.Requirements{Arch: "cray"}})
	if err == nil || !strings.Contains(err.Error(), "no host satisfies") {
		t.Fatalf("got %v", err)
	}
}

func TestManagerCloseDeregisters(t *testing.T) {
	w := newWorld(t)
	m := w.manager("rm1")
	svc := naming.ServiceURN(ServiceName)
	if locs := w.store.Values(svc, rcds.AttrLocation); len(locs) != 1 {
		t.Fatalf("registered: %v", locs)
	}
	m.Close()
	if locs := w.store.Values(svc, rcds.AttrLocation); len(locs) != 0 {
		t.Fatalf("after close: %v", locs)
	}
	m.Close() // idempotent
}

// flakyCatalog wraps a Catalog and fails reads on command — the
// "catalog unreachable" case that hosts() used to swallow silently,
// conflating it with "not a host record" and answering placement
// queries from a truncated inventory.
type flakyCatalog struct {
	naming.Catalog
	failing bool
}

func (f *flakyCatalog) FirstValue(uri, name string) (string, bool, error) {
	if f.failing {
		return "", false, errors.New("replica unreachable")
	}
	return f.Catalog.FirstValue(uri, name)
}

func TestSelectHostPropagatesCatalogErrors(t *testing.T) {
	w := newWorld(t)
	w.daemon("h1", "go-sim", 512, 1)
	fc := &flakyCatalog{Catalog: w.cat}
	m, err := NewManager("rm-flaky", fc, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	if _, _, err := m.SelectHost(task.Requirements{}); err != nil {
		t.Fatalf("healthy catalog: %v", err)
	}
	fc.failing = true
	_, _, err = m.SelectHost(task.Requirements{})
	if err == nil {
		t.Fatal("catalog failure swallowed: SelectHost answered from a truncated inventory")
	}
	if errors.Is(err, ErrNoHosts) {
		t.Fatalf("catalog failure misreported as ErrNoHosts: %v", err)
	}
	if !strings.Contains(err.Error(), "replica unreachable") {
		t.Fatalf("cause lost: %v", err)
	}
}

func TestSelectHostFiltersUnplaceableHosts(t *testing.T) {
	w := newWorld(t)
	w.daemon("h1", "go-sim", 512, 1)
	w.daemon("h2", "go-sim", 512, 1)
	m := w.manager("rm1")

	mon := liveness.NewMonitor(w.cat, liveness.Options{
		CheckInterval: time.Hour, // manual transitions only
		MinSuspect:    time.Hour,
		MaxSuspect:    2 * time.Hour,
	})
	t.Cleanup(mon.Close)
	m.UseLiveness(mon)

	// By name order h1 wins ties; suspecting it must flip placement.
	mon.MarkSuspect(naming.HostURL("h1"), "test")
	host, _, err := m.SelectHost(task.Requirements{})
	if err != nil || host != naming.HostURL("h2") {
		t.Fatalf("suspect host not filtered: %q %v", host, err)
	}
	// Even an explicit pin refuses a suspect host.
	if _, _, err := m.SelectHost(task.Requirements{Host: naming.HostURL("h1")}); !errors.Is(err, ErrNoHosts) {
		t.Fatalf("pinned suspect host: %v", err)
	}
	// With both hosts unplaceable placement fails outright.
	mon.MarkSuspect(naming.HostURL("h2"), "test")
	if _, _, err := m.SelectHost(task.Requirements{}); !errors.Is(err, ErrNoHosts) {
		t.Fatalf("want ErrNoHosts with all hosts suspect, got %v", err)
	}
}

// TestCloseDropsLivenessSubscription: a closed manager leaves nothing
// registered on a monitor that outlives it, so transitions after the
// close fill no abandoned channel and count no dropped events.
func TestCloseDropsLivenessSubscription(t *testing.T) {
	w := newWorld(t)
	m := w.manager("rm-sub")
	mon := liveness.NewMonitor(w.cat, liveness.Options{
		CheckInterval: time.Hour, // manual transitions only
		MinSuspect:    time.Hour,
		MaxSuspect:    2 * time.Hour,
	})
	t.Cleanup(mon.Close)
	m.UseLiveness(mon)
	m.Close()

	host := naming.HostURL("flapper")
	for i := 0; i < 100; i++ {
		mon.MarkSuspect(host, "test")
		mon.ReportSuccess(host)
	}
	c := mon.MetricsSnapshot().Counters
	if got := c["transitions_suspect"] + c["transitions_alive"]; got != 200 {
		t.Fatalf("drove %d transitions, want 200", got)
	}
	if got := c["liveness_events_dropped"]; got != 0 {
		t.Fatalf("liveness_events_dropped = %d after the manager closed, want 0", got)
	}
}
