// End-to-end failure scenarios across the real stack: daemons
// heartbeating into a shared catalog, a monitor watching it, and a
// resource manager placing around failures. External test package so
// the tests can use internal/rm and internal/daemon without an import
// cycle (both import liveness).
package liveness_test

import (
	"strings"
	"testing"
	"time"

	"snipe/internal/daemon"
	"snipe/internal/liveness"
	"snipe/internal/naming"
	"snipe/internal/netsim"
	"snipe/internal/rcds"
	"snipe/internal/rm"
	"snipe/internal/task"
)

const hbInterval = 20 * time.Millisecond

func quickMonitor(t *testing.T, cat naming.Catalog) *liveness.Monitor {
	t.Helper()
	mon := liveness.NewMonitor(cat, liveness.Options{
		CheckInterval: 5 * time.Millisecond,
		MinSuspect:    2 * hbInterval,
		MaxSuspect:    2 * time.Second,
	})
	t.Cleanup(mon.Close)
	return mon
}

func startDaemon(t *testing.T, host string, cat naming.Catalog, reg *task.Registry) *daemon.Daemon {
	t.Helper()
	return startDaemonGossip(t, host, cat, reg, daemon.GossipOptions{})
}

func startDaemonGossip(t *testing.T, host string, cat naming.Catalog, reg *task.Registry, g daemon.GossipOptions) *daemon.Daemon {
	t.Helper()
	d := daemon.New(daemon.Config{
		HostName: host, Catalog: cat, Registry: reg,
		HeartbeatInterval: hbInterval,
		Gossip:            g,
	})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func waitHostState(t *testing.T, mon *liveness.Monitor, host string, want liveness.State, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for mon.State(host) != want {
		if time.Now().After(deadline) {
			t.Fatalf("host %s state = %v, want %v", host, mon.State(host), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func idleRegistry() *task.Registry {
	reg := task.NewRegistry()
	reg.Register("idle", func(ctx *task.Context) error {
		<-ctx.Done()
		return task.ErrKilled
	})
	return reg
}

// TestCrashDetectionEndToEnd kills one of three daemons mid-flight and
// checks the whole response: the monitor declares the host dead within
// the adaptive bound, the resource manager stops placing work there,
// and the task stranded on the corpse is re-reported as failed.
func TestCrashDetectionEndToEnd(t *testing.T) {
	store := rcds.NewStore("e2e-crash")
	cat := naming.StoreCatalog(store)
	reg := idleRegistry()
	victim := startDaemon(t, "e1", cat, reg)
	startDaemon(t, "e2", cat, reg)
	startDaemon(t, "e3", cat, reg)

	mon := quickMonitor(t, cat)
	mgr, err := rm.NewManager("e2e-rm", cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	mgr.UseLiveness(mon)

	// A task to strand on the victim.
	taskURN, err := victim.Spawn(task.Spec{Program: "idle"})
	if err != nil {
		t.Fatal(err)
	}

	// Let all three hosts build inter-arrival history.
	time.Sleep(10 * hbInterval)
	for _, h := range []string{"e1", "e2", "e3"} {
		if got := mon.State(naming.HostURL(h)); got != liveness.Alive {
			t.Fatalf("host %s not alive before injection: %v", h, got)
		}
	}

	victim.Kill() // crash: heartbeats stop, no tombstone, no metadata cleanup
	// With a steady 20ms cadence the adaptive bound sits near
	// 2.5 × 20ms = 50ms and death at twice that; allow 10× headroom for
	// scheduler noise before calling the detector broken.
	waitHostState(t, mon, victim.HostURL(), liveness.Dead, 25*hbInterval)

	// Placement must route around the corpse from the first query after
	// detection — and keep doing so.
	for i := 0; i < 10; i++ {
		host, _, err := mgr.SelectHost(task.Requirements{})
		if err != nil {
			t.Fatal(err)
		}
		if host == victim.HostURL() {
			t.Fatalf("SelectHost returned the dead host on query %d", i)
		}
	}

	// The stranded task is settled: state failed, addresses withdrawn.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st, _ := store.FirstValue(taskURN, rcds.AttrState); st == string(task.StateFailed) {
			break
		}
		if time.Now().After(deadline) {
			st, _ := store.FirstValue(taskURN, rcds.AttrState)
			t.Fatalf("stranded task state = %q, want failed", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if addrs := store.Values(taskURN, rcds.AttrCommAddr); len(addrs) != 0 {
		t.Fatalf("stranded task still registered: %v", addrs)
	}
}

// TestCleanShutdownIsNotAFailure closes a daemon properly and checks
// the tombstone path: the host transitions to Left without ever being
// suspected, and placement excludes it immediately.
func TestCleanShutdownIsNotAFailure(t *testing.T) {
	store := rcds.NewStore("e2e-clean")
	cat := naming.StoreCatalog(store)
	reg := idleRegistry()
	leaver := startDaemon(t, "c1", cat, reg)
	startDaemon(t, "c2", cat, reg)

	mon := quickMonitor(t, cat)
	events, _ := mon.Subscribe(0)
	mgr, err := rm.NewManager("clean-rm", cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	mgr.UseLiveness(mon)

	time.Sleep(10 * hbInterval)
	leaver.Close()
	waitHostState(t, mon, leaver.HostURL(), liveness.Left, 2*time.Second)

	// Linger past the death bound: no suspicion may surface for a host
	// that said goodbye.
	time.Sleep(10 * hbInterval)
	for done := false; !done; {
		select {
		case ev := <-events:
			if ev.To == liveness.Suspect || ev.To == liveness.Dead {
				t.Fatalf("clean shutdown produced %v for %s (%s)", ev.To, ev.Host, ev.Reason)
			}
		default:
			done = true
		}
	}
	host, _, err := mgr.SelectHost(task.Requirements{})
	if err != nil || host != naming.HostURL("c2") {
		t.Fatalf("placement after departure: %q %v", host, err)
	}
}

// fabricGossipGate adapts a fabric's pair gate to the daemon's gossip
// Gate hook, which is called with full host URLs while the fabric
// names nodes by bare host name.
func fabricGossipGate(fabric *netsim.Fabric) func(from, to string) error {
	gate := fabric.PairGate()
	return func(from, to string) error {
		return gate(strings.TrimPrefix(from, naming.HostPrefix),
			strings.TrimPrefix(to, naming.HostPrefix))
	}
}

// TestPartitionAndHeal fully isolates one daemon through a netsim
// fabric: its catalog access is gated AND its gossip traffic is
// severed, the two-tier equivalent of pulling the network cable. Only
// that combination may produce Dead — a host that still gossips is
// alive by definition, its peers' digests keep vouching for it no
// matter what the catalog sees. After healing, the victim refutes the
// group's suspicion and revives.
func TestPartitionAndHeal(t *testing.T) {
	store := rcds.NewStore("e2e-part")
	cat := naming.StoreCatalog(store)
	reg := idleRegistry()
	fabric := netsim.NewFabric()
	gossip := daemon.GossipOptions{Gate: fabricGossipGate(fabric)}

	gated := naming.GatedCatalog(cat, fabric.Gate("p1", "rc"))
	isolated := startDaemonGossip(t, "p1", gated, reg, gossip)
	startDaemonGossip(t, "p2", cat, reg, gossip)

	mon := quickMonitor(t, cat)
	time.Sleep(10 * hbInterval)
	if got := mon.State(isolated.HostURL()); got != liveness.Alive {
		t.Fatalf("before partition: %v", got)
	}

	// Isolate severs every pair involving p1: the p1–rc catalog gate
	// and the p1–p2 gossip path go down together.
	fabric.Isolate("p1")
	waitHostState(t, mon, isolated.HostURL(), liveness.Dead, 25*hbInterval)
	// The unpartitioned host is untouched.
	if got := mon.State(naming.HostURL("p2")); got != liveness.Alive {
		t.Fatalf("bystander state: %v", got)
	}

	fabric.Rejoin("p1")
	// The daemon never stopped running; once gossip flows again it
	// refutes the suspicion with a bumped incarnation and the digests
	// revive the host.
	waitHostState(t, mon, isolated.HostURL(), liveness.Alive, 2*time.Second)
}
