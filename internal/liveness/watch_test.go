package liveness

import (
	"fmt"
	"testing"
	"time"

	"snipe/internal/naming"
	"snipe/internal/netsim"
	"snipe/internal/rcds"
	"snipe/internal/testutil"
)

// TestMonitorKeepsEvidenceItCouldNotTakeAtOnce: a burst of writes that
// lands while the monitor cannot take it — here its lock is held — is
// not lost. The store drops the notifications a full channel cannot
// hold, so evidence must come from re-reading the catalog, not from the
// notifications themselves.
func TestMonitorKeepsEvidenceItCouldNotTakeAtOnce(t *testing.T) {
	store := rcds.NewStore("burst")
	cat := naming.StoreCatalog(store)
	mon := NewMonitor(cat, slowOptions())
	t.Cleanup(mon.Close)

	const n = 400
	hosts := make([]string, n)
	for i := range hosts {
		hosts[i] = naming.HostURL(fmt.Sprintf("b%03d", i))
	}
	mon.mu.Lock()
	for _, h := range hosts {
		cat.Set(h, rcds.AttrHeartbeat, Heartbeat{Seq: 1, Time: time.Now().UnixNano()}.String())
	}
	cat.Set(hosts[0], rcds.AttrHeartbeat, Heartbeat{Seq: 2, Time: time.Now().UnixNano(), Down: true}.String())
	mon.mu.Unlock()

	known := func() int {
		mon.mu.Lock()
		defer mon.mu.Unlock()
		return len(mon.hosts)
	}
	deadline := time.Now().Add(5 * time.Second)
	for known() < n || mon.State(hosts[0]) != Left {
		if time.Now().After(deadline) {
			t.Fatalf("monitor knows %d of %d hosts; the tombstoned one is %v, want %v",
				known(), n, mon.State(hosts[0]), Left)
		}
		time.Sleep(time.Millisecond)
	}
	for _, h := range hosts[1:] {
		if got := mon.State(h); got != Alive {
			t.Fatalf("%s is %v, want %v", h, got, Alive)
		}
	}
}

// faceOptions bound suspicion well above the 10 ms between the scenario's
// beats and the scheduling noise of the wakes that carry them, so a
// steadily beating host stays Alive over every catalog.
func faceOptions() Options {
	return Options{
		CheckInterval: 2 * time.Millisecond,
		MinSuspect:    300 * time.Millisecond,
		MaxSuspect:    time.Second,
	}
}

// runFaceScenario drives one host, writing its heartbeats straight into
// store, through every transition a monitor reading that store through
// some other face must report: beats make it Alive, silence Dead, a cut
// between monitor and catalog Suspect though the host keeps beating,
// the first beat after heal Alive again, and a tombstone Left.
func runFaceScenario(t *testing.T, store *rcds.Store, mon *Monitor, cut, heal func()) {
	t.Helper()
	host := naming.HostURL("face")
	var seq uint64
	beat := func(down bool) {
		seq++
		store.Set(host, rcds.AttrHeartbeat, Heartbeat{Seq: seq, Time: time.Now().UnixNano(), Down: down}.String())
	}
	beats := func(k int) {
		for i := 0; i < k; i++ {
			beat(false)
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitState := func(want State, why string) {
		t.Helper()
		testutil.WaitFor(t, 10*time.Second, func() bool { return mon.State(host) == want }, why)
	}

	beats(10)
	waitState(Alive, "beats did not make the host alive")
	waitState(Dead, "silence did not make the host dead")
	beats(10)
	waitState(Alive, "beats did not revive the host")

	cut()
	deadline := time.Now().Add(10 * time.Second)
	for mon.State(host) != Suspect {
		if time.Now().After(deadline) {
			t.Fatalf("a monitor cut off from the catalog left the host %v, want %v", mon.State(host), Suspect)
		}
		beats(1)
	}
	heal()
	beat(false)
	waitState(Alive, "the first beat after the cut healed did not revive the host")

	beat(true)
	waitState(Left, "a tombstone did not make the host left")
}

// TestMonitorOverLongPollFace: over a remote client the monitor rides
// the client's subscription, which its group's long-poll signals. The
// cut is the RC server going away; the heal is a new server over the
// same replica at the same address.
func TestMonitorOverLongPollFace(t *testing.T) {
	store := rcds.NewStore("face-longpoll")
	srv := rcds.NewServer(store)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	t.Cleanup(func() { srv.Close() })
	c := rcds.NewClient([]string{addr}, nil)
	t.Cleanup(c.Close)
	mon := NewMonitor(naming.ClientCatalog(c), faceOptions())
	t.Cleanup(mon.Close)

	runFaceScenario(t, store, mon, srv.Close, func() {
		srv = rcds.NewServer(store)
		if err := srv.Start(addr); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMonitorOverTickFace: over a gated catalog the monitor rides the
// subscription the gate forwards, and the cut is a partition between
// monitor and catalog: wakes still come, and the reads they start fail.
func TestMonitorOverTickFace(t *testing.T) {
	store := rcds.NewStore("face-tick")
	fabric := netsim.NewFabric()
	mon := NewMonitor(naming.GatedCatalog(naming.StoreCatalog(store), fabric.Gate("mon", "rc")), faceOptions())
	t.Cleanup(mon.Close)

	runFaceScenario(t, store, mon, func() { fabric.Isolate("mon") }, func() { fabric.Rejoin("mon") })
}
