package gossip

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// mesh is an in-process transport connecting agents by host name.
// Every send round-trips through the wire codec, so agent tests also
// exercise Encode/Decode, and severed (from, to) directions model
// asymmetric partitions.
type mesh struct {
	mu      sync.Mutex
	agents  map[string]*Agent
	severed map[[2]string]bool
}

func newMesh() *mesh {
	return &mesh{agents: make(map[string]*Agent), severed: make(map[[2]string]bool)}
}

func (m *mesh) register(host string, a *Agent) {
	m.mu.Lock()
	m.agents[host] = a
	m.mu.Unlock()
}

func (m *mesh) sever(from, to string) {
	m.mu.Lock()
	m.severed[[2]string{from, to}] = true
	m.mu.Unlock()
}

func (m *mesh) severBoth(a, b string) {
	m.sever(a, b)
	m.sever(b, a)
}

func (m *mesh) transport(from string) Transport {
	return TransportFunc(func(to string, msg *Message) error {
		m.mu.Lock()
		cut := m.severed[[2]string{from, to}]
		ag := m.agents[to]
		m.mu.Unlock()
		if cut {
			return errors.New("mesh: severed")
		}
		if ag == nil {
			return errors.New("mesh: unknown peer")
		}
		dm, err := DecodeMessage(msg.Encode())
		if err != nil {
			return err
		}
		ag.Deliver(&dm)
		return nil
	})
}

// digestLog captures one agent's digest writes and injects failures.
type digestLog struct {
	mu  sync.Mutex
	ds  []*Digest
	err error
}

func (l *digestLog) write(d *Digest) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	l.ds = append(l.ds, d)
	return nil
}

func (l *digestLog) setErr(err error) {
	l.mu.Lock()
	l.err = err
	l.mu.Unlock()
}

func (l *digestLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ds)
}

func (l *digestLog) last() *Digest {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ds) == 0 {
		return nil
	}
	return l.ds[len(l.ds)-1]
}

func (l *digestLog) all() []*Digest {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*Digest(nil), l.ds...)
}

const testProbe = 20 * time.Millisecond

// spawnGroup builds and starts one agent per host on the mesh. The
// timeouts are generous relative to the synchronous in-process
// delivery so a loaded CI scheduler cannot manufacture false suspects.
func spawnGroup(t *testing.T, m *mesh, hosts []string, mut func(host string, cfg *Config)) map[string]*Agent {
	t.Helper()
	agents := make(map[string]*Agent, len(hosts))
	for _, h := range hosts {
		cfg := Config{
			Self:           h,
			Transport:      m.transport(h),
			ProbeInterval:  testProbe,
			AckTimeout:     8 * time.Millisecond,
			ProbeTimeout:   50 * time.Millisecond,
			SuspectTimeout: 60 * time.Millisecond,
			DigestInterval: testProbe,
			Peers:          func() ([]string, error) { return hosts, nil },
		}
		if mut != nil {
			mut(h, &cfg)
		}
		ag, err := NewAgent(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.register(h, ag)
		agents[h] = ag
	}
	for _, ag := range agents {
		if err := ag.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, ag := range agents {
			ag.Stop()
		}
	})
	return agents
}

func waitFor(t *testing.T, d time.Duration, desc string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", desc)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// view returns ag's current claim about host, if any.
func view(ag *Agent, host string) (Update, bool) {
	for _, u := range ag.Members() {
		if u.Host == host {
			return u, true
		}
	}
	return Update{}, false
}

func sees(ag *Agent, host string, state uint8) bool {
	u, ok := view(ag, host)
	return ok && u.State == state
}

// seesLive reports whether ag holds a GENUINE alive claim for host:
// peer-listing placeholders sit at incarnation 0 and count as alive,
// so warmup waits must insist on a gossiped claim (incarnation >= 1)
// before injecting faults — otherwise the fault lands before any
// gossip has flowed and the test exercises nothing.
func seesLive(ag *Agent, host string) bool {
	u, ok := view(ag, host)
	return ok && u.State == StateAlive && u.Inc >= 1
}

func TestNewAgentValidates(t *testing.T) {
	tr := TransportFunc(func(string, *Message) error { return nil })
	if _, err := NewAgent(Config{Transport: tr}); err == nil {
		t.Error("empty self accepted")
	}
	if _, err := NewAgent(Config{Self: "has space", Transport: tr}); err == nil {
		t.Error("space in self accepted")
	}
	if _, err := NewAgent(Config{Self: "snipe://hosts/a"}); err == nil {
		t.Error("missing transport accepted")
	}
}

func TestGroupConvergesAliveWithoutFalseSuspects(t *testing.T) {
	m := newMesh()
	hosts := []string{"snipe://hosts/a", "snipe://hosts/b", "snipe://hosts/c", "snipe://hosts/d", "snipe://hosts/e"}
	agents := spawnGroup(t, m, hosts, nil)
	waitFor(t, 5*time.Second, "full alive convergence", func() bool {
		for _, ag := range agents {
			n := 0
			for _, u := range ag.Members() {
				if u.State != StateAlive || u.Inc < 1 {
					return false
				}
				n++
			}
			if n != len(hosts) {
				return false
			}
		}
		return true
	})
	// Let several probe rounds pass in steady state: a healthy group
	// must produce zero suspicions.
	time.Sleep(5 * testProbe)
	for h, ag := range agents {
		if n := ag.Metrics().Counter("suspects").Value(); n != 0 {
			t.Errorf("%s raised %d false suspicion(s)", h, n)
		}
	}
}

func TestCrashDetection(t *testing.T) {
	m := newMesh()
	hosts := []string{"snipe://hosts/a", "snipe://hosts/b", "snipe://hosts/c"}
	agents := spawnGroup(t, m, hosts, nil)
	victim := "snipe://hosts/c"
	waitFor(t, 5*time.Second, "victim alive everywhere", func() bool {
		return seesLive(agents["snipe://hosts/a"], victim) &&
			seesLive(agents["snipe://hosts/b"], victim)
	})
	agents[victim].Stop() // crash: no goodbye
	waitFor(t, 5*time.Second, "victim declared dead", func() bool {
		return sees(agents["snipe://hosts/a"], victim, StateDead) &&
			sees(agents["snipe://hosts/b"], victim, StateDead)
	})
}

func TestCleanLeaveIsNotSuspected(t *testing.T) {
	m := newMesh()
	hosts := []string{"snipe://hosts/a", "snipe://hosts/b", "snipe://hosts/c"}
	agents := spawnGroup(t, m, hosts, nil)
	leaver := "snipe://hosts/c"
	waitFor(t, 5*time.Second, "leaver alive everywhere", func() bool {
		return seesLive(agents["snipe://hosts/a"], leaver) &&
			seesLive(agents["snipe://hosts/b"], leaver)
	})
	agents[leaver].Close()
	waitFor(t, 5*time.Second, "leaver marked left", func() bool {
		return sees(agents["snipe://hosts/a"], leaver, StateLeft) &&
			sees(agents["snipe://hosts/b"], leaver, StateLeft)
	})
	time.Sleep(5 * testProbe)
	for _, h := range hosts[:2] {
		if n := agents[h].Metrics().Counter("suspects").Value(); n != 0 {
			t.Errorf("%s suspected a cleanly departed member %d time(s)", h, n)
		}
	}
}

func TestRefutationOnFalseSuspicion(t *testing.T) {
	m := newMesh()
	a, b := "snipe://hosts/a", "snipe://hosts/b"
	agents := spawnGroup(t, m, []string{a, b}, nil)
	waitFor(t, 5*time.Second, "genuine alive claim", func() bool {
		return seesLive(agents[b], a)
	})
	u, _ := view(agents[b], a)
	// A third party spreads a false suspicion of a at its current
	// incarnation. b adopts it (suspicion beats alive at equal inc);
	// b's next exchange with a carries it; a refutes by bumping inc.
	agents[b].Deliver(&Message{Kind: kindPush, From: "snipe://hosts/zz", Updates: []Update{
		{Host: a, Inc: u.Inc, Seq: u.Seq + 1000, State: StateSuspect},
	}})
	waitFor(t, 5*time.Second, "refutation adopted", func() bool {
		v, ok := view(agents[b], a)
		return ok && v.State == StateAlive && v.Inc > u.Inc
	})
	if n := agents[a].Metrics().Counter("refutes").Value(); n == 0 {
		t.Error("refutes counter did not advance")
	}
}

func TestRebirthAfterDeadVerdict(t *testing.T) {
	m := newMesh()
	a, b := "snipe://hosts/a", "snipe://hosts/b"
	hosts := []string{a, b}
	agents := spawnGroup(t, m, hosts, nil)
	waitFor(t, 5*time.Second, "mutual genuine alive", func() bool {
		return seesLive(agents[a], b) && seesLive(agents[b], a)
	})
	agents[a].Stop()
	waitFor(t, 5*time.Second, "a declared dead", func() bool { return sees(agents[b], a, StateDead) })

	// The host restarts while the group still holds a dead verdict for
	// it. The reborn agent's boot-derived incarnation supersedes the
	// verdict outright (and refutation backstops a clock that didn't
	// advance); either way the group must re-accept it as alive.
	reborn, err := NewAgent(Config{
		Self: a, Transport: m.transport(a),
		ProbeInterval: testProbe, AckTimeout: 8 * time.Millisecond,
		ProbeTimeout: 50 * time.Millisecond, SuspectTimeout: 60 * time.Millisecond,
		Peers: func() ([]string, error) { return hosts, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	m.register(a, reborn)
	if err := reborn.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reborn.Stop)
	waitFor(t, 5*time.Second, "rebirth accepted", func() bool {
		v, ok := view(agents[b], a)
		return ok && v.State == StateAlive && v.Inc >= 2
	})
}

func TestRebornAgentSupersedesPreviousLife(t *testing.T) {
	// A reborn agent must start at an incarnation that outranks anything
	// its previous life could have gossiped, even when the old verdict
	// has been expunged everywhere (so refutation never triggers). The
	// boot-derived incarnation guarantees this without persistence.
	tr := TransportFunc(func(string, *Message) error { return nil })
	host := "snipe://hosts/phoenix"
	old, err := NewAgent(Config{Self: host, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	reborn, err := NewAgent(Config{Self: host, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	prev := old.Self()
	verdict := Update{Host: host, Inc: prev.Inc, Seq: prev.Seq + 1000, State: StateDead}
	if !reborn.Self().Supersedes(verdict) {
		t.Fatalf("reborn claim %+v does not supersede previous life's dead verdict %+v",
			reborn.Self(), verdict)
	}
}

func TestIndirectProbeBridgesAsymmetricLoss(t *testing.T) {
	m := newMesh()
	a, b, c := "snipe://hosts/a", "snipe://hosts/b", "snipe://hosts/c"
	agents := spawnGroup(t, m, []string{a, b, c}, nil)
	waitFor(t, 5*time.Second, "full alive", func() bool {
		return seesLive(agents[a], b) && seesLive(agents[b], a) &&
			seesLive(agents[a], c) && seesLive(agents[b], c) &&
			seesLive(agents[c], a) && seesLive(agents[c], b)
	})
	// a can no longer reach b directly (so a's pings to b are lost and
	// b's probes of a lose their acks), but both still reach c: every
	// probe across the broken edge must succeed via ping-req through c.
	m.sever(a, b)
	waitFor(t, 5*time.Second, "an indirect probe across the broken edge", func() bool {
		return agents[a].Metrics().Counter("ping_reqs").Value() > 0 ||
			agents[b].Metrics().Counter("ping_reqs").Value() > 0
	})
	time.Sleep(10 * testProbe)
	if !sees(agents[a], b, StateAlive) || !sees(agents[b], a, StateAlive) {
		t.Fatal("asymmetric loss produced a false verdict despite an indirect path")
	}
	for _, h := range []string{a, b} {
		if n := agents[h].Metrics().Counter("suspects").Value(); n != 0 {
			t.Errorf("%s suspected across a bridgeable edge %d time(s)", h, n)
		}
	}
}

func TestReporterElectionAndDigestContent(t *testing.T) {
	m := newMesh()
	hosts := []string{"snipe://hosts/a", "snipe://hosts/b", "snipe://hosts/c"}
	logs := map[string]*digestLog{}
	agents := spawnGroup(t, m, hosts, func(h string, cfg *Config) {
		l := &digestLog{}
		logs[h] = l
		cfg.Group = 7
		cfg.WriteDigest = l.write
	})
	waitFor(t, 5*time.Second, "full-membership digest from the lowest member", func() bool {
		d := logs["snipe://hosts/a"].last()
		return d != nil && len(d.Members) == len(hosts)
	})
	d := logs["snipe://hosts/a"].last()
	if d.Group != 7 || d.Reporter != "snipe://hosts/a" || !d.Quorum {
		t.Fatalf("digest header: %+v", d)
	}
	for _, u := range d.Members {
		if u.State != StateAlive {
			t.Fatalf("healthy group digest carries %s for %s", StateName(u.State), u.Host)
		}
	}
	for _, h := range hosts {
		if ag := agents[h]; ag.Reporter() != "snipe://hosts/a" {
			t.Fatalf("%s elects reporter %q", h, ag.Reporter())
		}
	}
	if logs["snipe://hosts/b"].count() != 0 || logs["snipe://hosts/c"].count() != 0 {
		t.Fatal("non-reporters wrote digests")
	}
}

func TestReporterFailoverOnDeath(t *testing.T) {
	m := newMesh()
	hosts := []string{"snipe://hosts/a", "snipe://hosts/b", "snipe://hosts/c"}
	logs := map[string]*digestLog{}
	agents := spawnGroup(t, m, hosts, func(h string, cfg *Config) {
		l := &digestLog{}
		logs[h] = l
		cfg.WriteDigest = l.write
	})
	waitFor(t, 5*time.Second, "initial reporter writing", func() bool {
		d := logs["snipe://hosts/a"].last()
		return d != nil && len(d.Members) == len(hosts)
	})
	// The reporter crashes mid-interval. The next-lowest survivor must
	// take over the digest and publish the death with quorum — and no
	// survivor may ever be reported suspect or dead along the way.
	agents["snipe://hosts/a"].Stop()
	waitFor(t, 5*time.Second, "successor digest carries the verdict", func() bool {
		d := logs["snipe://hosts/b"].last()
		if d == nil || !d.Quorum {
			return false
		}
		for _, u := range d.Members {
			if u.Host == "snipe://hosts/a" && u.State == StateDead {
				return true
			}
		}
		return false
	})
	for h, l := range logs {
		for _, d := range l.all() {
			for _, u := range d.Members {
				if u.Host != "snipe://hosts/a" && u.State != StateAlive && u.State != StateLeft {
					t.Fatalf("digest from %s reported survivor %s as %s", h, u.Host, StateName(u.State))
				}
			}
		}
	}
}

func TestNoCatHandoverAndRecovery(t *testing.T) {
	m := newMesh()
	hosts := []string{"snipe://hosts/a", "snipe://hosts/b", "snipe://hosts/c"}
	logs := map[string]*digestLog{}
	spawnGroup(t, m, hosts, func(h string, cfg *Config) {
		l := &digestLog{}
		logs[h] = l
		cfg.WriteDigest = l.write
	})
	// Phase 1: the elected reporter is catalog-blind; duty must pass to
	// the next-ranked member, whose digests flag the blind member NoCat.
	logs["snipe://hosts/a"].setErr(errors.New("catalog unreachable"))
	waitFor(t, 5*time.Second, "handover to b with NoCat flag", func() bool {
		d := logs["snipe://hosts/b"].last()
		if d == nil {
			return false
		}
		for _, u := range d.Members {
			if u.Host == "snipe://hosts/a" && u.NoCat {
				return true
			}
		}
		return false
	})

	// Phase 2: a's catalog heals, then b and c go blind too. With every
	// member NoCat the group drafts its lowest member anyway rather than
	// going silent; a's retry succeeds and clears its flag.
	logs["snipe://hosts/a"].setErr(nil)
	logs["snipe://hosts/b"].setErr(errors.New("catalog unreachable"))
	logs["snipe://hosts/c"].setErr(errors.New("catalog unreachable"))
	before := logs["snipe://hosts/a"].count()
	waitFor(t, 10*time.Second, "drafted reporter recovers", func() bool {
		if logs["snipe://hosts/a"].count() <= before {
			return false
		}
		d := logs["snipe://hosts/a"].last()
		for _, u := range d.Members {
			if u.Host == "snipe://hosts/a" {
				return !u.NoCat
			}
		}
		return false
	})
}

func TestMinorityReporterFlagsDigest(t *testing.T) {
	m := newMesh()
	hosts := []string{"snipe://hosts/a", "snipe://hosts/b", "snipe://hosts/c"}
	logs := map[string]*digestLog{}
	spawnGroup(t, m, hosts, func(h string, cfg *Config) {
		l := &digestLog{}
		logs[h] = l
		cfg.WriteDigest = l.write
	})
	waitFor(t, 5*time.Second, "initial digest", func() bool {
		d := logs["snipe://hosts/a"].last()
		return d != nil && len(d.Members) == len(hosts) && d.Quorum
	})
	// Cut the reporter off from both peers (gossip only — its catalog
	// writes still land). It will declare the majority dead, but its
	// digests must carry the minority flag so consumers downgrade the
	// verdicts; the majority side's digests keep quorum and report the
	// isolated member's death authoritatively.
	m.severBoth("snipe://hosts/a", "snipe://hosts/b")
	m.severBoth("snipe://hosts/a", "snipe://hosts/c")
	waitFor(t, 5*time.Second, "minority digest flagged", func() bool {
		d := logs["snipe://hosts/a"].last()
		if d == nil || d.Quorum {
			return false
		}
		dead := 0
		for _, u := range d.Members {
			if u.Host != "snipe://hosts/a" && u.State == StateDead {
				dead++
			}
		}
		return dead == 2
	})
	waitFor(t, 5*time.Second, "majority side keeps quorum", func() bool {
		d := logs["snipe://hosts/b"].last()
		if d == nil || !d.Quorum {
			return false
		}
		for _, u := range d.Members {
			if u.Host == "snipe://hosts/a" && u.State == StateDead {
				return true
			}
		}
		return false
	})
}
