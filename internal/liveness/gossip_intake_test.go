package liveness

import (
	"testing"
	"time"

	"snipe/internal/gossip"
	"snipe/internal/naming"
	"snipe/internal/rcds"
)

// slowOptions keeps the timeout state machine out of the picture so
// tests exercise the gossip intake rules in isolation.
func slowOptions() Options {
	return Options{CheckInterval: time.Hour, MinSuspect: time.Hour, MaxSuspect: 2 * time.Hour}
}

func TestObserveGossipFreshness(t *testing.T) {
	w := newBeatWorld(t, slowOptions())
	host := naming.HostURL("g1")
	u := func(inc, seq uint64, state uint8) gossip.Update {
		return gossip.Update{Host: host, Inc: inc, Seq: seq, State: state}
	}
	steps := []struct {
		name string
		u    gossip.Update
		want State
	}{
		{"first alive claim", u(1, 5, gossip.StateAlive), Alive},
		{"stale alive at lower seq ignored", u(1, 3, gossip.StateAlive), Alive},
		{"stale lower inc ignored", u(0, 99, gossip.StateDead), Alive},
		// A suspicion verdict carries the seq at which the prober last
		// heard the member, which lags the last alive claim; state rank
		// beats a lagging seq at equal incarnations.
		{"suspicion at lagging seq accepted", u(1, 4, gossip.StateSuspect), Suspect},
		{"alive at frozen seq does not refute", u(1, 4, gossip.StateAlive), Suspect},
		// Seq progress past the verdict's frozen seq proves the member
		// outlived the verdict: resurrection without an incarnation bump.
		{"alive with seq progress resurrects", u(1, 6, gossip.StateAlive), Alive},
		{"higher inc refutes", u(2, 1, gossip.StateAlive), Alive},
		{"quorum death verdict at equal seq", u(2, 1, gossip.StateDead), Dead},
		{"alive claim at death inc ignored", u(2, 1, gossip.StateAlive), Dead},
		{"rebirth at next incarnation", u(3, 1, gossip.StateAlive), Alive},
		{"clean departure", u(3, 2, gossip.StateLeft), Left},
	}
	for _, s := range steps {
		w.mon.ObserveGossip(s.u)
		if got := w.mon.State(host); got != s.want {
			t.Fatalf("%s: state = %v, want %v", s.name, got, s.want)
		}
	}
	// The record tracks the freshest (inc, seq) it accepted.
	for _, info := range w.mon.Snapshot() {
		if info.Host == host && (info.Inc != 3 || info.Seq != 2) {
			t.Fatalf("record at inc %d seq %d, want 3/2", info.Inc, info.Seq)
		}
	}
}

func TestMinorityDigestDowngradesDeath(t *testing.T) {
	w := newBeatWorld(t, slowOptions())
	host := naming.HostURL("g2")
	w.mon.ObserveGossip(gossip.Update{Host: host, Inc: 1, Seq: 1, State: gossip.StateAlive})

	// A minority reporter's death verdict counts only as suspicion: the
	// reporter may be the partitioned one.
	w.mon.ObserveGossipQuorum(gossip.Update{Host: host, Inc: 1, Seq: 2, State: gossip.StateDead}, false, time.Now())
	if got := w.mon.State(host); got != Suspect {
		t.Fatalf("minority verdict gave %v, want %v", got, Suspect)
	}
	// The same claim with quorum is believed.
	w.mon.ObserveGossipQuorum(gossip.Update{Host: host, Inc: 1, Seq: 3, State: gossip.StateDead}, true, time.Now())
	if got := w.mon.State(host); got != Dead {
		t.Fatalf("quorum verdict gave %v, want %v", got, Dead)
	}
	// A later minority verdict cannot resurrect a dead host to suspect.
	w.mon.ObserveGossipQuorum(gossip.Update{Host: host, Inc: 1, Seq: 4, State: gossip.StateDead}, false, time.Now())
	if got := w.mon.State(host); got != Dead {
		t.Fatalf("minority verdict moved a dead host to %v", got)
	}
}

func TestDigestIntakeViaCatalog(t *testing.T) {
	w := newBeatWorld(t, slowOptions())
	alive := naming.HostURL("da")
	dead := naming.HostURL("dd")
	d := &gossip.Digest{Group: 2, Reporter: alive, Seq: 1, Quorum: true, Members: []gossip.Update{
		{Host: alive, Inc: 1, Seq: 8, State: gossip.StateAlive, Load: 1.5},
		{Host: dead, Inc: 1, Seq: 3, State: gossip.StateDead},
	}}
	w.cat.Set(naming.LivenessGroupURI(2), rcds.AttrGroupDigest, d.Format())

	deadline := time.Now().Add(2 * time.Second)
	for w.mon.State(alive) != Alive || w.mon.State(dead) != Dead {
		if time.Now().After(deadline) {
			t.Fatalf("digest not ingested: %v/%v", w.mon.State(alive), w.mon.State(dead))
		}
		time.Sleep(time.Millisecond)
	}
	if got := w.mon.Metrics().Counter("digests_observed").Value(); got < 1 {
		t.Fatalf("digests_observed = %d", got)
	}
	for _, info := range w.mon.Snapshot() {
		if info.Host == alive && info.Load != 1.5 {
			t.Fatalf("digest load not recorded: %+v", info)
		}
	}
	// Garbage in the digest attribute must be tolerated, not crash intake.
	w.cat.Set(naming.LivenessGroupURI(3), rcds.AttrGroupDigest, "not a digest")
	time.Sleep(10 * time.Millisecond)
	if got := w.mon.State(alive); got != Alive {
		t.Fatalf("state disturbed by garbage digest: %v", got)
	}
}

func TestStaleDigestLosesToDirectEvidence(t *testing.T) {
	w := newBeatWorld(t, slowOptions())
	host := naming.HostURL("g3")
	// Direct gossip (the colocated agent's observer feed) has already
	// seen the host refute a false verdict at incarnation 2.
	w.mon.ObserveGossip(gossip.Update{Host: host, Inc: 2, Seq: 4, State: gossip.StateAlive})

	// A digest written before the refutation still carries the stale
	// death at incarnation 1. It must lose.
	d := &gossip.Digest{Group: 0, Reporter: naming.HostURL("r"), Seq: 9, Quorum: true, Members: []gossip.Update{
		{Host: host, Inc: 1, Seq: 99, State: gossip.StateDead},
	}}
	w.cat.Set(naming.LivenessGroupURI(0), rcds.AttrGroupDigest, d.Format())
	deadline := time.Now().Add(time.Second)
	for w.mon.Metrics().Counter("digests_observed").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("digest never observed")
		}
		time.Sleep(time.Millisecond)
	}
	if got := w.mon.State(host); got != Alive {
		t.Fatalf("stale digest won over direct evidence: %v", got)
	}
}

func TestSubscribeDropOldest(t *testing.T) {
	w := newBeatWorld(t, slowOptions())
	host := naming.HostURL("g4")
	ch, cancel := w.mon.Subscribe(2)
	defer cancel()

	// Alternate suspect/alive transitions without draining: each call
	// produces exactly one event into the 2-slot buffer.
	const transitions = 12
	seq := uint64(0)
	for i := 0; i < transitions; i++ {
		seq++
		state := uint8(gossip.StateSuspect)
		if i%2 == 1 {
			state = gossip.StateAlive
		}
		w.mon.ObserveGossip(gossip.Update{Host: host, Inc: 1, Seq: seq, State: state})
	}
	dropped := w.mon.Metrics().Counter("liveness_events_dropped").Value()
	if dropped != transitions-2 {
		t.Fatalf("liveness_events_dropped = %d, want %d", dropped, transitions-2)
	}
	// Drop-OLDEST: the survivors are the two freshest transitions, so a
	// consumer that finally drains sees the state that still describes
	// reality (the last transition was to Alive).
	var last Event
	for n := 0; ; n++ {
		select {
		case ev := <-ch:
			last = ev
		default:
			if n != 2 {
				t.Fatalf("buffer held %d events, want 2", n)
			}
			if last.To != Alive {
				t.Fatalf("freshest surviving event is %v, want %v", last.To, Alive)
			}
			return
		}
	}
}

// recordOf copies a host's tracking record for white-box assertions.
func recordOf(m *Monitor, host string) (hostRecord, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.hosts[host]
	if !ok {
		return hostRecord{}, false
	}
	return *rec, true
}

func TestArrivalClockRefreshRules(t *testing.T) {
	w := newBeatWorld(t, slowOptions())
	host := naming.HostURL("g5")
	t0 := time.Now()
	u := func(inc, seq uint64, state uint8) gossip.Update {
		return gossip.Update{Host: host, Inc: inc, Seq: seq, State: state}
	}
	w.mon.ObserveGossipQuorum(u(1, 5, gossip.StateAlive), true, t0)
	rec, ok := recordOf(w.mon, host)
	if !ok || !rec.lastBeat.Equal(t0) {
		t.Fatalf("fresh claim did not set the arrival clock: %v %v", ok, rec.lastBeat)
	}
	// A newer digest re-asserting the member at an unchanged seq is the
	// reporter still vouching for it (dissemination lag keeps member
	// counters behind the digest cadence): the clock refreshes. Replayed
	// digests are deduped before they can reach the claim merge.
	t1 := t0.Add(time.Second)
	w.mon.ObserveGossipQuorum(u(1, 5, gossip.StateAlive), true, t1)
	rec, _ = recordOf(w.mon, host)
	if !rec.lastBeat.Equal(t1) {
		t.Fatalf("re-vouched claim did not refresh the arrival clock: %v", rec.lastBeat)
	}
	// A claim at a LOWER seq is history and refreshes nothing.
	t2 := t1.Add(time.Second)
	w.mon.ObserveGossipQuorum(u(1, 3, gossip.StateAlive), true, t2)
	rec, _ = recordOf(w.mon, host)
	if !rec.lastBeat.Equal(t1) {
		t.Fatalf("stale claim refreshed the arrival clock to %v", rec.lastBeat)
	}
	// Once a verdict freezes the record, an alive claim at the frozen
	// seq must not refresh the clock either — reviving or sustaining a
	// suspected host demands seq progress.
	w.mon.ObserveGossipQuorum(u(1, 4, gossip.StateSuspect), true, t2)
	t3 := t2.Add(time.Second)
	w.mon.ObserveGossipQuorum(u(1, 4, gossip.StateAlive), true, t3)
	rec, _ = recordOf(w.mon, host)
	if rec.state != Suspect || !rec.lastBeat.Equal(t1) {
		t.Fatalf("claim at frozen seq touched a suspected record: %v %v", rec.state, rec.lastBeat)
	}
	// Every intake, fresh or stale, notes that something still mentions
	// the host.
	if !rec.lastSeen.Equal(t3) {
		t.Fatalf("stale claim did not refresh lastSeen: %v", rec.lastSeen)
	}
}

func TestFrozenDigestMembersTimeOut(t *testing.T) {
	w := newBeatWorld(t, quickOptions())
	host := naming.HostURL("g6")
	d := &gossip.Digest{Group: 9, Reporter: host, Seq: 4, Quorum: true, Members: []gossip.Update{
		{Host: host, Inc: 1, Seq: 20, State: gossip.StateAlive},
	}}
	val := d.Format()
	w.mon.observeDigest(val, time.Now())
	if got := w.mon.State(host); got != Alive {
		t.Fatalf("digest member not alive: %v", got)
	}
	// The whole group crashes: no reporter remains to write a newer
	// digest, but the frozen value is still re-read every scan cycle.
	// The member must still age to Dead.
	deadline := time.Now().Add(2 * time.Second)
	for w.mon.State(host) != Dead {
		if time.Now().After(deadline) {
			t.Fatalf("frozen digest kept host %v forever", w.mon.State(host))
		}
		w.mon.observeDigest(val, time.Now())
		time.Sleep(2 * time.Millisecond)
	}
	if got := w.mon.Metrics().Counter("digests_observed").Value(); got != 1 {
		t.Fatalf("digests_observed = %d, want 1 (replays deduped)", got)
	}
}

func TestDigestDedupeAdmissionRules(t *testing.T) {
	w := newBeatWorld(t, slowOptions())
	r1, r2 := naming.HostURL("r1"), naming.HostURL("r2")
	mk := func(rep string, seq uint64) string {
		d := &gossip.Digest{Group: 1, Reporter: rep, Seq: seq, Quorum: true, Members: []gossip.Update{
			{Host: rep, Inc: 1, Seq: seq, State: gossip.StateAlive},
		}}
		return d.Format()
	}
	now := time.Now()
	observed := func() uint64 { return w.mon.Metrics().Counter("digests_observed").Value() }
	w.mon.observeDigest(mk(r1, 5), now) // first sight: admitted
	w.mon.observeDigest(mk(r1, 5), now) // re-scan replay: rejected
	w.mon.observeDigest(mk(r1, 3), now) // lagging replica during catch-up: rejected
	if got := observed(); got != 1 {
		t.Fatalf("after replays digests_observed = %d, want 1", got)
	}
	// A different reporter is failover, not a replay — even at a lower
	// seq (each reporter numbers its own digests from 1).
	w.mon.observeDigest(mk(r2, 1), now)
	if got := observed(); got != 2 {
		t.Fatalf("failover reporter rejected: digests_observed = %d, want 2", got)
	}
	w.mon.observeDigest(mk(r2, 2), now) // progress from the new reporter: admitted
	if got := observed(); got != 3 {
		t.Fatalf("newer digest rejected: digests_observed = %d, want 3", got)
	}
}

func TestMinorityAliveCannotResurrectDead(t *testing.T) {
	w := newBeatWorld(t, slowOptions())
	host := naming.HostURL("g7")
	now := time.Now()
	u := func(inc, seq uint64, state uint8) gossip.Update {
		return gossip.Update{Host: host, Inc: inc, Seq: seq, State: state}
	}
	w.mon.ObserveGossipQuorum(u(1, 1, gossip.StateAlive), true, now)
	w.mon.ObserveGossipQuorum(u(1, 2, gossip.StateDead), true, now)
	if got := w.mon.State(host); got != Dead {
		t.Fatalf("quorum verdict gave %v", got)
	}
	// A gossip split where both sides reach the catalog: the minority
	// reporter's advancing seqs must refresh the record without flapping
	// it back to Alive against the majority's verdict.
	for seq := uint64(3); seq < 8; seq++ {
		w.mon.ObserveGossipQuorum(u(1, seq, gossip.StateAlive), false, now)
		if got := w.mon.State(host); got != Dead {
			t.Fatalf("minority alive at seq %d resurrected host to %v", seq, got)
		}
	}
	// Quorum evidence of further progress does resurrect.
	w.mon.ObserveGossipQuorum(u(1, 9, gossip.StateAlive), true, now)
	if got := w.mon.State(host); got != Alive {
		t.Fatalf("quorum alive after progress gave %v", got)
	}
	// Dead again; the member's own refutation (incarnation bump) revives
	// it even when carried by a minority digest.
	w.mon.ObserveGossipQuorum(u(1, 10, gossip.StateDead), true, now)
	if got := w.mon.State(host); got != Dead {
		t.Fatalf("second verdict gave %v", got)
	}
	w.mon.ObserveGossipQuorum(u(2, 1, gossip.StateAlive), false, now)
	if got := w.mon.State(host); got != Alive {
		t.Fatalf("minority-carried refutation gave %v", got)
	}
}

func TestMinorityAliveClearsSuspicion(t *testing.T) {
	// A two-member group can never form a quorum (alive*2 > total fails
	// at 1 of 2), so its lone survivor's digests are minority forever;
	// they must still be able to clear a false suspicion of the survivor
	// or it ages to a false Dead.
	w := newBeatWorld(t, slowOptions())
	host := naming.HostURL("g8")
	now := time.Now()
	w.mon.ObserveGossipQuorum(gossip.Update{Host: host, Inc: 1, Seq: 1, State: gossip.StateAlive}, false, now)
	if got := w.mon.State(host); got != Alive {
		t.Fatalf("minority alive on a fresh record gave %v", got)
	}
	w.mon.ObserveGossipQuorum(gossip.Update{Host: host, Inc: 1, Seq: 2, State: gossip.StateSuspect}, false, now)
	if got := w.mon.State(host); got != Suspect {
		t.Fatalf("minority suspicion gave %v", got)
	}
	w.mon.ObserveGossipQuorum(gossip.Update{Host: host, Inc: 1, Seq: 3, State: gossip.StateAlive}, false, now)
	if got := w.mon.State(host); got != Alive {
		t.Fatalf("minority alive did not clear suspicion: %v", got)
	}
}

func TestReplayedAliveBetweenVerdictAndCreditedSeq(t *testing.T) {
	w := newBeatWorld(t, slowOptions())
	host := naming.HostURL("g9")
	w.mon.ObserveGossip(gossip.Update{Host: host, Inc: 1, Seq: 9, State: gossip.StateAlive})
	// The prober last heard the member at seq 4; its verdict carries
	// that lagging seq and freezes the record there.
	w.mon.ObserveGossip(gossip.Update{Host: host, Inc: 1, Seq: 4, State: gossip.StateSuspect})
	if got := w.mon.State(host); got != Suspect {
		t.Fatalf("verdict gave %v", got)
	}
	// An out-of-order digest served by a lagging replica replays an
	// alive claim from between the frozen seq and the highest alive seq
	// already credited: that is history, not progress.
	w.mon.ObserveGossip(gossip.Update{Host: host, Inc: 1, Seq: 7, State: gossip.StateAlive})
	if got := w.mon.State(host); got != Suspect {
		t.Fatalf("replayed alive claim resurrected host to %v", got)
	}
	// Progress past both seqs is genuine life after the verdict.
	w.mon.ObserveGossip(gossip.Update{Host: host, Inc: 1, Seq: 10, State: gossip.StateAlive})
	if got := w.mon.State(host); got != Alive {
		t.Fatalf("genuine progress gave %v", got)
	}
}

func TestDeadRecordExpiresAfterRetention(t *testing.T) {
	opts := slowOptions()
	opts.CheckInterval = 2 * time.Millisecond
	w := newBeatWorld(t, opts)
	w.mon.mu.Lock()
	w.mon.retention = 40 * time.Millisecond
	w.mon.mu.Unlock()
	host := naming.HostURL("g10")
	w.mon.ObserveGossip(gossip.Update{Host: host, Inc: 1, Seq: 1, State: gossip.StateAlive})
	w.mon.ObserveGossip(gossip.Update{Host: host, Inc: 1, Seq: 2, State: gossip.StateDead})
	if got := w.mon.State(host); got != Dead {
		t.Fatalf("verdict gave %v", got)
	}
	// While stale evidence still mentions the host (the catalog retains
	// its record and scans keep re-reading it), the verdict is kept —
	// expiring it would let the stale evidence recreate the record and
	// flap it through a fresh timeout cycle.
	hold := time.Now().Add(150 * time.Millisecond)
	for time.Now().Before(hold) {
		w.mon.ObserveGossipQuorum(gossip.Update{Host: host, Inc: 1, Seq: 2, State: gossip.StateDead}, true, time.Now())
		if got := w.mon.State(host); got != Dead {
			t.Fatalf("still-mentioned dead record expired early: %v", got)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The evidence stops: the record expires and a host reborn after a
	// long outage meets a clean slate instead of its old verdict.
	deadline := time.Now().Add(2 * time.Second)
	for w.mon.State(host) != Unknown {
		if time.Now().After(deadline) {
			t.Fatalf("dead record never expired: %v", w.mon.State(host))
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, info := range w.mon.Snapshot() {
		if info.Host == host {
			t.Fatalf("expired host still in snapshot: %+v", info)
		}
	}
}

func TestHostLoadDigestPath(t *testing.T) {
	store := rcds.NewStore("hl-digest")
	cat := naming.StoreCatalog(store)
	host := naming.HostURL("gh1")

	// A gossip-mode host publishes load through its group digest, which
	// beats even a (stale) legacy heartbeat on the same record.
	cat.Set(host, rcds.AttrGossipGroup, "5/8")
	cat.Set(host, rcds.AttrHeartbeat, Heartbeat{Seq: 1, Time: 1, Load: 9.75}.String())
	d := &gossip.Digest{Group: 5, Reporter: host, Seq: 3, Quorum: true, Members: []gossip.Update{
		{Host: host, Inc: 1, Seq: 30, State: gossip.StateAlive, Load: 2.25},
	}}
	cat.Set(naming.LivenessGroupURI(5), rcds.AttrGroupDigest, d.Format())
	if load, ok := HostLoad(cat, host); !ok || load != 2.25 {
		t.Fatalf("digest load: %v %v", load, ok)
	}

	// Digest missing (group not yet written): fall through to the
	// heartbeat rather than reporting no load.
	cat.Set(host, rcds.AttrGossipGroup, "6/8")
	if load, ok := HostLoad(cat, host); !ok || load != 9.75 {
		t.Fatalf("heartbeat fallback: %v %v", load, ok)
	}
	// A malformed membership attribute also falls through.
	cat.Set(host, rcds.AttrGossipGroup, "junk")
	if load, ok := HostLoad(cat, host); !ok || load != 9.75 {
		t.Fatalf("malformed group fallback: %v %v", load, ok)
	}
	// Host absent from its group's digest: fall through too.
	cat.Set(host, rcds.AttrGossipGroup, "7/8")
	other := &gossip.Digest{Group: 7, Reporter: naming.HostURL("x"), Seq: 1, Members: []gossip.Update{
		{Host: naming.HostURL("x"), Inc: 1, Seq: 1, State: gossip.StateAlive, Load: 0.5},
	}}
	cat.Set(naming.LivenessGroupURI(7), rcds.AttrGroupDigest, other.Format())
	if load, ok := HostLoad(cat, host); !ok || load != 9.75 {
		t.Fatalf("absent-member fallback: %v %v", load, ok)
	}
}
