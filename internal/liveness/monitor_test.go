package liveness

import (
	"strings"
	"testing"
	"time"

	"snipe/internal/naming"
	"snipe/internal/rcds"
)

func TestHeartbeatRoundTrip(t *testing.T) {
	cases := []Heartbeat{
		{Seq: 1, Time: 1234567890, Load: 0},
		{Seq: 42, Time: 987654321000, Load: 2.5},
		{Seq: 7, Time: 1, Load: 0.33, Down: true},
	}
	for _, hb := range cases {
		got, err := ParseHeartbeat(hb.String())
		if err != nil {
			t.Fatalf("%q: %v", hb.String(), err)
		}
		if got.Seq != hb.Seq || got.Time != hb.Time || got.Down != hb.Down {
			t.Fatalf("round trip: %+v -> %+v", hb, got)
		}
		// Load survives at the printed precision.
		if diff := got.Load - hb.Load; diff > 0.005 || diff < -0.005 {
			t.Fatalf("load round trip: %v -> %v", hb.Load, got.Load)
		}
	}
	for _, bad := range []string{"", "1", "1 2", "1 2 3 4 5", "x 2 3", "1 y 3", "1 2 z", "1 2 3 up"} {
		if _, err := ParseHeartbeat(bad); err == nil {
			t.Fatalf("ParseHeartbeat(%q) accepted", bad)
		}
	}
}

func TestHostOfURN(t *testing.T) {
	if got := HostOfURN("urn:snipe:process:h1:counter-3"); got != naming.HostURL("h1") {
		t.Fatalf("got %q", got)
	}
	for _, bad := range []string{"urn:other:process:h1:x", "snipe://hosts/h1", "urn:snipe:process:nocolon", "urn:snipe:process::x"} {
		if got := HostOfURN(bad); got != "" {
			t.Fatalf("HostOfURN(%q) = %q, want empty", bad, got)
		}
	}
}

func TestHostLoadLegacyFallback(t *testing.T) {
	store := rcds.NewStore("hl")
	cat := naming.StoreCatalog(store)
	host := naming.HostURL("h1")
	// Legacy standalone load attribute only.
	cat.Set(host, rcds.AttrLoad, "1.50")
	if load, ok := HostLoad(cat, host); !ok || load != 1.5 {
		t.Fatalf("legacy: %v %v", load, ok)
	}
	// A heartbeat takes precedence.
	cat.Set(host, rcds.AttrHeartbeat, Heartbeat{Seq: 3, Time: 1, Load: 2.25}.String())
	if load, ok := HostLoad(cat, host); !ok || load != 2.25 {
		t.Fatalf("heartbeat: %v %v", load, ok)
	}
	if _, ok := HostLoad(cat, naming.HostURL("ghost")); ok {
		t.Fatal("ghost host reported a load")
	}
}

func TestPlaceable(t *testing.T) {
	want := map[State]bool{Unknown: true, Alive: true, Suspect: false, Dead: false, Left: false}
	for s, w := range want {
		if s.Placeable() != w {
			t.Fatalf("%v.Placeable() = %v", s, !w)
		}
	}
}

func TestAdaptiveSuspectBound(t *testing.T) {
	m := &Monitor{opts: Options{MinSuspect: time.Millisecond, MaxSuspect: 10 * time.Second}}
	m.opts.fill()
	m.opts.MinSuspect = time.Millisecond // fill() would raise it to the default

	rec := &hostRecord{}
	// No history: the cap applies.
	if got := m.suspectBoundLocked(rec); got != m.opts.MaxSuspect {
		t.Fatalf("no history bound = %v", got)
	}
	// A perfectly steady 10ms cadence: zero variance, so the 2.5×mean
	// floor provides the slack.
	for i := 0; i < historySize; i++ {
		rec.pushInterval(10 * time.Millisecond)
	}
	if got := m.suspectBoundLocked(rec); got != 25*time.Millisecond {
		t.Fatalf("steady bound = %v, want 25ms", got)
	}
	// A jittery cadence widens the bound past the floor.
	jittery := &hostRecord{}
	for i := 0; i < historySize; i++ {
		d := 10 * time.Millisecond
		if i%2 == 0 {
			d = 30 * time.Millisecond
		}
		jittery.pushInterval(d)
	}
	mean, std, _ := jittery.intervalStats()
	if got := m.suspectBoundLocked(jittery); got < mean+4*std {
		t.Fatalf("jittery bound %v < mean+4σ (%v)", got, mean+4*std)
	}
	// A digest-fed record (gossip incarnation seen) gets a wider floor:
	// the whole group refreshes on one reporter's cadence, so the bound
	// must span a reporter-failover gap.
	digestFed := &hostRecord{inc: 1}
	for i := 0; i < historySize; i++ {
		digestFed.pushInterval(10 * time.Millisecond)
	}
	if got := m.suspectBoundLocked(digestFed); got != 50*time.Millisecond {
		t.Fatalf("digest-fed bound = %v, want 50ms", got)
	}
}

func TestIntervalRingWraps(t *testing.T) {
	rec := &hostRecord{}
	for i := 0; i < historySize*2; i++ {
		rec.pushInterval(time.Duration(i) * time.Millisecond)
	}
	if n := len(rec.intervals); n != historySize {
		t.Fatalf("ring grew to %d", n)
	}
	// All surviving samples come from the second pass.
	for _, d := range rec.intervals {
		if d < time.Duration(historySize)*time.Millisecond {
			t.Fatalf("stale sample %v survived the wrap", d)
		}
	}
}

// beatWorld is a store-backed monitor with a helper for publishing
// heartbeats by hand.
type beatWorld struct {
	t    *testing.T
	cat  naming.Catalog
	mon  *Monitor
	host string
	seq  uint64
}

func newBeatWorld(t *testing.T, opts Options) *beatWorld {
	t.Helper()
	store := rcds.NewStore("liveness-test")
	cat := naming.StoreCatalog(store)
	mon := NewMonitor(cat, opts)
	t.Cleanup(mon.Close)
	return &beatWorld{t: t, cat: cat, mon: mon, host: naming.HostURL("h1")}
}

func (w *beatWorld) beat(load float64) {
	w.seq++
	w.cat.Set(w.host, rcds.AttrHeartbeat, Heartbeat{Seq: w.seq, Time: time.Now().UnixNano(), Load: load}.String())
}

func (w *beatWorld) tombstone() {
	w.seq++
	w.cat.Set(w.host, rcds.AttrHeartbeat, Heartbeat{Seq: w.seq, Time: time.Now().UnixNano(), Down: true}.String())
}

func (w *beatWorld) waitState(want State, d time.Duration) {
	w.t.Helper()
	deadline := time.Now().Add(d)
	for {
		if got := w.mon.State(w.host); got == want {
			return
		}
		if time.Now().After(deadline) {
			w.t.Fatalf("state = %v, want %v", w.mon.State(w.host), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func quickOptions() Options {
	return Options{
		CheckInterval: 2 * time.Millisecond,
		MinSuspect:    30 * time.Millisecond,
		MaxSuspect:    60 * time.Millisecond,
	}
}

func TestMonitorStateMachine(t *testing.T) {
	w := newBeatWorld(t, quickOptions())
	events, _ := w.mon.Subscribe(0)

	// Heartbeats at a steady cadence: alive.
	for i := 0; i < 8; i++ {
		w.beat(1.0)
		time.Sleep(5 * time.Millisecond)
	}
	w.waitState(Alive, time.Second)

	// Silence: suspect, then dead — in that order.
	w.waitState(Dead, 2*time.Second)
	var seen []State
	for done := false; !done; {
		select {
		case ev := <-events:
			seen = append(seen, ev.To)
		default:
			done = true
		}
	}
	var names []string
	for _, s := range seen {
		names = append(names, s.String())
	}
	trace := strings.Join(names, "→")
	if !strings.HasSuffix(trace, "suspect→dead") {
		t.Fatalf("transition trace %q does not end alive→suspect→dead", trace)
	}

	// A fresh (higher-seq) heartbeat revives even a dead host.
	w.beat(0.5)
	w.waitState(Alive, time.Second)
	if info := w.mon.Snapshot(); len(info) != 1 || info[0].Load != 0.5 {
		t.Fatalf("snapshot after revival: %+v", info)
	}
}

func TestLegacyRebirthAtLowerSeq(t *testing.T) {
	w := newBeatWorld(t, quickOptions())
	for i := 0; i < 6; i++ {
		w.beat(1.0)
		time.Sleep(5 * time.Millisecond)
	}
	w.waitState(Alive, time.Second)
	w.waitState(Dead, 2*time.Second) // silence ages it out

	// A re-read of the final pre-death heartbeat (equal seq, fresh
	// timestamp) is old news, not a revival.
	w.cat.Set(w.host, rcds.AttrHeartbeat, Heartbeat{Seq: w.seq, Time: time.Now().UnixNano(), Load: 1}.String())
	time.Sleep(25 * time.Millisecond)
	if got := w.mon.State(w.host); got != Dead {
		t.Fatalf("equal-seq re-read revived a dead host: %v", got)
	}

	// The restarted daemon begins a new life at seq 1 — far below the
	// dead record's counter. For a legacy (heartbeat-only) record that
	// lower-seq beat is the rebirth signal.
	w.cat.Set(w.host, rcds.AttrHeartbeat, Heartbeat{Seq: 1, Time: time.Now().UnixNano(), Load: 0.25}.String())
	w.waitState(Alive, time.Second)
}

func TestTombstoneGoesToLeftNeverSuspect(t *testing.T) {
	w := newBeatWorld(t, quickOptions())
	events, _ := w.mon.Subscribe(0)
	for i := 0; i < 5; i++ {
		w.beat(0)
		time.Sleep(5 * time.Millisecond)
	}
	w.waitState(Alive, time.Second)
	w.tombstone()
	w.waitState(Left, time.Second)

	// Linger past both bounds: a departed host must never be suspected
	// or declared dead.
	time.Sleep(150 * time.Millisecond)
	if got := w.mon.State(w.host); got != Left {
		t.Fatalf("state after linger = %v", got)
	}
	for done := false; !done; {
		select {
		case ev := <-events:
			if ev.To == Suspect || ev.To == Dead {
				t.Fatalf("clean shutdown produced %v (%s)", ev.To, ev.Reason)
			}
		default:
			done = true
		}
	}

	// Any heartbeat after a tombstone is a new incarnation, even at a
	// lower sequence number.
	w.cat.Set(w.host, rcds.AttrHeartbeat, Heartbeat{Seq: 1, Time: time.Now().UnixNano(), Load: 0}.String())
	w.waitState(Alive, time.Second)
}

func TestEvidencePath(t *testing.T) {
	w := newBeatWorld(t, Options{
		CheckInterval: time.Hour, // timeouts out of the picture
		MinSuspect:    time.Hour,
		MaxSuspect:    2 * time.Hour,
	})
	// Two beats build one inter-arrival sample, then the host goes
	// quiet so failures can corroborate.
	w.beat(0)
	time.Sleep(10 * time.Millisecond)
	w.beat(0)
	w.waitState(Alive, time.Second)
	time.Sleep(30 * time.Millisecond) // age past the ~10ms mean interval

	// Unknown hosts are never indicted by evidence alone.
	w.mon.ReportFailure(naming.HostURL("stranger"))
	if got := w.mon.State(naming.HostURL("stranger")); got != Unknown {
		t.Fatalf("stranger state = %v", got)
	}

	for i := 0; i < failureThreshold; i++ {
		w.mon.ReportFailure(w.host)
	}
	if got := w.mon.State(w.host); got != Suspect {
		t.Fatalf("after failures: %v", got)
	}
	// An acknowledgement is proof of life: suspicion is refuted and the
	// failure tally cleared.
	w.mon.ReportSuccess(w.host)
	if got := w.mon.State(w.host); got != Alive {
		t.Fatalf("after success: %v", got)
	}
	w.mon.ReportFailure(w.host) // 1 of 3: stays alive
	if got := w.mon.State(w.host); got != Alive {
		t.Fatalf("tally not reset: %v", got)
	}
}

func TestEvidenceNeedsLateHeartbeat(t *testing.T) {
	w := newBeatWorld(t, Options{CheckInterval: time.Hour, MinSuspect: time.Hour, MaxSuspect: 2 * time.Hour})
	// A steady stream of fresh beats: send failures alone (a crashed
	// task endpoint, say) must not condemn the host.
	w.beat(0)
	time.Sleep(5 * time.Millisecond)
	w.beat(0)
	w.waitState(Alive, time.Second)
	w.beat(0) // fresh beat right now: age ≈ 0 < mean
	for i := 0; i < 10; i++ {
		w.mon.ReportFailure(w.host)
	}
	if got := w.mon.State(w.host); got != Alive {
		t.Fatalf("fresh host indicted by evidence: %v", got)
	}
}

func TestMarkSuspectAndCommAdapter(t *testing.T) {
	w := newBeatWorld(t, Options{CheckInterval: time.Hour, MinSuspect: time.Hour, MaxSuspect: 2 * time.Hour})
	w.beat(0)
	w.waitState(Alive, time.Second)

	w.mon.MarkSuspect(w.host, "drill")
	if got := w.mon.State(w.host); got != Suspect {
		t.Fatalf("after MarkSuspect: %v", got)
	}

	cl := w.mon.CommLiveness()
	urn := "urn:snipe:process:h1:counter-1"
	if cl.PeerDead(urn) {
		t.Fatal("suspect peer reported dead") // suspect ≠ dead: sends still buffered
	}
	w.tombstone()
	w.waitState(Left, time.Second)
	if !cl.PeerDead(urn) {
		t.Fatal("departed peer not reported dead")
	}
	if cl.PeerDead("urn:not-a-process") {
		t.Fatal("foreign URN reported dead")
	}

	// The adapter routes evidence through the URN→host mapping.
	cl.ReportSuccess(urn) // no-op on a Left host, but must not panic
	cl.ReportFailure("urn:not-a-process")
}

func TestMonitorSeedsFromExistingRecords(t *testing.T) {
	store := rcds.NewStore("seed-test")
	cat := naming.StoreCatalog(store)
	cat.Set(naming.HostURL("pre"), rcds.AttrHeartbeat, Heartbeat{Seq: 9, Time: time.Now().UnixNano(), Load: 1}.String())
	mon := NewMonitor(cat, quickOptions())
	defer mon.Close()
	if got := mon.State(naming.HostURL("pre")); got != Alive {
		t.Fatalf("pre-existing record not seeded: %v", got)
	}
}
