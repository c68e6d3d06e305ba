package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"snipe/internal/daemon"
	"snipe/internal/gossip"
	"snipe/internal/liveness"
	"snipe/internal/naming"
	"snipe/internal/netsim"
	"snipe/internal/rcds"
	"snipe/internal/rm"
	"snipe/internal/stats"
	"snipe/internal/task"
)

// --- Detection latency: the liveness experiment --------------------------
//
// Three daemons heartbeat into one catalog; a liveness.Monitor and a
// resource manager watch. Reservations weight the placement so the
// victim is the preferred host, then the victim is killed (heartbeats
// just stop), partitioned from the catalog (netsim.Fabric gate), or
// cleanly shut down (tombstone). Measured: injection → suspect,
// injection → dead, and injection → first placement that avoids the
// victim — the time the system keeps placing work on a dead host.

// FailoverPoint is one failure-detection measurement.
type FailoverPoint struct {
	Mode        string  `json:"mode"` // crash | partition | clean
	HeartbeatMs float64 `json:"heartbeat_ms"`
	SuspectMs   float64 `json:"suspect_ms"` // injection → suspect (-1: never)
	DeadMs      float64 `json:"dead_ms"`    // injection → dead/left (-1: never)
	// PlacementMs is injection → first SelectHost answer not on the
	// victim: the window in which new work was still sent to a dead
	// host.
	PlacementMs   float64 `json:"first_correct_placement_ms"`
	FalseSuspects int     `json:"false_suspects"` // suspect events that indict a healthy host
}

// fabricGossipGate adapts a netsim fabric to the gossip layer's gate
// hook, mapping host URLs back to bare fabric node names.
func fabricGossipGate(fabric *netsim.Fabric) func(from, to string) error {
	gate := fabric.PairGate()
	return func(from, to string) error {
		return gate(strings.TrimPrefix(from, naming.HostPrefix),
			strings.TrimPrefix(to, naming.HostPrefix))
	}
}

// MeasureDetection runs one failure injection and measures detection
// and placement-correction latency. mode is "crash" (daemon killed, no
// catalog writes), "partition" (full isolation: the victim's catalog
// access AND its gossip traffic severed via a netsim fabric — a host
// that can still gossip is alive by definition, so a real split severs
// both), or "clean" (Daemon.Close tombstone — expected to produce zero
// suspects).
func MeasureDetection(mode string, hbInterval time.Duration) (FailoverPoint, stats.Snapshot, error) {
	pt := FailoverPoint{Mode: mode, HeartbeatMs: float64(hbInterval) / 1e6, SuspectMs: -1, DeadMs: -1, PlacementMs: -1}
	store := rcds.NewStore("bench-liveness-" + mode)
	cat := naming.StoreCatalog(store)
	reg := task.NewRegistry()

	fabric := netsim.NewFabric()
	victimCat := cat
	if mode == "partition" {
		// The victim reaches the catalog only through the fabric: a
		// partition stops its digest writes (and all its reads) while the
		// daemon itself keeps running — a true split, not a crash.
		victimCat = naming.GatedCatalog(cat, fabric.Gate("flv1", "rc"))
	}

	gopts := daemon.GossipOptions{Gate: fabricGossipGate(fabric)}
	mk := func(h string, c naming.Catalog) (*daemon.Daemon, error) {
		d := daemon.New(daemon.Config{HostName: h, Catalog: c, Registry: reg, HeartbeatInterval: hbInterval, Gossip: gopts})
		return d, d.Start()
	}
	victim, err := mk("flv1", victimCat)
	if err != nil {
		return pt, stats.Snapshot{}, err
	}
	defer victim.Close()
	d2, err := mk("flv2", cat)
	if err != nil {
		return pt, stats.Snapshot{}, err
	}
	defer d2.Close()
	d3, err := mk("flv3", cat)
	if err != nil {
		return pt, stats.Snapshot{}, err
	}
	defer d3.Close()

	mon := liveness.NewMonitor(cat, liveness.Options{
		CheckInterval: 5 * time.Millisecond,
		MinSuspect:    2 * hbInterval,
		MaxSuspect:    2 * time.Second,
	})
	defer mon.Close()
	mgr, err := rm.NewManager("flv-rm", cat, nil)
	if err != nil {
		return pt, stats.Snapshot{}, err
	}
	defer mgr.Close()
	mgr.UseLiveness(mon)
	// Reservations make the victim the least-loaded candidate, so until
	// detection engages every placement lands on it.
	mgr.Reserve(d2.HostURL())
	mgr.Reserve(d3.HostURL())

	// Let the monitor build inter-arrival history on all three hosts.
	time.Sleep(15 * hbInterval)
	if host, _, err := mgr.SelectHost(task.Requirements{}); err != nil {
		return pt, stats.Snapshot{}, err
	} else if host != victim.HostURL() {
		return pt, stats.Snapshot{}, fmt.Errorf("bench: expected victim preferred, placement went to %s", host)
	}

	events, cancelEvents := mon.Subscribe(0)
	defer cancelEvents()
	inject := time.Now()
	switch mode {
	case "crash":
		victim.Kill()
	case "partition":
		fabric.Isolate("flv1")
	case "clean":
		victim.Close()
	default:
		return pt, stats.Snapshot{}, fmt.Errorf("bench: unknown detection mode %q", mode)
	}

	// Poll placement until it stops answering with the victim, bounded
	// by a 10s deadline in the loop condition.
	placed := make(chan time.Duration, 1)
	go func() {
		for time.Since(inject) <= 10*time.Second {
			host, _, err := mgr.SelectHost(task.Requirements{})
			if err == nil && host != victim.HostURL() {
				placed <- time.Since(inject)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		placed <- -1
	}()

	// Watch transitions until the victim settles (dead or left), then
	// linger briefly to catch stray false suspicions. Clean shutdowns
	// settle on the Left event.
	deadline := time.After(10 * time.Second)
	settled := false
	linger := 20 * hbInterval
	for !settled {
		select {
		case ev := <-events:
			if ev.Host != victim.HostURL() {
				if ev.To == liveness.Suspect {
					pt.FalseSuspects++
				}
				continue
			}
			switch ev.To {
			case liveness.Suspect:
				if mode == "clean" {
					pt.FalseSuspects++ // a tombstoned host must never look suspect
				} else if pt.SuspectMs < 0 {
					pt.SuspectMs = float64(time.Since(inject)) / 1e6
				}
			case liveness.Dead, liveness.Left:
				pt.DeadMs = float64(time.Since(inject)) / 1e6
				settled = true
			}
		case <-deadline:
			settled = true
		}
	}
	quiet := time.After(linger)
	for done := false; !done; {
		select {
		case ev := <-events:
			if ev.To == liveness.Suspect && (ev.Host != victim.HostURL() || mode == "clean") {
				pt.FalseSuspects++
			}
		case <-quiet:
			done = true
		}
	}
	if d := <-placed; d >= 0 {
		pt.PlacementMs = float64(d) / 1e6
	}
	return pt, mon.MetricsSnapshot(), nil
}

// RunFailoverSuite measures all injection modes. Quick mode runs one
// heartbeat cadence; the full suite sweeps cadences for the crash
// case to show detection latency tracking the adaptive bound.
func RunFailoverSuite(quick bool) ([]FailoverPoint, stats.Snapshot, error) {
	type run struct {
		mode string
		hb   time.Duration
	}
	runs := []run{
		{"crash", 25 * time.Millisecond},
		{"partition", 25 * time.Millisecond},
		{"clean", 25 * time.Millisecond},
	}
	if !quick {
		runs = append(runs,
			run{"crash", 50 * time.Millisecond},
			run{"crash", 100 * time.Millisecond},
			run{"partition", 100 * time.Millisecond},
			run{"clean", 100 * time.Millisecond},
		)
	}
	var out []FailoverPoint
	var mstats stats.Snapshot
	for _, r := range runs {
		pt, ms, err := MeasureDetection(r.mode, r.hb)
		if err != nil {
			return out, mstats, err
		}
		out = append(out, pt)
		mstats = ms
	}
	return out, mstats, nil
}

// --- Cluster-size sweep: hierarchical liveness at 100–10k hosts ----------
//
// N in-process gossip agents over a netsim hub, grouped with elected
// digest reporters writing into one rcds store; a single
// liveness.Monitor consumes the digests. Measured per size: a no-fault
// window (false suspects + catalog write rate), crash detection
// latency (mean over several victims), a full-isolation partition with
// heal, and the legacy per-host heartbeat write rate over the same
// store type for the write-amplification comparison.

// LivenessScalePoint is one cluster size's measurements.
type LivenessScalePoint struct {
	Hosts     int     `json:"hosts"`
	Groups    int     `json:"groups"`
	GroupSize int     `json:"group_size"`
	ProbeMs   float64 `json:"probe_ms"`
	WarmupMs  float64 `json:"warmup_ms"` // start → monitor sees every host alive
	// FalseSuspects counts monitor suspect transitions during the
	// no-fault observation window (claim: zero).
	FalseSuspects int `json:"false_suspects"`
	// Crash detection, mean over trials: victim agent silently stopped.
	CrashSuspectMs float64 `json:"crash_suspect_ms"`
	CrashDeadMs    float64 `json:"crash_dead_ms"`
	// Partition detection, one victim fully isolated then healed.
	PartitionSuspectMs float64 `json:"partition_suspect_ms"`
	PartitionDeadMs    float64 `json:"partition_dead_ms"`
	HealReviveMs       float64 `json:"heal_revive_ms"` // rejoin → monitor alive again
	// Catalog write amplification: digests vs one heartbeat per host.
	GossipWritesPerSec float64 `json:"gossip_writes_per_sec"`
	LegacyWritesPerSec float64 `json:"legacy_writes_per_sec"`
	WriteReduction     float64 `json:"write_reduction"`
	// CatalogScans is how many times the monitor re-read a prefix of
	// the catalog over the whole run, warmup to heal.
	CatalogScans uint64 `json:"catalog_scans"`
}

// scaleWorld is one running cluster of the scale sweep.
type scaleWorld struct {
	fabric *netsim.Fabric
	hub    *netsim.Hub
	cat    naming.Catalog
	mon    *liveness.Monitor
	names  []string // host URLs, index-aligned with agents
	shorts []string // fabric node names
	agents []*gossip.Agent
	writes atomic.Int64 // successful digest writes
}

func (w *scaleWorld) close() {
	w.mon.Close()
	for _, ag := range w.agents {
		if ag != nil {
			ag.Stop()
		}
	}
	w.hub.Close()
}

// startScaleWorld spins up hosts gossip agents in contiguous groups of
// groupSize over a hub, plus a monitor on the shared store.
func startScaleWorld(hosts, groupSize int, probe time.Duration) (*scaleWorld, error) {
	w := &scaleWorld{fabric: netsim.NewFabric()}
	w.hub = netsim.NewHub(w.fabric)
	w.cat = naming.StoreCatalog(rcds.NewStore(fmt.Sprintf("bench-liveness-%d", hosts)))

	w.names = make([]string, hosts)
	w.shorts = make([]string, hosts)
	shortOf := make(map[string]string, hosts)
	for i := range w.names {
		w.shorts[i] = fmt.Sprintf("s%05d", i)
		w.names[i] = naming.HostURL(w.shorts[i])
		shortOf[w.names[i]] = w.shorts[i]
	}
	member := func(g int) []string {
		end := (g + 1) * groupSize
		if end > hosts {
			end = hosts
		}
		return w.names[g*groupSize : end]
	}

	// Handlers look their agent up lazily under a lock, so hub nodes can
	// attach before the agents that use them exist.
	var agMu sync.RWMutex
	agentOf := make(map[string]*gossip.Agent, hosts)

	w.agents = make([]*gossip.Agent, hosts)
	for i := 0; i < hosts; i++ {
		short := w.shorts[i]
		g := i / groupSize
		node, err := w.hub.Attach(short, func(from string, payload any) {
			agMu.RLock()
			ag := agentOf[short]
			agMu.RUnlock()
			if ag == nil {
				return
			}
			b, ok := payload.([]byte)
			if !ok {
				return
			}
			if m, err := gossip.DecodeMessage(b); err == nil {
				ag.Deliver(&m)
			}
		})
		if err != nil {
			w.close()
			return nil, err
		}
		// The default ack deadline (probe/4) assumes network-like
		// round-trips; thousands of in-process agents sharing a few
		// cores see scheduler pauses well past it, which reads as probe
		// loss and seeds false suspicion. At >=2k hosts stretch the
		// probe budget to a full interval — there detection latency is
		// dominated by the suspect timeout, so the claims are
		// untouched. Smaller worlds keep the tight defaults: their
		// scheduling load is light, and the tighter probe deadline is
		// most of their detection latency.
		ackTO, probeTO := time.Duration(0), time.Duration(0)
		if hosts >= 2000 {
			ackTO, probeTO = probe/2, probe
		}
		ag, err := gossip.NewAgent(gossip.Config{
			Self:          w.names[i],
			Group:         g,
			ProbeInterval: probe,
			AckTimeout:    ackTO,
			ProbeTimeout:  probeTO,
			Transport: gossip.TransportFunc(func(to string, m *gossip.Message) error {
				return node.Send(shortOf[to], m.Encode())
			}),
			Peers: func() ([]string, error) { return member(g), nil },
			WriteDigest: func(d *gossip.Digest) error {
				// The catalog sits on node "rc": full isolation severs
				// digest writes exactly as a gated daemon catalog would.
				if w.fabric.Partitioned(short, "rc") {
					return errors.New("bench: catalog unreachable")
				}
				if err := w.cat.Set(naming.LivenessGroupURI(d.Group), rcds.AttrGroupDigest, d.Format()); err != nil {
					return err
				}
				w.writes.Add(1)
				return nil
			},
		})
		if err != nil {
			w.close()
			return nil, err
		}
		agMu.Lock()
		agentOf[short] = ag
		agMu.Unlock()
		w.agents[i] = ag
	}

	w.mon = liveness.NewMonitor(w.cat, liveness.Options{
		MinSuspect: 3 * probe,
		MaxSuspect: 30 * probe,
	})
	for _, ag := range w.agents {
		if err := ag.Start(); err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

// waitState polls the monitor for a host state until the deadline.
func (w *scaleWorld) waitState(host string, want liveness.State, timeout time.Duration) (time.Duration, error) {
	start := time.Now()
	for {
		if w.mon.State(host) == want {
			return time.Since(start), nil
		}
		if time.Since(start) > timeout {
			return -1, fmt.Errorf("bench: %s never reached %v (is %v)", host, want, w.mon.State(host))
		}
		time.Sleep(time.Millisecond)
	}
}

// detect stamps injection → first suspect and → dead for one victim,
// reading the monitor's event feed.
func (w *scaleWorld) detect(victim string, inject func(), timeout time.Duration) (suspectMs, deadMs float64, err error) {
	ch, cancel := w.mon.Subscribe(8192)
	defer cancel()
	start := time.Now()
	inject()
	suspectMs, deadMs = -1, -1
	deadline := time.After(timeout)
	for {
		select {
		case ev := <-ch:
			if ev.Host != victim {
				continue
			}
			switch ev.To {
			case liveness.Suspect:
				if suspectMs < 0 {
					suspectMs = float64(time.Since(start)) / 1e6
				}
			case liveness.Dead:
				deadMs = float64(time.Since(start)) / 1e6
				return suspectMs, deadMs, nil
			}
		case <-deadline:
			return suspectMs, deadMs, fmt.Errorf("bench: victim %s not declared dead within %v", victim, timeout)
		}
	}
}

// MeasureLivenessScale runs the hierarchical detector at one cluster
// size and measures detection latency, false-suspect rate, and catalog
// write amplification.
func MeasureLivenessScale(hosts, groupSize int, probe time.Duration) (LivenessScalePoint, error) {
	pt := LivenessScalePoint{
		Hosts: hosts, GroupSize: groupSize,
		Groups:  (hosts + groupSize - 1) / groupSize,
		ProbeMs: float64(probe) / 1e6,
	}
	if pt.Groups < 4 {
		return pt, fmt.Errorf("bench: need >= 4 groups for victim selection, have %d", pt.Groups)
	}
	w, err := startScaleWorld(hosts, groupSize, probe)
	if err != nil {
		return pt, err
	}
	defer w.close()

	// Warmup: the monitor has ingested a digest claim for every host.
	// The deadline scales with cluster size — at 10k in-process agents
	// the startup dissemination storm is bounded by cores, not by the
	// protocol.
	start := time.Now()
	warmDeadline := time.Now().Add(60*time.Second + time.Duration(hosts)*20*time.Millisecond)
	for {
		snap := w.mon.Snapshot()
		alive := 0
		for _, info := range snap {
			if info.State == liveness.Alive {
				alive++
			}
		}
		if alive == hosts {
			break
		}
		if time.Now().After(warmDeadline) {
			return pt, fmt.Errorf("bench: warmup stalled at %d/%d alive", alive, hosts)
		}
		time.Sleep(25 * time.Millisecond)
	}
	pt.WarmupMs = float64(time.Since(start)) / 1e6

	// Settle: "every host alive at the monitor" does not mean the
	// startup dissemination storm is over — in-flight suspicions from
	// the join burst are still being refuted. Give them a few probe
	// intervals to drain before judging the no-fault window.
	time.Sleep(5 * probe)

	// No-fault window: zero suspicion expected, and the steady-state
	// catalog write rate is the write-amplification numerator. Any
	// suspect event in the window is a claim failure, so narrate the
	// first few for diagnosis.
	window := 10 * probe
	events, cancelEvents := w.mon.Subscribe(4096)
	suspectsBefore := w.mon.Metrics().Counter("transitions_suspect").Value()
	writesBefore := w.writes.Load()
	windowStart := time.Now()
	time.Sleep(window)
	elapsed := time.Since(windowStart).Seconds()
	pt.FalseSuspects = int(w.mon.Metrics().Counter("transitions_suspect").Value() - suspectsBefore)
	cancelEvents()
	logged := 0
	for done := false; !done && logged < 5; {
		select {
		case ev, ok := <-events:
			if !ok {
				done = true
				break
			}
			if ev.To == liveness.Suspect {
				fmt.Fprintf(os.Stderr, "liveness scale: false suspect %s (%s)\n", ev.Host, ev.Reason)
				logged++
			}
		default:
			done = true
		}
	}
	pt.GossipWritesPerSec = float64(w.writes.Load()-writesBefore) / elapsed

	// Crash detection: mean over mid-rank (never-reporter) victims.
	// SWIM's probe ring makes a single victim's time-to-first-probe a
	// random variable; the claim is about the detector's latency, so
	// average it. Victims rotate through groups 1.. and the rank shifts
	// on each pass so no host is ever killed twice even when the trial
	// count exceeds the group count.
	// SWIM's time-to-first-probe is ~uniform over a probe interval with
	// a ring-alignment tail out to 2-3 intervals, so single trials are
	// noisy. Small worlds pay ~1.5s per trial — average more of them;
	// the 5k/10k points keep 5 to bound wall-clock.
	trials := 9
	if hosts >= 2000 {
		trials = 5
	}
	detectTimeout := 30*probe + 5*time.Second
	var sumSuspect, sumDead float64
	for trial := 0; trial < trials; trial++ {
		g := 1 + trial%(pt.Groups-1)
		lo, hi := g*groupSize, (g+1)*groupSize
		if hi > hosts {
			hi = hosts
		}
		v := lo + (hi-lo)/2 + trial/(pt.Groups-1)
		if v >= hi {
			v = hi - 1
		}
		sMs, dMs, err := w.detect(w.names[v], func() { w.agents[v].Stop() }, detectTimeout)
		if err != nil {
			return pt, fmt.Errorf("crash trial %d: %w", trial, err)
		}
		if sMs < 0 {
			sMs = dMs // dead observed before any suspect event reached us
		}
		fmt.Fprintf(os.Stderr, "liveness scale: %d hosts crash trial %d: suspect %.1fms dead %.1fms\n",
			hosts, trial, sMs, dMs)
		sumSuspect += sMs
		sumDead += dMs
	}
	pt.CrashSuspectMs = sumSuspect / float64(trials)
	pt.CrashDeadMs = sumDead / float64(trials)

	// Partition: one victim fully isolated (gossip and catalog), then
	// healed — the detector must declare it dead and revive it.
	// Crash victims rotate through groups 1.., so group 0's middle host
	// is never a prior casualty.
	pv := groupSize / 2
	if pv >= hosts {
		pv = hosts - 2
	}
	sMs, dMs, err := w.detect(w.names[pv], func() { w.fabric.Isolate(w.shorts[pv]) }, detectTimeout)
	if err != nil {
		return pt, fmt.Errorf("partition: %w", err)
	}
	pt.PartitionSuspectMs, pt.PartitionDeadMs = sMs, dMs
	w.fabric.Rejoin(w.shorts[pv])
	revive, err := w.waitState(w.names[pv], liveness.Alive, detectTimeout)
	if err != nil {
		return pt, fmt.Errorf("heal: %w", err)
	}
	pt.HealReviveMs = float64(revive) / 1e6
	pt.CatalogScans = w.mon.Metrics().Counter("catalog_scans").Value()

	// Legacy baseline, measured: one catalog heartbeat per host per
	// interval into the same store type, counted over a few intervals.
	lcat := naming.StoreCatalog(rcds.NewStore(fmt.Sprintf("bench-liveness-legacy-%d", hosts)))
	lstart := time.Now()
	writes := 0
	ticker := time.NewTicker(probe)
	defer ticker.Stop()
	for tick := 1; tick <= 3; tick++ {
		<-ticker.C
		for _, host := range w.names {
			hb := liveness.Heartbeat{Seq: uint64(tick), Time: time.Now().UnixNano(), Load: 1}
			if err := lcat.Set(host, rcds.AttrHeartbeat, hb.String()); err != nil {
				return pt, err
			}
			writes++
		}
	}
	pt.LegacyWritesPerSec = float64(writes) / time.Since(lstart).Seconds()
	if pt.GossipWritesPerSec > 0 {
		pt.WriteReduction = pt.LegacyWritesPerSec / pt.GossipWritesPerSec
	}
	return pt, nil
}

// RunLivenessScaleSuite sweeps cluster sizes. Quick mode runs one
// CI-sized cluster; the full sweep reproduces the 100–10k scaling
// claim. The probe interval grows with the cluster — exactly as a
// real deployment would tune it — keeping the per-second message load
// (hosts/probe) within what an in-process single-box emulation can
// schedule without the scheduler's own latency polluting the
// detection measurements; every claim is expressed relative to the
// size's own probe interval.
func RunLivenessScaleSuite(quick bool) ([]LivenessScalePoint, error) {
	type size struct {
		hosts, group int
		probe        time.Duration
	}
	sizes := []size{{100, 25, 100 * time.Millisecond}}
	if !quick {
		sizes = []size{
			{100, 25, 200 * time.Millisecond},
			{1000, 32, 200 * time.Millisecond},
			{5000, 32, time.Second},
			{10000, 32, time.Second},
		}
	}
	var out []LivenessScalePoint
	for _, s := range sizes {
		fmt.Fprintf(os.Stderr, "liveness scale: %d hosts (groups of %d, probe %v)...\n",
			s.hosts, s.group, s.probe)
		pt, err := MeasureLivenessScale(s.hosts, s.group, s.probe)
		if err != nil {
			return out, fmt.Errorf("scale %d: %w", s.hosts, err)
		}
		fmt.Fprintf(os.Stderr, "liveness scale: %d hosts done: warmup %.0fms, crash suspect %.1fms, dead %.1fms\n",
			s.hosts, pt.WarmupMs, pt.CrashSuspectMs, pt.CrashDeadMs)
		out = append(out, pt)
	}
	return out, nil
}

// RunEnv records where a set of numbers came from.
type RunEnv struct {
	GoVersion  string `json:"go_version"`
	OS         string `json:"goos"`
	Arch       string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// currentEnv is this process's RunEnv.
func currentEnv() RunEnv {
	return RunEnv{
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// FailoverArtifact is the machine-readable form of a detection run,
// written to BENCH_failover.json.
type FailoverArtifact struct {
	Experiment  string               `json:"experiment"`
	GeneratedAt string               `json:"generated_at"`
	Env         RunEnv               `json:"env"`
	Quick       bool                 `json:"quick"`
	Points      []FailoverPoint      `json:"points"`
	Scale       []LivenessScalePoint `json:"scale,omitempty"`
	Monitor     stats.Snapshot       `json:"monitor"` // last run's monitor metrics
}

// WriteFailoverArtifact writes the run's artifact as indented JSON.
func WriteFailoverArtifact(path string, points []FailoverPoint, scale []LivenessScalePoint, monitor stats.Snapshot, quick bool) error {
	art := FailoverArtifact{
		Experiment:  "liveness",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Env:         currentEnv(),
		Quick:       quick,
		Points:      points,
		Scale:       scale,
		Monitor:     monitor,
	}
	b, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
