package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"snipe/internal/rcds"
	"snipe/internal/stats"
)

// Catalog-at-scale experiment (DESIGN.md "Sharded catalog"): a
// million-URI population loaded through one client into a
// catalog partitioned across replica groups, then read back, watched by
// thousands of long-poll watchers, and finally healed through the
// snapshot rejoin path. The run verifies the sharding claims with the
// replicas' own counters: writes fan out only within the owning group,
// nothing lands cross-shard, and a rejoining replica converges via the
// compacted snapshot instead of replaying the write history.

// CatalogConfig sizes one catalog-at-scale run.
type CatalogConfig struct {
	Groups      int // shard groups (replica groups)
	Replicas    int // replicas per group
	URIs        int // catalog population written through the client
	Writers     int // concurrent writer goroutines
	Reads       int // random point reads in the read phase
	Watchers    int // concurrent WaitURI watchers in the fan-out phase
	CompactKeep int // per-origin op-log tail the replicas keep
}

// CatalogDefaults returns the paper-scale configuration, or a reduced
// one for CI smoke runs.
func CatalogDefaults(quick bool) CatalogConfig {
	if quick {
		return CatalogConfig{Groups: 4, Replicas: 2, URIs: 20_000, Writers: 32, Reads: 4_000, Watchers: 400, CompactKeep: 512}
	}
	return CatalogConfig{Groups: 4, Replicas: 2, URIs: 1_000_000, Writers: 128, Reads: 50_000, Watchers: 10_000, CompactKeep: 4096}
}

// CatalogResult is one run's measurements and verification counters.
type CatalogResult struct {
	Groups   int `json:"groups"`
	Replicas int `json:"replicas"`
	URIs     int `json:"uris"`
	Writers  int `json:"writers"`

	LoadSecs       float64 `json:"load_secs"`
	WriteOpsPerSec float64 `json:"write_ops_per_sec"`
	// Request write calls per request frame the load's client issued: the
	// writers share its connections, and concurrent requests go out together.
	LoadWritesPerFrame float64 `json:"load_request_writes_per_frame"`
	// What one URI costs one replica to hold: the process's settled heap
	// after the load, less what it was before the replicas were made, over
	// URIs × replicas. Every replica's op log is compacted to its tail
	// first and counts; the loading client keeps no table of the URIs.
	HeapBytesPerURI float64 `json:"heap_bytes_per_uri"`

	Reads         int     `json:"reads"`
	ReadOpsPerSec float64 `json:"read_ops_per_sec"`
	ReadP50Ms     float64 `json:"read_p50_ms"`
	ReadP99Ms     float64 `json:"read_p99_ms"`

	// Placement proof: URIs held per group, misplaced URIs in a sampled
	// cross-check of non-owning groups, origins appearing in a group's
	// version vector that belong to another group's replicas, and the
	// wrong-shard wire counters (server rejects, client redirects).
	PerGroupURIs        []int  `json:"per_group_uris"`
	PlacementSample     int    `json:"placement_sample"`
	MisplacedURIs       int    `json:"misplaced_uris"`
	CrossGroupOrigins   int    `json:"cross_group_origins"`
	ShardRejects        uint64 `json:"shard_rejects"`
	WrongShardRedirects uint64 `json:"wrong_shard_redirects"`
	ShardMapResolves    uint64 `json:"shard_map_resolves"`

	Watchers       int     `json:"watchers"`
	WatchTimeouts  int     `json:"watch_timeouts"`
	WatchWakeP50Ms float64 `json:"watch_wake_p50_ms"`
	WatchWakeP99Ms float64 `json:"watch_wake_p99_ms"`

	// Rejoin proof: ops the downed replica missed vs elements it pulled
	// via the compacted snapshot, and the serving side's page counter.
	RejoinHistoryOps    int     `json:"rejoin_history_ops"`
	RejoinSnapshotOps   int     `json:"rejoin_snapshot_ops"`
	SnapshotPagesServed uint64  `json:"snapshot_pages_served"`
	RejoinUsedSnapshot  bool    `json:"rejoin_used_snapshot"`
	RejoinConverged     bool    `json:"rejoin_converged"`
	RejoinSecs          float64 `json:"rejoin_secs"`
}

// catURI names the i-th population URI. The path hashes through
// ShardKey, so the population spreads across groups.
func catURI(i int) string { return fmt.Sprintf("snipe://files/bench/%08d", i) }

// waitUntil polls cond every poll until it holds or timeout elapses.
func waitUntil(timeout, poll time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(poll)
	}
	return true
}

func vecSum(v rcds.VersionVector) uint64 {
	var sum uint64
	for _, seq := range v {
		sum += seq
	}
	return sum
}

// MeasureCatalog runs the full experiment: bulk load, placement
// verification, random reads, watch fan-out, and a compacted-snapshot
// rejoin of a downed replica.
func MeasureCatalog(cfg CatalogConfig) (CatalogResult, error) {
	res := CatalogResult{Groups: cfg.Groups, Replicas: cfg.Replicas, URIs: cfg.URIs, Writers: cfg.Writers}
	ctx := context.Background()
	heapBefore := float64(stats.SettledHeap())

	// Replica groups: each an independent master–master mesh; the shard
	// map is enforced and seeded on every replica before traffic, as
	// core.Universe and snipe-rcserver do.
	groups := make([][]*rcds.Server, cfg.Groups)
	defer func() {
		for _, srvs := range groups {
			for _, s := range srvs {
				s.Close()
			}
		}
	}()
	m := &rcds.ShardMap{Epoch: 1}
	for g := range groups {
		addrs := make([]string, cfg.Replicas)
		for i := 0; i < cfg.Replicas; i++ {
			s := rcds.NewServer(rcds.NewStore(fmt.Sprintf("rc%d-%d", g, i)),
				rcds.WithLogCompaction(cfg.CompactKeep))
			if err := s.Start("127.0.0.1:0"); err != nil {
				return res, err
			}
			groups[g] = append(groups[g], s)
			addrs[i] = s.Addr()
		}
		m.Groups = append(m.Groups, addrs)
	}
	for g, srvs := range groups {
		for _, s := range srvs {
			s.SetShard(g, m)
			s.Store().Set(rcds.ShardMapURI, rcds.AttrShardMap, m.Format())
		}
	}
	for g, srvs := range groups {
		for i, s := range srvs {
			var peers []string
			for j, p := range m.Groups[g] {
				if i != j {
					peers = append(peers, p)
				}
			}
			s.SetPeers(peers...)
		}
	}
	client := rcds.NewClient(m.Groups[0], nil, rcds.WithTimeout(15*time.Second))
	defer client.Close()

	var errMu sync.Mutex
	var runErr error
	setErr := func(err error) {
		errMu.Lock()
		if runErr == nil {
			runErr = err
		}
		errMu.Unlock()
	}
	failed := func() error {
		errMu.Lock()
		defer errMu.Unlock()
		return runErr
	}

	// Phase 1: bulk load through the client, each writer taking
	// a stride of the population.
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < cfg.URIs; i += cfg.Writers {
				if err := client.Set(ctx, catURI(i), "owner", fmt.Sprintf("host%d", i%61)); err != nil {
					setErr(fmt.Errorf("load write %d: %w", i, err))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	res.LoadSecs = time.Since(start).Seconds()
	res.WriteOpsPerSec = float64(cfg.URIs) / res.LoadSecs
	cm := client.Metrics()
	res.LoadWritesPerFrame = float64(cm.Counter("request_writes").Value()) / float64(cm.Counter("request_frames").Value())
	if err := failed(); err != nil {
		return res, err
	}

	// Quiesce: every group's replicas agree on their version vectors
	// before placement is judged and watchers arm.
	if !waitUntil(60*time.Second, 50*time.Millisecond, func() bool {
		for _, srvs := range groups {
			v0 := srvs[0].Store().Vector()
			for _, s := range srvs[1:] {
				v := s.Store().Vector()
				if !v.Dominates(v0) || !v0.Dominates(v) {
					return false
				}
			}
		}
		return true
	}) {
		return res, fmt.Errorf("bench: replica groups did not converge after load")
	}
	for _, srvs := range groups {
		for _, s := range srvs {
			s.Store().Compact(cfg.CompactKeep)
		}
	}
	res.HeapBytesPerURI = (float64(stats.SettledHeap()) - heapBefore) / float64(cfg.URIs*cfg.Replicas)

	// Phase 2: placement verification. Per-group population, a sampled
	// cross-check that no URI is present on a non-owning group, vector
	// origins confined to each group's own replicas, and the wire
	// counters for wrong-shard traffic.
	for g, srvs := range groups {
		uris, _, _ := srvs[0].Store().Stats()
		res.PerGroupURIs = append(res.PerGroupURIs, uris)
		for origin := range srvs[0].Store().Vector() {
			if !strings.HasPrefix(origin, fmt.Sprintf("rc%d-", g)) {
				res.CrossGroupOrigins++
			}
		}
	}
	step := cfg.URIs / 2000
	if step < 1 {
		step = 1
	}
	for i := 0; i < cfg.URIs; i += step {
		uri := catURI(i)
		owner := m.Owner(uri)
		res.PlacementSample++
		for g, srvs := range groups {
			if g == owner {
				continue
			}
			if _, ok := srvs[0].Store().FirstValue(uri, "owner"); ok {
				res.MisplacedURIs++
			}
		}
	}
	for _, srvs := range groups {
		for _, s := range srvs {
			res.ShardRejects += s.Store().Metrics().Counter("shard_rejects").Value()
		}
	}
	res.WrongShardRedirects = client.Metrics().Counter("wrong_shard_redirects").Value()
	res.ShardMapResolves = client.Metrics().Counter("shard_map_resolves").Value()

	// Phase 3: random point reads through the router.
	readers := cfg.Writers
	if readers > 64 {
		readers = 64
	}
	perReader := cfg.Reads / readers
	latCh := make(chan []float64, readers)
	start = time.Now()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			lats := make([]float64, 0, perReader)
			for k := 0; k < perReader; k++ {
				i := rng.Intn(cfg.URIs)
				t := time.Now()
				_, ok, err := client.FirstValue(ctx, catURI(i), "owner")
				if err != nil || !ok {
					setErr(fmt.Errorf("read %s: ok=%v err=%v", catURI(i), ok, err))
					return
				}
				lats = append(lats, float64(time.Since(t).Microseconds())/1e3)
			}
			latCh <- lats
		}(int64(r) + 1)
	}
	wg.Wait()
	readSecs := time.Since(start).Seconds()
	close(latCh)
	if err := failed(); err != nil {
		return res, err
	}
	var readLats []float64
	for l := range latCh {
		readLats = append(readLats, l...)
	}
	res.Reads = len(readLats)
	res.ReadOpsPerSec = float64(res.Reads) / readSecs
	res.ReadP50Ms = pctlMs(readLats, 0.50)
	res.ReadP99Ms = pctlMs(readLats, 0.99)

	// Phase 4: watch fan-out. Watchers arm a long-poll on the version
	// stream of the group owning their URI; one write per group then
	// wakes every watcher of that group at once — the worst-case
	// thundering herd — and each watcher records write-to-wake latency.
	res.Watchers = cfg.Watchers
	wakeURIs := make([]string, cfg.Groups)
	for g := range wakeURIs {
		for j := 0; ; j++ {
			uri := fmt.Sprintf("snipe://files/bench/wake/%d", j)
			if m.Owner(uri) == g {
				wakeURIs[g] = uri
				break
			}
		}
	}
	var ready, watchers sync.WaitGroup
	startCh := make(chan struct{})
	wakeLats := make([]float64, cfg.Watchers)
	var t0 time.Time
	for i := 0; i < cfg.Watchers; i++ {
		ready.Add(1)
		watchers.Add(1)
		go func(i int) {
			defer watchers.Done()
			uri := catURI(i % cfg.URIs)
			wakeLats[i] = -1
			v0, err := client.WaitURI(ctx, uri, 0, 10*time.Millisecond)
			ready.Done()
			if err != nil {
				return
			}
			<-startCh
			wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
			defer cancel()
			v, err := client.WaitURI(wctx, uri, v0, 25*time.Second)
			if err != nil || v <= v0 {
				return
			}
			wakeLats[i] = float64(time.Since(t0).Microseconds()) / 1e3
		}(i)
	}
	ready.Wait()
	t0 = time.Now()
	close(startCh)
	for g := range wakeURIs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if err := client.Set(ctx, wakeURIs[g], "wake", "now"); err != nil {
				setErr(fmt.Errorf("wake write group %d: %w", g, err))
			}
		}(g)
	}
	wg.Wait()
	watchers.Wait()
	if err := failed(); err != nil {
		return res, err
	}
	var wakeOK []float64
	for _, l := range wakeLats {
		if l < 0 {
			res.WatchTimeouts++
		} else {
			wakeOK = append(wakeOK, l)
		}
	}
	res.WatchWakeP50Ms = pctlMs(wakeOK, 0.50)
	res.WatchWakeP99Ms = pctlMs(wakeOK, 0.99)

	// Phase 5: rejoin via compacted snapshot. Down one group-0 replica,
	// overwrite-churn more history than the whole group-0 catalog holds,
	// compact the survivors past the victim's vector, then restart it
	// over its old store: it must converge by pulling the snapshot
	// (O(catalog)) rather than replaying the churn (O(history)).
	victim := groups[0][cfg.Replicas-1]
	victimStore := victim.Store()
	missedBase := vecSum(victimStore.Vector())
	victim.Close()

	g0URIs, _, _ := groups[0][0].Store().Stats()
	churn := 3 * cfg.CompactKeep
	if min := g0URIs * 3 / 2; churn < min {
		churn = min
	}
	var targets []string
	for i := 0; len(targets) < 64 && i < cfg.URIs; i++ {
		if uri := catURI(i); m.Owner(uri) == 0 {
			targets = append(targets, uri)
		}
	}
	if len(targets) == 0 {
		return res, fmt.Errorf("bench: no group-0 URIs in population")
	}
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < churn; i += cfg.Writers {
				// Cycle two values so the churn supersedes in place: the
				// catalog stays O(population) while the history grows.
				if err := client.Set(ctx, targets[i%len(targets)], "owner", fmt.Sprintf("v%d", i%2)); err != nil {
					setErr(fmt.Errorf("churn write %d: %w", i, err))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := failed(); err != nil {
		return res, err
	}
	survivors := groups[0][:cfg.Replicas-1]
	if !waitUntil(60*time.Second, 50*time.Millisecond, func() bool {
		v0 := survivors[0].Store().Vector()
		for _, s := range survivors[1:] {
			v := s.Store().Vector()
			if !v.Dominates(v0) || !v0.Dominates(v) {
				return false
			}
		}
		return true
	}) {
		return res, fmt.Errorf("bench: surviving replicas did not converge after churn")
	}
	res.RejoinHistoryOps = int(vecSum(survivors[0].Store().Vector()) - missedBase)
	pagesBefore := uint64(0)
	for _, s := range survivors {
		s.Store().Compact(cfg.CompactKeep)
		pagesBefore += s.Store().Metrics().Counter("snapshot_pages_served").Value()
	}

	peers := make([]string, len(survivors))
	for i, s := range survivors {
		peers[i] = s.Addr()
	}
	rejoined := rcds.NewServer(victimStore,
		rcds.WithPeers(peers...),
		rcds.WithShard(0, m),
		rcds.WithLogCompaction(cfg.CompactKeep))
	rejoinStart := time.Now()
	if err := rejoined.Start("127.0.0.1:0"); err != nil {
		return res, err
	}
	defer rejoined.Close()
	// Convergence must be claimed, not coincidental: the rejoiner's
	// vector has to cover the survivor's (snapshot base merged, tail
	// applied) before the byte-identical content check counts. A
	// content-only check can pass while the sync machinery is still
	// thrashing mid-snapshot.
	res.RejoinConverged = waitUntil(240*time.Second, 500*time.Millisecond, func() bool {
		return victimStore.Vector().Dominates(survivors[0].Store().Vector()) &&
			victimStore.ContentHash() == survivors[0].Store().ContentHash()
	})
	res.RejoinSecs = time.Since(rejoinStart).Seconds()
	res.RejoinSnapshotOps = int(victimStore.Metrics().Counter("snapshot_ops_installed").Value())
	for _, s := range survivors {
		res.SnapshotPagesServed += s.Store().Metrics().Counter("snapshot_pages_served").Value()
	}
	res.SnapshotPagesServed -= pagesBefore
	res.RejoinUsedSnapshot = res.SnapshotPagesServed > 0 && res.RejoinSnapshotOps > 0
	return res, nil
}

// CatalogArtifact is the machine-readable run record, written to
// BENCH_catalog.json.
type CatalogArtifact struct {
	Experiment  string        `json:"experiment"`
	GeneratedAt string        `json:"generated_at"`
	Env         RunEnv        `json:"env"`
	Quick       bool          `json:"quick"`
	Result      CatalogResult `json:"result"`
}

// WriteCatalogArtifact writes the run's artifact as indented JSON.
func WriteCatalogArtifact(path string, result CatalogResult, quick bool) error {
	art := CatalogArtifact{
		Experiment:  "catalog",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Env:         currentEnv(),
		Quick:       quick,
		Result:      result,
	}
	b, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
