package rcds

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"snipe/internal/testutil"
)

func TestShardKeyNormalizesSpellings(t *testing.T) {
	cases := []struct{ uri, want string }{
		{"snipe://hosts/h1", "hosts/h1"},
		{"urn:snipe:process:p1", "snipe:process:p1"},
		{"plain/path", "plain/path"},
		{"snipe://config/rcds/shard-map", "config/rcds/shard-map"},
	}
	for _, tc := range cases {
		if got := ShardKey(tc.uri); got != tc.want {
			t.Errorf("ShardKey(%q) = %q, want %q", tc.uri, got, tc.want)
		}
	}
}

func TestShardOfStableAndBounded(t *testing.T) {
	for n := 1; n <= 16; n *= 2 {
		for i := 0; i < 1000; i++ {
			uri := fmt.Sprintf("snipe://hosts/h%d", i)
			g := ShardOf(uri, n)
			if g < 0 || g >= n {
				t.Fatalf("ShardOf(%q, %d) = %d out of range", uri, n, g)
			}
			if again := ShardOf(uri, n); again != g {
				t.Fatalf("ShardOf(%q, %d) unstable: %d then %d", uri, n, g, again)
			}
		}
	}
}

func TestShardOfDistribution(t *testing.T) {
	const n, keys = 4, 20000
	counts := make([]int, n)
	for i := 0; i < keys; i++ {
		counts[ShardOf(fmt.Sprintf("snipe://files/f%d", i), n)]++
	}
	for g, c := range counts {
		// Perfectly uniform would be keys/n; allow ±25%.
		if c < keys/n*3/4 || c > keys/n*5/4 {
			t.Fatalf("group %d holds %d of %d keys: skewed %v", g, c, keys, counts)
		}
	}
}

func TestJumpHashMinimalMovement(t *testing.T) {
	// Growing 4 -> 5 groups must move only keys destined for the new
	// group — roughly 1/5 of them — and never relocate between old
	// groups.
	const keys = 10000
	moved := 0
	for i := 0; i < keys; i++ {
		uri := fmt.Sprintf("urn:snipe:process:p%d", i)
		before, after := ShardOf(uri, 4), ShardOf(uri, 5)
		if before != after {
			moved++
			if after != 4 {
				t.Fatalf("%q moved between old groups: %d -> %d", uri, before, after)
			}
		}
	}
	if moved < keys/10 || moved > keys*3/10 {
		t.Fatalf("moved %d of %d keys on 4->5 growth, want ~1/5", moved, keys)
	}
}

func TestShardMapFormatParseRoundTrip(t *testing.T) {
	m := &ShardMap{Epoch: 7, Groups: [][]string{
		{"h1:100", "h2:100"},
		{"h3:100"},
		{"h4:100", "h5:100", "h6:100"},
	}}
	got, err := ParseShardMap(m.Format())
	if err != nil {
		t.Fatalf("ParseShardMap(%q): %v", m.Format(), err)
	}
	if got.Epoch != m.Epoch || got.NumShards() != m.NumShards() {
		t.Fatalf("round trip lost shape: %+v vs %+v", got, m)
	}
	for i := range m.Groups {
		if len(got.Groups[i]) != len(m.Groups[i]) {
			t.Fatalf("group %d: %v vs %v", i, got.Groups[i], m.Groups[i])
		}
		for j := range m.Groups[i] {
			if got.Groups[i][j] != m.Groups[i][j] {
				t.Fatalf("group %d addr %d: %q vs %q", i, j, got.Groups[i][j], m.Groups[i][j])
			}
		}
	}
}

func TestParseShardMapNegative(t *testing.T) {
	for _, s := range []string{
		"",
		"v2 epoch=1 groups=a",
		"v1 groups=a",
		"v1 epoch=x groups=a",
		"v1 epoch=1",
		"v1 epoch=1 groups=",
		"v1 epoch=1 groups=a,,b",
	} {
		if _, err := ParseShardMap(s); !errors.Is(err, ErrBadShardMap) {
			t.Errorf("ParseShardMap(%q) err = %v, want ErrBadShardMap", s, err)
		}
	}
}

func TestIsConfigURIExemption(t *testing.T) {
	if !IsConfigURI(ShardMapURI) {
		t.Fatal("the shard map URI itself must be config-exempt")
	}
	if IsConfigURI("snipe://hosts/h1") {
		t.Fatal("host URIs are not config")
	}
}

// startShardedCatalog launches groups of nReplicas servers each, all
// shard-enforcing under one map, which each writes into its config
// namespace as a deployment's replicas do, and returns the map plus all
// servers (group-major).
func startShardedCatalog(t *testing.T, groups, nReplicas int) (*ShardMap, [][]*Server) {
	t.Helper()
	m := &ShardMap{Epoch: 1}
	all := make([][]*Server, groups)
	for g := 0; g < groups; g++ {
		all[g] = startReplicaGroup(t, nReplicas, nil)
		m.Groups = append(m.Groups, groupAddrs(all[g]))
	}
	for g := range all {
		for _, s := range all[g] {
			s.SetShard(g, m)
			s.Store().Set(ShardMapURI, AttrShardMap, m.Format())
		}
	}
	return m, all
}

func TestServerEnforcesShardOwnership(t *testing.T) {
	m, all := startShardedCatalog(t, 3, 1)
	// Requests sent to group 0 whatever the map says (roundTrip on the
	// seed group, under the client's routing) must be redirected for URIs
	// the map assigns elsewhere.
	c := NewClient(m.Groups[0], nil)
	defer c.Close()
	raw := func(cmd uint8, fields ...string) error {
		cl := newCall(cmd)
		defer cl.release()
		for _, f := range fields {
			cl.req.PutString(f)
		}
		return c.roundTrip(context.Background(), c.seed, cl)
	}
	var foreign string
	for i := 0; ; i++ {
		u := fmt.Sprintf("snipe://hosts/h%d", i)
		if m.Owner(u) != 0 {
			foreign = u
			break
		}
	}
	err := raw(cmdSet, foreign, AttrArch, "linux")
	var ws *WrongShardError
	if !errors.As(err, &ws) {
		t.Fatalf("foreign write err = %v, want WrongShardError", err)
	}
	if ws.Group != m.Owner(foreign) || ws.Epoch != m.Epoch {
		t.Fatalf("redirect %+v, want group %d epoch %d", ws, m.Owner(foreign), m.Epoch)
	}
	if errors.Is(err, ErrWrongShard) == false {
		t.Fatal("WrongShardError must unwrap to ErrWrongShard")
	}
	// Reads are redirected too.
	if err := raw(cmdGet, foreign); !errors.As(err, &ws) {
		t.Fatalf("foreign read err = %v, want WrongShardError", err)
	}
	// Config URIs are served anywhere.
	if err := raw(cmdSet, ConfigPrefix+"x", "k", "v"); err != nil {
		t.Fatalf("config write rejected: %v", err)
	}
	if all[0][0].Store().Metrics().Snapshot().Counters["shard_rejects"] == 0 {
		t.Fatal("shard_rejects counter did not move")
	}
}

func TestRoutingClientSpansShards(t *testing.T) {
	m, all := startShardedCatalog(t, 4, 1)
	c := NewClient(m.Groups[0], nil)
	defer c.Close()

	const n = 64
	owned := make([]int, m.NumShards())
	for i := 0; i < n; i++ {
		uri := fmt.Sprintf("snipe://hosts/h%d", i)
		if err := c.Set(context.Background(), uri, AttrArch, fmt.Sprintf("a%d", i)); err != nil {
			t.Fatalf("Set %s: %v", uri, err)
		}
		owned[m.Owner(uri)]++
	}
	for g := range owned {
		if owned[g] == 0 {
			t.Fatalf("no test URI landed on group %d; widen n", g)
		}
	}
	// Every write landed on its owning group and only there.
	for g, servers := range all {
		uris, _, _ := servers[0].Store().Stats()
		want := owned[g] + 1 // + the shard map config entry
		if uris != want {
			t.Fatalf("group %d holds %d URIs, want %d", g, uris, want)
		}
	}
	// Reads route the same way.
	for i := 0; i < n; i++ {
		uri := fmt.Sprintf("snipe://hosts/h%d", i)
		v, ok, err := c.FirstValue(context.Background(), uri, AttrArch)
		if err != nil || !ok || v != fmt.Sprintf("a%d", i) {
			t.Fatalf("FirstValue(%s) = %q %v %v", uri, v, ok, err)
		}
	}
	// URIs fans out and merges across groups.
	uris, err := c.URIs(context.Background(), "snipe://hosts/")
	if err != nil || len(uris) != n {
		t.Fatalf("URIs = %d entries, %v; want %d", len(uris), err, n)
	}
	// Stats sums across groups: n host URIs + one map entry per group.
	u, _, _, err := c.Stats(context.Background())
	if err != nil || u != n+m.NumShards() {
		t.Fatalf("Stats uris = %d, %v; want %d", u, err, n+m.NumShards())
	}
	if c.ShardMap() == nil || c.ShardMap().Epoch != m.Epoch {
		t.Fatalf("client map %+v, want epoch %d", c.ShardMap(), m.Epoch)
	}
	snap := c.MetricsSnapshot()
	if snap.Counters["shard_map_resolves"] == 0 {
		t.Fatal("client never resolved the shard map")
	}
	if snap.Counters["wrong_shard_redirects"] != 0 {
		t.Fatal("fresh-map routing should see no redirects")
	}
}

func TestRoutingClientRecoversFromStaleMap(t *testing.T) {
	m, all := startShardedCatalog(t, 2, 1)
	c := NewClient(m.Groups[0], nil)
	defer c.Close()
	// Resolve the epoch-1 map.
	if err := c.Set(context.Background(), "snipe://hosts/seed", AttrArch, "x"); err != nil {
		t.Fatal(err)
	}

	// Reshard: grow to 3 groups (epoch 2). The new group's servers join
	// the fabric; old servers learn the new map; the client still holds
	// epoch 1.
	extra := startReplicaGroup(t, 1, nil)
	m2 := &ShardMap{Epoch: 2, Groups: append(append([][]string{}, m.Groups...), groupAddrs(extra))}
	for g, servers := range append(all, extra) {
		for _, s := range servers {
			s.SetShard(g, m2)
			s.Store().Set(ShardMapURI, AttrShardMap, m2.Format())
		}
	}

	// Find a URI the new map moves to the new group; the client's stale
	// map routes it to an old group, which redirects.
	var moved string
	for i := 0; ; i++ {
		u := fmt.Sprintf("snipe://hosts/m%d", i)
		if m2.Owner(u) == 2 && m.Owner(u) != 2 {
			moved = u
			break
		}
	}
	if err := c.Set(context.Background(), moved, AttrArch, "relocated"); err != nil {
		t.Fatalf("write after reshard: %v", err)
	}
	if got := c.ShardMap().Epoch; got != 2 {
		t.Fatalf("client map epoch %d after redirect, want 2", got)
	}
	if c.MetricsSnapshot().Counters["wrong_shard_redirects"] == 0 {
		t.Fatal("redirect counter did not move")
	}
	uris, _, _ := extra[0].Store().Stats()
	if uris != 2 { // the moved URI + the shard-map entry
		t.Fatalf("new group holds %d URIs, want 2", uris)
	}
}

func TestWaitURIWatchesOwningGroup(t *testing.T) {
	m, _ := startShardedCatalog(t, 2, 1)
	c := NewClient(m.Groups[0], nil)
	defer c.Close()
	w := NewClient(m.Groups[0], nil)
	defer w.Close()

	// Pick a URI owned by group 1: the seed group's version stream
	// never advances for it, so only a routed wait can see the write.
	uri := uriOwnedBy(m, 1, "w")
	ctx := ctxTimeout(t, "10s")
	since, err := w.WaitURI(ctx, uri, 0, 0) // the owning group's version now
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		v, err := w.WaitURI(ctx, uri, since, 5*time.Second)
		if err == nil && v <= since {
			err = fmt.Errorf("the wait returned version %d, not past %d", v, since)
		}
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := c.Set(context.Background(), uri, AttrArch, "up"); err != nil {
		t.Fatal(err)
	}
	testutil.WaitFor(t, 5*time.Second, func() bool {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("WaitURI: %v", err)
			}
			return true
		default:
			return false
		}
	}, "routed WaitURI never woke")
}

func TestShardedReadCacheCoherence(t *testing.T) {
	m, _ := startShardedCatalog(t, 2, 1)
	c := NewClient(m.Groups[0], nil, WithReadCache())
	defer c.Close()
	writer := NewClient(m.Groups[0], nil)
	defer writer.Close()

	uri := uriOwnedBy(m, 1, "c")
	if err := writer.Set(context.Background(), uri, AttrArch, "v1"); err != nil {
		t.Fatal(err)
	}
	// Warm the owning group's cache and wait for a cached hit.
	testutil.WaitFor(t, 5*time.Second, func() bool {
		before := c.MetricsSnapshot().Counters["cache_hits"]
		v, ok, err := c.FirstValue(context.Background(), uri, AttrArch)
		if err != nil || !ok || v != "v1" {
			t.Fatalf("FirstValue = %q %v %v", v, ok, err)
		}
		return c.MetricsSnapshot().Counters["cache_hits"] > before
	}, "read never served from the shard group's cache")
	// A foreign write through another client must invalidate via the
	// owning group's watch and become visible.
	if err := writer.Set(context.Background(), uri, AttrArch, "v2"); err != nil {
		t.Fatal(err)
	}
	testutil.WaitFor(t, 5*time.Second, func() bool {
		v, _, err := c.FirstValue(context.Background(), uri, AttrArch)
		if err != nil {
			t.Fatalf("FirstValue: %v", err)
		}
		return v == "v2"
	}, "cached read never converged to the foreign write")
}

// uriOwnedBy returns a host URI the map assigns to group g.
func uriOwnedBy(m *ShardMap, g int, tag string) string {
	for i := 0; ; i++ {
		u := fmt.Sprintf("snipe://hosts/%s%d", tag, i)
		if m.Owner(u) == g {
			return u
		}
	}
}

// TestDefaultClientReachesShardedCatalog deploys two one-replica groups
// the way `snipe-rcserver -shard-map … -shard-self N` does — WithShard
// on the server, the map seeded into each store's config namespace —
// and drives them with the client every shipped binary builds:
// NewClient on group 0's addresses, with and without the read cache.
// Every operation must reach URIs of both groups.
func TestDefaultClientReachesShardedCatalog(t *testing.T) {
	// The binary is told its group's addresses before it listens, so
	// the map names ports picked here and released for the servers.
	m := &ShardMap{Epoch: 1}
	var picked []net.Listener
	for g := 0; g < 2; g++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		picked = append(picked, ln) // held so the two ports differ
		m.Groups = append(m.Groups, []string{ln.Addr().String()})
	}
	for _, ln := range picked {
		ln.Close()
	}
	var stores []*Store
	for g := 0; g < 2; g++ {
		store := NewStore(fmt.Sprintf("dflt-g%d", g))
		store.Set(ShardMapURI, AttrShardMap, m.Format())
		s := NewServer(store, WithShard(g, m))
		if err := s.Start(m.Groups[g][0]); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		stores = append(stores, store)
	}

	for _, tc := range []struct {
		name string
		opts []ClientOption
	}{
		{"plain", nil},
		{"read cache", []ClientOption{WithReadCache()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewClient(m.Groups[0], nil, tc.opts...)
			defer c.Close()
			ctx := ctxTimeout(t, "10s")
			tag := strings.ReplaceAll(tc.name, " ", "") + "-"
			for g := 0; g < 2; g++ {
				uri := uriOwnedBy(m, g, tag)
				ver := stores[g].Version()
				if err := c.Set(ctx, uri, AttrArch, "linux"); err != nil {
					t.Fatalf("Set on group %d: %v", g, err)
				}
				if v, ok, err := c.FirstValue(ctx, uri, AttrArch); err != nil || !ok || v != "linux" {
					t.Fatalf("FirstValue on group %d = %q %v %v", g, v, ok, err)
				}
				if vals, err := c.Values(ctx, uri, AttrArch); err != nil || len(vals) != 1 || vals[0] != "linux" {
					t.Fatalf("Values on group %d = %v %v", g, vals, err)
				}
				// The Set advanced the owning group's version stream, so
				// a wait on the version before it returns at once.
				if v, err := c.WaitURI(ctx, uri, ver, 5*time.Second); err != nil || v <= ver {
					t.Fatalf("WaitURI on group %d = %d %v, want > %d", g, v, err, ver)
				}
				if _, ok := stores[g].FirstValue(uri, AttrArch); !ok {
					t.Fatalf("the write to %s did not land on group %d", uri, g)
				}
			}
			uris, err := c.URIs(ctx, "snipe://hosts/"+tag)
			if err != nil || len(uris) != 2 {
				t.Fatalf("URIs = %v %v, want one per group", uris, err)
			}
			var want int
			for _, store := range stores {
				u, _, _ := store.Stats()
				want += u
			}
			if u, _, _, err := c.Stats(ctx); err != nil || u != want {
				t.Fatalf("Stats uris = %d %v, want %d", u, err, want)
			}
		})
	}
}

// TestUnshardedClientResolvesMapOnce: against a catalog that publishes
// no shard map, the default client asks for one exactly once and is
// never redirected; a map published later reaches it through the first
// wrong-shard redirect.
func TestUnshardedClientResolvesMapOnce(t *testing.T) {
	s0 := startTestServer(t, "late-g0")
	c := NewClient([]string{s0.Addr()}, nil)
	defer c.Close()
	ctx := ctxTimeout(t, "30s")

	for i := 0; i < 1000; i++ {
		uri := fmt.Sprintf("snipe://hosts/u%d", i%50)
		var err error
		switch i % 4 {
		case 0:
			err = c.Set(ctx, uri, AttrArch, fmt.Sprintf("a%d", i))
		case 1:
			_, _, err = c.FirstValue(ctx, uri, AttrArch)
		case 2:
			_, err = c.Values(ctx, uri, AttrArch)
		case 3:
			_, err = c.Get(ctx, uri)
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	snap := c.MetricsSnapshot()
	if got := snap.Counters["shard_map_resolves"]; got != 1 {
		t.Fatalf("shard_map_resolves = %d over 1,000 unsharded ops, want 1", got)
	}
	if got := snap.Counters["wrong_shard_redirects"]; got != 0 {
		t.Fatalf("wrong_shard_redirects = %d, want 0", got)
	}

	// The deployment shards: a second group appears and both enforce.
	s1 := startTestServer(t, "late-g1")
	m := &ShardMap{Epoch: 1, Groups: [][]string{{s0.Addr()}, {s1.Addr()}}}
	for g, s := range []*Server{s0, s1} {
		s.SetShard(g, m)
		s.Store().Set(ShardMapURI, AttrShardMap, m.Format())
	}
	moved := uriOwnedBy(m, 1, "late")
	if err := c.Set(ctx, moved, AttrArch, "relocated"); err != nil {
		t.Fatalf("write after the map appeared: %v", err)
	}
	if _, ok := s1.Store().FirstValue(moved, AttrArch); !ok {
		t.Fatal("the write did not land on the new owner")
	}
	snap = c.MetricsSnapshot()
	if r, w := snap.Counters["shard_map_resolves"], snap.Counters["wrong_shard_redirects"]; r != 2 || w != 1 {
		t.Fatalf("after one redirect: resolves %d redirects %d, want 2 and 1", r, w)
	}
}
