package rcds

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// startReplicaGroup launches n fully meshed RC servers and has them
// closed when the test ends.
func startReplicaGroup(t *testing.T, n int, secret []byte) []*Server {
	t.Helper()
	servers := make([]*Server, n)
	for i := range servers {
		servers[i] = NewServer(NewStore(fmt.Sprintf("rc%d", i)),
			WithSecret(secret))
		if err := servers[i].Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range servers {
		var peers []string
		for j, p := range servers {
			if i != j {
				peers = append(peers, p.Addr())
			}
		}
		s.SetPeers(peers...)
	}
	t.Cleanup(func() {
		for _, s := range servers {
			s.Close()
		}
	})
	return servers
}

func groupAddrs(servers []*Server) []string {
	addrs := make([]string, len(servers))
	for i, s := range servers {
		addrs[i] = s.Addr()
	}
	return addrs
}

func TestClientPingAndBasicOps(t *testing.T) {
	servers := startReplicaGroup(t, 1, nil)
	c := NewClient(groupAddrs(servers), nil)
	defer c.Close()

	origin, err := c.Ping(context.Background())
	if err != nil || origin != "rc0" {
		t.Fatalf("Ping = %q, %v", origin, err)
	}
	if err := c.Set(context.Background(), "urn:h1", AttrArch, "linux"); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(context.Background(), "urn:h1", AttrInterface, "tcp://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(context.Background(), "urn:h1", AttrInterface, "tcp://127.0.0.1:2"); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.FirstValue(context.Background(), "urn:h1", AttrArch)
	if err != nil || !ok || v != "linux" {
		t.Fatalf("FirstValue = %q %v %v", v, ok, err)
	}
	vals, err := c.Values(context.Background(), "urn:h1", AttrInterface)
	if err != nil || len(vals) != 2 {
		t.Fatalf("Values = %v, %v", vals, err)
	}
	as, err := c.Get(context.Background(), "urn:h1")
	if err != nil || len(as) != 3 {
		t.Fatalf("Get = %v, %v", as, err)
	}
	if err := c.Remove(context.Background(), "urn:h1", AttrInterface, "tcp://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if vals, _ := c.Values(context.Background(), "urn:h1", AttrInterface); len(vals) != 1 {
		t.Fatalf("after Remove: %v", vals)
	}
	if err := c.RemoveAll(context.Background(), "urn:h1", AttrInterface); err != nil {
		t.Fatal(err)
	}
	if vals, _ := c.Values(context.Background(), "urn:h1", AttrInterface); len(vals) != 0 {
		t.Fatalf("after RemoveAll: %v", vals)
	}
	uris, err := c.URIs(context.Background(), "urn:")
	if err != nil || len(uris) != 1 {
		t.Fatalf("URIs = %v, %v", uris, err)
	}
	if _, _, _, err := c.Stats(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestClientAddSigned(t *testing.T) {
	servers := startReplicaGroup(t, 1, nil)
	c := NewClient(groupAddrs(servers), nil)
	defer c.Close()
	if err := c.AddSigned(context.Background(), "urn:p1", AttrPublicKey, "aabb", "alice", []byte{9}); err != nil {
		t.Fatal(err)
	}
	as, err := c.Get(context.Background(), "urn:p1")
	if err != nil || len(as) != 1 {
		t.Fatalf("Get = %v, %v", as, err)
	}
	if as[0].Signer != "alice" || !bytes.Equal(as[0].Signature, []byte{9}) {
		t.Fatalf("signature fields lost: %+v", as[0])
	}
}

func TestReplicationPushPropagates(t *testing.T) {
	servers := startReplicaGroup(t, 3, nil)
	c0 := NewClient([]string{servers[0].Addr()}, nil)
	defer c0.Close()
	if err := c0.Set(context.Background(), "urn:x", "n", "v"); err != nil {
		t.Fatal(err)
	}
	// The write lands on replica 0 and should propagate to 1 and 2.
	for i := 1; i < 3; i++ {
		ci := NewClient([]string{servers[i].Addr()}, nil)
		waitValue(t, ci, "urn:x", "n", 3*time.Second)
		ci.Close()
	}
}

func TestAntiEntropyHealsPartition(t *testing.T) {
	servers := startReplicaGroup(t, 2, nil)
	// Write directly to replica 0's store while replica 1 is "down".
	servers[1].Close()
	c0 := NewClient([]string{servers[0].Addr()}, nil)
	defer c0.Close()
	if err := c0.Set(context.Background(), "urn:healed", "n", "v"); err != nil {
		t.Fatal(err)
	}
	// Bring replica 1 back on a fresh listener over the same store.
	revived := NewServer(servers[1].Store(),
		WithPeers(servers[0].Addr()))
	if err := revived.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer revived.Close()
	c1 := NewClient([]string{revived.Addr()}, nil)
	defer c1.Close()
	waitValue(t, c1, "urn:healed", "n", 3*time.Second) // the pull on start heals
}

func TestClientFailover(t *testing.T) {
	servers := startReplicaGroup(t, 3, nil)
	c := NewClient(groupAddrs(servers), nil, WithTimeout(500*time.Millisecond))
	defer c.Close()
	if err := c.Set(context.Background(), "urn:a", "n", "1"); err != nil {
		t.Fatal(err)
	}
	// Kill the replica the client is connected to; the next request
	// must fail over transparently.
	servers[0].Close()
	if err := c.Set(context.Background(), "urn:a", "n2", "2"); err != nil {
		t.Fatalf("failover Set: %v", err)
	}
	if _, ok, err := c.FirstValue(context.Background(), "urn:a", "n2"); err != nil || !ok {
		t.Fatalf("failover read: %v %v", ok, err)
	}
}

func TestClientAllServersDown(t *testing.T) {
	c := NewClient([]string{"127.0.0.1:1"}, nil, WithTimeout(200*time.Millisecond)) // nothing listening
	defer c.Close()
	if _, err := c.Ping(context.Background()); !errors.Is(err, ErrNoServers) {
		t.Fatalf("want ErrNoServers, got %v", err)
	}
}

func TestHMACAuthentication(t *testing.T) {
	secret := []byte("rc-shared-secret")
	servers := startReplicaGroup(t, 2, secret)

	good := NewClient(groupAddrs(servers), secret)
	defer good.Close()
	if err := good.Set(context.Background(), "urn:s", "n", "v"); err != nil {
		t.Fatalf("authenticated client: %v", err)
	}

	// Wrong secret: the server rejects the frame and drops the
	// connection; the client sees no servers.
	bad := NewClient(groupAddrs(servers), []byte("wrong"), WithTimeout(300*time.Millisecond))
	defer bad.Close()
	if _, err := bad.Ping(context.Background()); err == nil {
		t.Fatal("wrong secret accepted")
	}

	// No secret at all likewise fails.
	none := NewClient(groupAddrs(servers), nil, WithTimeout(300*time.Millisecond))
	defer none.Close()
	if _, err := none.Ping(context.Background()); err == nil {
		t.Fatal("missing MAC accepted")
	}

	// Replication still works between authenticated peers.
	c1 := NewClient([]string{servers[1].Addr()}, secret)
	defer c1.Close()
	waitValue(t, c1, "urn:s", "n", 3*time.Second)
}

func TestWaitLongPoll(t *testing.T) {
	servers := startReplicaGroup(t, 1, nil)
	c := NewClient(groupAddrs(servers), nil)
	defer c.Close()
	v0, err := c.waitOn(context.Background(), c.seed, 0, 10*time.Millisecond) // immediate: version 0 exceeded? version starts at 0
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan uint64, 1)
	go func() {
		v, err := c.waitOn(context.Background(), c.seed, v0, 5*time.Second)
		if err != nil {
			t.Errorf("Wait: %v", err)
		}
		done <- v
	}()
	time.Sleep(30 * time.Millisecond)
	c2 := NewClient(groupAddrs(servers), nil)
	defer c2.Close()
	if err := c2.Set(context.Background(), "urn:w", "n", "v"); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-done:
		if v <= v0 {
			t.Fatalf("version did not advance: %d <= %d", v, v0)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("long poll never woke")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	s := NewServer(NewStore("x"))
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // must not panic or deadlock
}

func TestConcurrentClients(t *testing.T) {
	servers := startReplicaGroup(t, 2, nil)
	addrs := groupAddrs(servers)
	const nClients = 8
	errs := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		go func(id int) {
			c := NewClient(addrs, nil)
			defer c.Close()
			for j := 0; j < 20; j++ {
				uri := fmt.Sprintf("urn:c%d", id)
				if err := c.Set(context.Background(), uri, "n", fmt.Sprintf("%d", j)); err != nil {
					errs <- err
					return
				}
				if _, _, err := c.FirstValue(context.Background(), uri, "n"); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < nClients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Both replicas eventually hold all writes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, e0, _ := servers[0].Store().Stats()
		_, e1, _ := servers[1].Store().Stats()
		if e0 == e1 && e0 >= nClients {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas did not converge: %d vs %d", e0, e1)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func BenchmarkRPCSet(b *testing.B) {
	s := NewServer(NewStore("bench"))
	if err := s.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c := NewClient([]string{s.Addr()}, nil)
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Set(context.Background(), "urn:bench", "n", "v"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRPCGet(b *testing.B) {
	s := NewServer(NewStore("bench"))
	if err := s.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c := NewClient([]string{s.Addr()}, nil)
	defer c.Close()
	c.Set(context.Background(), "urn:bench", "n", "v")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get(context.Background(), "urn:bench"); err != nil {
			b.Fatal(err)
		}
	}
}
