package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"snipe/internal/fileserv"
	"snipe/internal/playground"
	"snipe/internal/seckey"
	"snipe/internal/task"
	"snipe/internal/testutil"
)

type detRand struct{ state uint64 }

func (r *detRand) Read(p []byte) (int, error) {
	for i := range p {
		r.state = r.state*6364136223846793005 + 1442695040888963407
		p[i] = byte(r.state >> 56)
	}
	return len(p), nil
}

// standardRegistry returns a registry with the programs integration
// tests use.
func standardRegistry() *task.Registry {
	reg := task.NewRegistry()
	reg.Register("idle", func(ctx *task.Context) error {
		<-ctx.Done()
		return task.ErrKilled
	})
	reg.Register("quick", func(ctx *task.Context) error { return nil })
	reg.Register("echo", func(ctx *task.Context) error {
		for {
			m, err := ctx.Recv(time.Second)
			if err != nil {
				select {
				case <-ctx.Done():
					return task.ErrKilled
				default:
					continue
				}
			}
			if err := ctx.Send(m.Src, m.Tag, m.Payload); err != nil {
				return err
			}
		}
	})
	reg.Register("migratable-echo", func(ctx *task.Context) error {
		for {
			select {
			case <-ctx.CheckpointRequested():
				ctx.SaveCheckpoint([]byte{1})
				return task.ErrMigrated
			case <-ctx.Done():
				return task.ErrKilled
			default:
			}
			m, err := ctx.Recv(20 * time.Millisecond)
			if err != nil {
				continue
			}
			if err := ctx.Send(m.Src, m.Tag, m.Payload); err != nil {
				return err
			}
		}
	})
	return reg
}

func newUniverse(t *testing.T, cfg Config) *Universe {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = standardRegistry()
	}
	u, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	return u
}

func twoHosts() []HostConfig {
	return []HostConfig{
		{Name: "h1", CPUs: 2, MemoryMB: 512},
		{Name: "h2", CPUs: 2, MemoryMB: 512},
	}
}

func TestUniverseInProcessSpawnAndMessage(t *testing.T) {
	u := newUniverse(t, Config{Hosts: twoHosts()})
	c, err := u.NewClient("app")
	if err != nil {
		t.Fatal(err)
	}
	urn, err := c.Spawn(task.Spec{Program: "echo"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(urn, 7, []byte("round trip")); err != nil {
		t.Fatal(err)
	}
	m, err := c.RecvMatch(urn, 7, 10*time.Second)
	if err != nil || string(m.Payload) != "round trip" {
		t.Fatalf("echo: %v %v", m, err)
	}
	if err := c.Signal(urn, task.SigKill); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitState(urn, task.StateExited, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestUniverseWithReplicatedRCServers(t *testing.T) {
	u := newUniverse(t, Config{RCServers: 3, Hosts: twoHosts()})
	c, err := u.NewClient("app")
	if err != nil {
		t.Fatal(err)
	}
	urn, err := c.Spawn(task.Spec{Program: "quick"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitState(urn, task.StateExited, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// The shared catalog client's cache counters surface in every
	// daemon's composed /stats snapshot under the "rcds." prefix.
	for _, d := range u.Daemons() {
		snap := d.MetricsSnapshot()
		for _, key := range []string{"rcds.cache_hits", "rcds.cache_misses", "rcds.failovers"} {
			if _, ok := snap.Counters[key]; !ok {
				t.Fatalf("daemon stats missing %q: %v", key, snap.Counters)
			}
		}
		break
	}
	// Kill one RC replica: the system keeps working (availability
	// through replication, §6). Replication is asynchronous, so first
	// let the survivors catch up with what the victim has accepted; a
	// survivor asked sooner may not hold the RM's registration yet.
	seen := u.RCServers()[0].Store().Vector()
	testutil.WaitFor(t, 5*time.Second, func() bool {
		for _, s := range u.RCServers()[1:] {
			if !s.Store().Vector().Dominates(seen) {
				return false
			}
		}
		return true
	}, "surviving RC replicas never caught up with replica 0")
	u.RCServers()[0].Close()
	urn2, err := c.Spawn(task.Spec{Program: "quick"})
	if err != nil {
		t.Fatalf("spawn after RC failure: %v", err)
	}
	if err := c.WaitState(urn2, task.StateExited, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestUniverseAuthenticatedRC(t *testing.T) {
	u := newUniverse(t, Config{RCServers: 2, Secret: []byte("s3cret"), Hosts: twoHosts()[:1]})
	c, err := u.NewClient("app")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Spawn(task.Spec{Program: "quick"}); err != nil {
		t.Fatal(err)
	}
}

func TestClientMetadataSharing(t *testing.T) {
	u := newUniverse(t, Config{Hosts: twoHosts()[:1]})
	a, _ := u.NewClient("a")
	b, _ := u.NewClient("b")
	if err := a.PutMeta("urn:snipe:app:shared", "phase", "2"); err != nil {
		t.Fatal(err)
	}
	a.AddMeta("urn:snipe:app:shared", "input", "f1")
	a.AddMeta("urn:snipe:app:shared", "input", "f2")
	v, ok, err := b.LookupFirst("urn:snipe:app:shared", "phase")
	if err != nil || !ok || v != "2" {
		t.Fatalf("shared meta: %q %v %v", v, ok, err)
	}
	inputs, err := b.Lookup("urn:snipe:app:shared", "input")
	if err != nil || len(inputs) != 2 {
		t.Fatalf("inputs: %v %v", inputs, err)
	}
}

func TestClientNotifyWatch(t *testing.T) {
	u := newUniverse(t, Config{Hosts: twoHosts()[:1]})
	c, _ := u.NewClient("watcher")
	urn, err := c.Spawn(task.Spec{Program: "idle", NotifyList: []string{c.URN()}})
	if err != nil {
		t.Fatal(err)
	}
	// Running notification.
	sc, err := c.NextNotify(10 * time.Second)
	if err != nil || sc.URN != urn || sc.To != task.StateRunning {
		t.Fatalf("notify 1: %+v %v", sc, err)
	}
	c.Signal(urn, task.SigKill)
	sc, err = c.NextNotify(10 * time.Second)
	if err != nil || sc.To != task.StateExited {
		t.Fatalf("notify 2: %+v %v", sc, err)
	}
}

func TestClientMulticast(t *testing.T) {
	u := newUniverse(t, Config{Hosts: twoHosts(), McastRedundancy: 2})
	group, err := u.CreateGroup("sensors")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := u.NewClient("pub")
	b, _ := u.NewClient("sub1")
	c, _ := u.NewClient("sub2")
	ma, err := a.JoinGroup(group)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := b.JoinGroup(group)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := c.JoinGroup(group)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := ma.Send(1, []byte("reading-42")); err != nil {
		t.Fatal(err)
	}
	for i, m := range []*struct {
		name string
		mem  interface {
			Recv(time.Duration) (string, uint32, []byte, error)
		}
	}{{"b", mb}, {"c", mc}} {
		_, _, data, err := m.mem.Recv(10 * time.Second)
		if err != nil || string(data) != "reading-42" {
			t.Fatalf("member %d (%s): %q %v", i, m.name, data, err)
		}
	}
}

func TestClientFiles(t *testing.T) {
	u := newUniverse(t, Config{
		Hosts:             twoHosts()[:1],
		FileServers:       2,
		ReplicationPolicy: fileserv.ReplicationPolicy{MinReplicas: 2, Interval: 50 * time.Millisecond},
	})
	c, _ := u.NewClient("app")
	data := []byte("dataset contents")
	if _, err := c.StoreFile("", "dataset.bin", data); err != nil {
		t.Fatal(err)
	}
	got, err := c.FetchFile("dataset.bin")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("fetch: %q %v", got, err)
	}
	// The replication daemon copies it to the second server.
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := 0
		for _, fs := range u.FileServers() {
			if _, ok := fs.Get("dataset.bin"); ok {
				n++
			}
		}
		if n == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication incomplete: %d copies", n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestClientMigrate(t *testing.T) {
	u := newUniverse(t, Config{Hosts: twoHosts()})
	c, _ := u.NewClient("app")
	urn, err := c.SpawnOn("h1", task.Spec{Program: "migratable-echo"})
	if err != nil {
		t.Fatal(err)
	}
	// Confirm liveness before.
	if err := c.Send(urn, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecvMatch(urn, 1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	downtime, err := c.Migrate(urn, "h2")
	if err != nil {
		t.Fatal(err)
	}
	if downtime <= 0 {
		t.Fatal("no downtime measured")
	}
	d2, _ := u.Daemon("h2")
	if st, err := d2.TaskState(urn); err != nil || st != task.StateRunning {
		t.Fatalf("after migrate: %v %v", st, err)
	}
	// Still responsive at the new home.
	if err := c.Send(urn, 2, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecvMatch(urn, 2, 10*time.Second); err != nil {
		t.Fatalf("post-migration echo: %v", err)
	}
}

func TestUniversePlayground(t *testing.T) {
	signer, err := seckey.NewPrincipal("urn:snipe:user:dev", &detRand{state: 3})
	if err != nil {
		t.Fatal(err)
	}
	trust := seckey.NewTrustStore()
	trust.Trust(seckey.PurposeCodeSigning, signer.Name, signer.Public())
	u := newUniverse(t, Config{
		Hosts:       twoHosts()[:1],
		FileServers: 1,
		Trust:       trust,
	})
	c, _ := u.NewClient("publisher")
	img := playground.SignImage(signer, "job.sc",
		playground.MustAssemble(".mem 4\npush 0\nhalt"), 0)
	if err := playground.Publish(u.Catalog(), c.Files(), u.FileServers()[0].URN(), img); err != nil {
		t.Fatal(err)
	}
	urn, err := c.Spawn(task.Spec{Program: playground.ProgramName, CodeURL: "job.sc"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitState(urn, task.StateExited, 15*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestUniverseCloseIdempotentAndClientAfterClose(t *testing.T) {
	u := newUniverse(t, Config{Hosts: twoHosts()[:1]})
	u.Close()
	u.Close()
	if _, err := u.NewClient("late"); err == nil {
		t.Fatal("client created on closed universe")
	}
}

func TestSpawnOnRequirements(t *testing.T) {
	u := newUniverse(t, Config{Hosts: []HostConfig{
		{Name: "big", CPUs: 8, MemoryMB: 4096},
		{Name: "small", CPUs: 1, MemoryMB: 64},
	}})
	c, _ := u.NewClient("app")
	// RM placement respects memory requirements.
	urn, err := c.Spawn(task.Spec{Program: "quick", Req: task.Requirements{MinMemoryMB: 1024}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(urn, ":big:") {
		t.Fatalf("placed on %s", urn)
	}
}
