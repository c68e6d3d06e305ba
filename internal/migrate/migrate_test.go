package migrate

import (
	"testing"
	"time"

	"snipe/internal/comm"
	"snipe/internal/daemon"
	"snipe/internal/fileserv"
	"snipe/internal/naming"
	"snipe/internal/rcds"
	"snipe/internal/task"
	"snipe/internal/xdr"
)

type world struct {
	t     *testing.T
	store *rcds.Store
	cat   naming.Catalog
	reg   *task.Registry
}

func newWorld(t *testing.T) *world {
	s := rcds.NewStore("mig-test")
	w := &world{t: t, store: s, cat: naming.StoreCatalog(s), reg: task.NewRegistry()}

	// counter: receives tag-1 messages, counts them, acknowledges each
	// by sending the running count back to the controller; checkpoints
	// its count on request.
	w.reg.Register("counter", func(ctx *task.Context) error {
		count := uint32(0)
		if st := ctx.RestoredState(); st != nil {
			d := xdr.NewDecoder(st)
			v, err := d.Uint32()
			if err != nil {
				return err
			}
			count = v
		}
		for {
			select {
			case <-ctx.CheckpointRequested():
				e := xdr.NewEncoder(4)
				e.PutUint32(count)
				ctx.SaveCheckpoint(e.Bytes())
				return task.ErrMigrated
			case <-ctx.Done():
				return task.ErrKilled
			default:
			}
			m, err := ctx.RecvMatch("", 1, 20*time.Millisecond)
			if err != nil {
				continue
			}
			count++
			e := xdr.NewEncoder(8)
			e.PutUint32(count)
			e.PutUint8(m.Payload[0])
			ctx.Send("urn:controller", 2, e.Bytes())
		}
	})
	return w
}

func (w *world) daemon(host string) *daemon.Daemon {
	w.t.Helper()
	d := daemon.New(daemon.Config{HostName: host, Catalog: w.cat, Registry: w.reg})
	if err := d.Start(); err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(d.Close)
	return d
}

func (w *world) endpoint(urn string, opts ...comm.EndpointOption) *comm.Endpoint {
	w.t.Helper()
	ep := comm.NewEndpoint(urn, append([]comm.EndpointOption{
		comm.WithResolver(naming.NewResolver(w.cat)),
		comm.WithRetryInterval(50 * time.Millisecond)}, opts...)...)
	route, err := ep.Listen(comm.ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
	if err != nil {
		w.t.Fatal(err)
	}
	naming.Register(w.cat, urn, []comm.Route{route})
	w.t.Cleanup(ep.Close)
	return ep
}

// TestLocalMigrationZeroLoss drives E5's scenario: a controller
// streams numbered messages at the counter task while it migrates
// between daemons; every message must be counted exactly once, in
// order.
func TestLocalMigrationZeroLoss(t *testing.T) {
	w := newWorld(t)
	streamAndMigrateLocal(t, w, func(src, dst *daemon.Daemon, taskURN string) {
		if _, err := Local(w.cat, src, dst, taskURN, Options{}); err != nil {
			t.Errorf("migrate: %v", err)
		}
	})
}

// streamAndMigrateLocal is like streamAndMigrate but passes daemon
// handles to the migration callback.
func streamAndMigrateLocal(t *testing.T, w *world, doMigrate func(src, dst *daemon.Daemon, taskURN string)) {
	t.Helper()
	controller := w.endpoint("urn:controller")
	d1 := w.daemon("h1")
	d2 := w.daemon("h2")

	taskURN, err := d1.Spawn(task.Spec{Program: "counter"})
	if err != nil {
		t.Fatal(err)
	}
	const total = 40
	go func() {
		for i := 0; i < total; i++ {
			controller.Send(taskURN, 1, []byte{byte(i)})
			if i == total/2 {
				doMigrate(d1, d2, taskURN)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	for i := 0; i < total; i++ {
		m, err := recvMatchT(controller, "", 2, 20*time.Second)
		if err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
		d := xdr.NewDecoder(m.Payload)
		count, _ := d.Uint32()
		b, _ := d.Uint8()
		if int(count) != i+1 || int(b) != i {
			t.Fatalf("ack %d: count=%d payload=%d", i, count, b)
		}
	}
	// The task now lives on h2.
	if st, err := d2.TaskState(taskURN); err != nil || st != task.StateRunning {
		t.Fatalf("task on h2: %v %v", st, err)
	}
	// Metadata points at the new host.
	if v, _ := w.store.FirstValue(taskURN, "host"); v != d2.HostURL() {
		t.Fatalf("host metadata: %q", v)
	}
	if st, _ := w.store.FirstValue(taskURN, rcds.AttrState); st != string(task.StateRunning) {
		t.Fatalf("state metadata: %q", st)
	}
}

// TestMigrationWindow is §5.6's window as a test. Within 250 ms a sender
// resolves the task (its first message warms the sender's route cache),
// the task migrates, and the sender sends a numbered burst. The sender's
// retries are an hour away, so each message gets one transmission: every
// one must reach the task at its new host, exactly once and in order, on
// the first attempt after the catalog changed.
func TestMigrationWindow(t *testing.T) {
	w := newWorld(t)
	controller := w.endpoint("urn:controller", comm.WithRetryInterval(time.Hour))
	d1 := w.daemon("h1")
	d2 := w.daemon("h2")
	taskURN, err := d1.Spawn(task.Spec{Program: "counter"})
	if err != nil {
		t.Fatal(err)
	}
	expect := func(count uint32, b uint8) {
		t.Helper()
		m, err := recvMatchT(controller, "", 2, 5*time.Second)
		if err != nil {
			t.Fatalf("reply %d: %v", count, err)
		}
		d := xdr.NewDecoder(m.Payload)
		gotCount, _ := d.Uint32()
		gotB, _ := d.Uint8()
		if gotCount != count || gotB != b {
			t.Fatalf("reply: count=%d payload=%d, want count=%d payload=%d", gotCount, gotB, count, b)
		}
	}

	start := time.Now()
	controller.Send(taskURN, 1, []byte{0})
	expect(1, 0)
	if _, err := Local(w.cat, d1, d2, taskURN, Options{}); err != nil {
		t.Fatal(err)
	}
	const burst = 16
	for i := 1; i <= burst; i++ {
		controller.Send(taskURN, 1, []byte{byte(i)})
	}
	if el := time.Since(start); el > 250*time.Millisecond {
		t.Logf("resolve, migrate and burst took %v, past the 250 ms window", el)
	}
	for i := 1; i <= burst; i++ {
		expect(uint32(i+1), uint8(i))
	}
	if m, err := recvMatchT(controller, "", 2, 100*time.Millisecond); err == nil {
		t.Fatalf("a reply past the burst: %v", m.Payload)
	}
	if st, err := d2.TaskState(taskURN); err != nil || st != task.StateRunning {
		t.Fatalf("task on h2: %v %v", st, err)
	}
}

func TestRemoteMigration(t *testing.T) {
	w := newWorld(t)
	controller := w.endpoint("urn:controller")
	d1 := w.daemon("h1")
	d2 := w.daemon("h2")
	orchestrator := w.endpoint("urn:orchestrator")

	taskURN, err := d1.Spawn(task.Spec{Program: "counter"})
	if err != nil {
		t.Fatal(err)
	}
	// Prime the counter.
	controller.Send(taskURN, 1, []byte{0})
	if _, err := recvMatchT(controller, "", 2, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	downtime, err := Remote(w.cat, orchestrator, taskURN, d1.URN(), d2.URN(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if downtime <= 0 {
		t.Fatal("no downtime measured")
	}
	if st, err := d2.TaskState(taskURN); err != nil || st != task.StateRunning {
		t.Fatalf("after remote migrate: %v %v", st, err)
	}
	// The restored count continues from 1.
	controller.Send(taskURN, 1, []byte{1})
	m, err := recvMatchT(controller, "", 2, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	d := xdr.NewDecoder(m.Payload)
	count, _ := d.Uint32()
	if count != 2 {
		t.Fatalf("count after migration = %d, want 2", count)
	}
}

func TestMigrationWithStagedCheckpoint(t *testing.T) {
	w := newWorld(t)
	w.endpoint("urn:controller") // counter acks go here
	d1 := w.daemon("h1")
	d2 := w.daemon("h2")
	fs, err := fileserv.NewServer("fs1", w.cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	stagingEP := w.endpoint("urn:stager")
	staging := &Staging{Client: fileserv.NewClient(w.cat, stagingEP), ServerURN: fs.URN()}

	taskURN, err := d1.Spawn(task.Spec{Program: "counter"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Local(w.cat, d1, d2, taskURN, Options{Stage: staging}); err != nil {
		t.Fatal(err)
	}
	// The checkpoint LIFN is recorded and resolvable to stored bytes.
	lifnName, ok := w.store.FirstValue(taskURN, rcds.AttrSupervisorLIFN)
	if !ok {
		t.Fatal("supervisor LIFN not recorded")
	}
	data, err := staging.Client.Fetch(fs.URN(), lifnName)
	if err != nil || len(data) == 0 {
		t.Fatalf("staged checkpoint: %d bytes, %v", len(data), err)
	}
}

func TestMigrationUncooperativeTask(t *testing.T) {
	w := newWorld(t)
	w.reg.Register("stubborn", func(ctx *task.Context) error {
		<-ctx.Done()
		return task.ErrKilled
	})
	d1 := w.daemon("h1")
	d2 := w.daemon("h2")
	taskURN, err := d1.Spawn(task.Spec{Program: "stubborn"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Local(w.cat, d1, d2, taskURN, Options{CheckpointTimeout: 100 * time.Millisecond}); err == nil {
		t.Fatal("uncooperative migration succeeded")
	}
	d1.Signal(taskURN, task.SigKill)
}

func TestSequentialMigrations(t *testing.T) {
	// A task migrates h1→h2→h3→h1; its state accumulates across all
	// hops.
	w := newWorld(t)
	controller := w.endpoint("urn:controller")
	daemons := []*daemon.Daemon{w.daemon("h1"), w.daemon("h2"), w.daemon("h3")}

	taskURN, err := daemons[0].Spawn(task.Spec{Program: "counter"})
	if err != nil {
		t.Fatal(err)
	}
	expectCount := uint32(0)
	poke := func() {
		t.Helper()
		controller.Send(taskURN, 1, []byte{0})
		m, err := recvMatchT(controller, "", 2, 20*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		d := xdr.NewDecoder(m.Payload)
		count, _ := d.Uint32()
		expectCount++
		if count != expectCount {
			t.Fatalf("count = %d, want %d", count, expectCount)
		}
	}
	poke()
	for hop := 0; hop < 3; hop++ {
		src := daemons[hop%3]
		dst := daemons[(hop+1)%3]
		if _, err := Local(w.cat, src, dst, taskURN, Options{}); err != nil {
			t.Fatalf("hop %d: %v", hop, err)
		}
		poke()
	}
}

func BenchmarkMigration(b *testing.B) {
	s := rcds.NewStore("mig-bench")
	cat := naming.StoreCatalog(s)
	reg := task.NewRegistry()
	reg.Register("idle-ckpt", func(ctx *task.Context) error {
		for {
			select {
			case <-ctx.CheckpointRequested():
				ctx.SaveCheckpoint([]byte{1})
				return task.ErrMigrated
			case <-ctx.Done():
				return task.ErrKilled
			}
		}
	})
	mk := func(h string) *daemon.Daemon {
		d := daemon.New(daemon.Config{HostName: h, Catalog: cat, Registry: reg})
		if err := d.Start(); err != nil {
			b.Fatal(err)
		}
		return d
	}
	d1, d2 := mk("bh1"), mk("bh2")
	defer d1.Close()
	defer d2.Close()
	urn, err := d1.Spawn(task.Spec{Program: "idle-ckpt"})
	if err != nil {
		b.Fatal(err)
	}
	daemons := []*daemon.Daemon{d1, d2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := daemons[i%2], daemons[(i+1)%2]
		if _, err := Local(cat, src, dst, urn, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
