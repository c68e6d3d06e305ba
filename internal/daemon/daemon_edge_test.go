package daemon

import (
	"errors"
	"testing"
	"time"

	"snipe/internal/comm"
	"snipe/internal/task"
	"snipe/internal/testutil"
)

func TestAdoptUnknownProgram(t *testing.T) {
	w := newWorld(t)
	d := w.newDaemon("h1", nil)
	if err := d.Adopt("urn:x", task.Spec{Program: "ghost"}); !errors.Is(err, task.ErrUnknownProgram) {
		t.Fatalf("want ErrUnknownProgram, got %v", err)
	}
}

func TestAdoptBadSequenceState(t *testing.T) {
	w := newWorld(t)
	reg := task.NewRegistry()
	reg.Register("p", func(ctx *task.Context) error { return nil })
	d := w.newDaemon("h1", reg)
	spec := task.Spec{Program: "p", SeqState: []byte{1, 2, 3}} // not a valid encoding
	if err := d.Adopt("urn:x", spec); err == nil {
		t.Fatal("corrupt sequence state accepted")
	}
}

func TestReleaseUnknownTaskIsNoop(t *testing.T) {
	w := newWorld(t)
	d := w.newDaemon("h1", nil)
	d.Release("urn:never-existed") // must not panic
}

func TestTaskStateUnknown(t *testing.T) {
	w := newWorld(t)
	d := w.newDaemon("h1", nil)
	if _, err := d.TaskState("urn:none"); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("want ErrUnknownTask, got %v", err)
	}
	if _, err := d.WaitTask("urn:none", time.Second); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("WaitTask: want ErrUnknownTask, got %v", err)
	}
	if _, err := d.Checkpoint("urn:none", time.Second); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("Checkpoint: want ErrUnknownTask, got %v", err)
	}
}

func TestWaitTaskTimeout(t *testing.T) {
	w := newWorld(t)
	reg := task.NewRegistry()
	reg.Register("idle", func(ctx *task.Context) error {
		<-ctx.Done()
		return task.ErrKilled
	})
	d := w.newDaemon("h1", reg)
	urn, _ := d.Spawn(task.Spec{Program: "idle"})
	if _, err := d.WaitTask(urn, 50*time.Millisecond); !errors.Is(err, comm.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	d.Signal(urn, task.SigKill)
}

func TestDoubleStartRejected(t *testing.T) {
	w := newWorld(t)
	d := w.newDaemon("h1", nil)
	if err := d.Start(); err == nil {
		t.Fatal("second Start accepted")
	}
}

func TestSpawnAfterClose(t *testing.T) {
	w := newWorld(t)
	reg := task.NewRegistry()
	reg.Register("p", func(ctx *task.Context) error { return nil })
	d := New(Config{HostName: "hx", Catalog: w.cat, Registry: reg})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	if _, err := d.Spawn(task.Spec{Program: "p"}); err == nil {
		t.Fatal("spawn on closed daemon accepted")
	}
	d.Close() // idempotent
}

func TestMalformedProtocolPayloadsIgnored(t *testing.T) {
	// Garbage requests must not crash the daemon or produce replies.
	w := newWorld(t)
	d := w.newDaemon("h1", nil)
	client := w.client("urn:fuzz")
	for _, tag := range []uint32{task.TagSpawnReq, task.TagSignal, task.TagStatusReq,
		task.TagMigrateReq, task.TagCheckpointReq, task.TagReleaseReq} {
		if err := client.Send(d.URN(), tag, []byte{0xFF}); err != nil {
			t.Fatal(err)
		}
	}
	// The daemon is still alive and serving.
	tasks, err := StatusRemote(client, d.URN(), 5*time.Second)
	if err != nil || len(tasks) != 0 {
		t.Fatalf("daemon wedged: %v %v", tasks, err)
	}
}

func TestNotifyViaLaterAddedAttr(t *testing.T) {
	// A watcher added to the notify list via RC metadata (not the spec)
	// is informed of state changes — the paper's metadata-driven notify
	// list (§5.2.3).
	w := newWorld(t)
	reg := task.NewRegistry()
	release := make(chan struct{})
	reg.Register("gated", func(ctx *task.Context) error {
		<-release
		return nil
	})
	d := w.newDaemon("h1", reg)
	watcher := w.client("urn:late-watcher")
	urn, err := d.Spawn(task.Spec{Program: "gated"})
	if err != nil {
		t.Fatal(err)
	}
	// Subscribe after the spawn, via metadata only.
	w.cat.Add(urn, "notify", "urn:late-watcher")
	close(release)
	m, err := recvMatchT(watcher, "", task.TagNotify, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := task.DecodeStateChange(m.Payload)
	if err != nil || sc.URN != urn || sc.To != task.StateExited {
		t.Fatalf("notify: %+v %v", sc, err)
	}
}

func TestCheckpointRemoteErrors(t *testing.T) {
	w := newWorld(t)
	d := w.newDaemon("h1", nil)
	client := w.client("urn:ck")
	if _, err := CheckpointRemote(client, d.URN(), "urn:none", 2*time.Second); !errors.Is(err, ErrRemote) {
		t.Fatalf("want ErrRemote, got %v", err)
	}
}

func TestReleaseRemote(t *testing.T) {
	w := newWorld(t)
	reg := task.NewRegistry()
	reg.Register("ckpt", func(ctx *task.Context) error {
		<-ctx.CheckpointRequested()
		ctx.SaveCheckpoint([]byte{1})
		return task.ErrMigrated
	})
	d := w.newDaemon("h1", reg)
	client := w.client("urn:rr")
	urn, _ := d.Spawn(task.Spec{Program: "ckpt"})
	if _, err := CheckpointRemote(client, d.URN(), urn, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := ReleaseRemote(client, d.URN(), urn); err != nil {
		t.Fatal(err)
	}
	// The task disappears from the table.
	testutil.WaitFor(t, 5*time.Second, func() bool {
		_, err := d.TaskState(urn)
		return errors.Is(err, ErrUnknownTask)
	}, "release never took effect")
}

func TestSpecEncodeViaProtocol(t *testing.T) {
	// Specs with every field populated survive the spawn protocol.
	w := newWorld(t)
	reg := task.NewRegistry()
	got := make(chan task.Spec, 1)
	reg.Register("inspect", func(ctx *task.Context) error {
		got <- ctx.Spec()
		return nil
	})
	d := w.newDaemon("h1", reg)
	client := w.client("urn:spec")
	spec := task.Spec{
		Program:    "inspect",
		Args:       []string{"a", "b"},
		NotifyList: []string{"urn:watcher"},
		CodeURL:    "code.sc",
	}
	if _, err := SpawnRemote(client, d.URN(), spec, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if len(s.Args) != 2 || s.CodeURL != "code.sc" || len(s.NotifyList) != 1 {
			t.Fatalf("spec through protocol: %+v", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("task never ran")
	}
}
