package daemon

import (
	"context"
	"errors"
	"fmt"
	"time"

	"snipe/internal/comm"
	"snipe/internal/stats"
	"snipe/internal/task"
	"snipe/internal/xdr"
)

// Per-field wire-decode caps handed to the xdr *Max decoders: URNs,
// task states and error messages are short strings; a metrics snapshot
// is JSON of modest size. A corrupt length prefix must fail fast
// instead of sizing an allocation.
const (
	maxWireString   = 4096    // URNs, task states, error messages
	maxWireSnapshot = 1 << 20 // JSON-encoded metrics snapshot
)

// handleMessage dispatches the daemon's message protocol: remote spawn,
// signal delivery, status queries, and migration adoption. A request
// starts with the caller's request ID, and each answer is a reply to it
// (DESIGN "Request and reply").
func (d *Daemon) handleMessage(m *comm.Message) {
	switch m.Tag {
	case task.TagSpawnReq:
		d.handleSpawnReq(m)
	case task.TagSignal:
		d.handleSignal(m)
	case task.TagStatusReq:
		d.handleStatusReq(m)
	case task.TagMigrateReq:
		d.handleMigrateReq(m)
	case task.TagCheckpointReq:
		d.handleCheckpointReq(m)
	case task.TagReleaseReq:
		if urn, err := xdr.NewDecoder(m.Payload).StringMax(maxWireString); err == nil {
			d.Release(urn)
		}
	case task.TagStatsReq:
		d.handleStatsReq(m)
	case task.TagGossip:
		d.handleGossip(m)
	}
}

func (d *Daemon) handleStatsReq(m *comm.Message) {
	reqID, err := xdr.NewDecoder(m.Payload).Uint64()
	if err != nil {
		return
	}
	b, err := d.StatsJSON()
	Reply(d.ep, m.Src, reqID, err, func(e *xdr.Encoder) { e.PutBytes(b) })
}

// StatsRemote fetches a daemon's composed metrics snapshot over the
// message protocol — what the console's stats command runs on.
func StatsRemote(ep *comm.Endpoint, daemonURN string, timeout time.Duration) (stats.Snapshot, error) {
	dec, err := Call(ep, daemonURN, task.TagStatsReq, timeout, ErrRemote, nil)
	if err != nil {
		return stats.Snapshot{}, err
	}
	b, err := dec.BytesCopyMax(maxWireSnapshot)
	if err != nil {
		return stats.Snapshot{}, err
	}
	return stats.ParseSnapshot(b)
}

// ReleaseRemote ends a checkpointed task's tenure on a remote daemon.
func ReleaseRemote(ep *comm.Endpoint, daemonURN, taskURN string) error {
	e := xdr.NewEncoder(len(taskURN) + 8)
	e.PutString(taskURN)
	return ep.Send(daemonURN, task.TagReleaseReq, e.Bytes())
}

func (d *Daemon) handleCheckpointReq(m *comm.Message) {
	dec := xdr.NewDecoder(m.Payload)
	reqID, err := dec.Uint64()
	if err != nil {
		return
	}
	urn, err := dec.StringMax(maxWireString)
	if err != nil {
		return
	}
	timeoutMs, err := dec.Uint32()
	if err != nil {
		return
	}
	// A checkpoint waits up to its timeout on the task, so it runs beside
	// the handler, which goes on answering; Close and Kill wait for it.
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.wg.Add(1)
	go func(src string) {
		defer d.wg.Done()
		spec, err := d.Checkpoint(urn, time.Duration(timeoutMs)*time.Millisecond)
		Reply(d.ep, src, reqID, err, spec.Encode)
	}(m.Src)
}

// CheckpointRemote asks the daemon at daemonURN to checkpoint taskURN,
// returning the portable spec. The task stays on the old host (in its
// relay window) until ReleaseRemote/Release.
func CheckpointRemote(ep *comm.Endpoint, daemonURN, taskURN string, timeout time.Duration) (task.Spec, error) {
	dec, err := Call(ep, daemonURN, task.TagCheckpointReq, timeout+2*time.Second, ErrRemote, func(e *xdr.Encoder) {
		e.PutString(taskURN)
		e.PutUint32(uint32(timeout / time.Millisecond))
	})
	if err != nil {
		return task.Spec{}, err
	}
	return task.DecodeSpec(dec)
}

func (d *Daemon) handleSpawnReq(m *comm.Message) {
	dec := xdr.NewDecoder(m.Payload)
	reqID, err := dec.Uint64()
	if err != nil {
		return
	}
	spec, err := task.DecodeSpec(dec)
	var urn string
	if err == nil {
		urn, err = d.Spawn(spec)
	}
	Reply(d.ep, m.Src, reqID, err, func(e *xdr.Encoder) { e.PutString(urn) })
}

func (d *Daemon) handleSignal(m *comm.Message) {
	dec := xdr.NewDecoder(m.Payload)
	urn, err := dec.StringMax(maxWireString)
	if err != nil {
		return
	}
	sig, err := dec.Int32()
	if err != nil {
		return
	}
	d.Signal(urn, task.Signal(sig))
}

func (d *Daemon) handleStatusReq(m *comm.Message) {
	reqID, err := xdr.NewDecoder(m.Payload).Uint64()
	if err != nil {
		return
	}
	tasks := d.Tasks()
	Reply(d.ep, m.Src, reqID, nil, func(e *xdr.Encoder) {
		e.PutUint32(uint32(len(tasks)))
		for urn, st := range tasks {
			e.PutString(urn)
			e.PutString(string(st))
		}
	})
}

func (d *Daemon) handleMigrateReq(m *comm.Message) {
	dec := xdr.NewDecoder(m.Payload)
	reqID, err := dec.Uint64()
	if err != nil {
		return
	}
	urn, err := dec.StringMax(maxWireString)
	if err != nil {
		return
	}
	spec, err := task.DecodeSpec(dec)
	if err == nil {
		err = d.Adopt(urn, spec)
	}
	Reply(d.ep, m.Src, reqID, err, nil)
}

// --- Client-side helpers -------------------------------------------
//
// These run over any endpoint (a client library's, another daemon's, a
// resource manager's), any number at once.

// ErrRemote wraps an error string returned by a remote daemon.
var ErrRemote = errors.New("daemon: remote error")

// Reply answers request reqID from dst in the layout every daemon and
// resource-manager reply shares: the ID, ok, the error's text or "",
// then, on success, what body writes (nil: nothing).
func Reply(ep *comm.Endpoint, dst string, reqID uint64, err error, body func(*xdr.Encoder)) {
	e := xdr.NewEncoder(256)
	e.PutUint64(reqID)
	e.PutBool(err == nil)
	if err != nil {
		e.PutString(err.Error())
	} else {
		e.PutString("")
		if body != nil {
			body(e)
		}
	}
	ep.Send(dst, comm.ReplyTag, e.Bytes())
}

// Call sends dst a request under tag, its request ID first and then
// what body writes (nil: nothing), and waits up to timeout for the
// reply Reply wrote. A reply that reports failure comes back as remote
// wrapped with the reply's text; a successful one as a decoder at its
// body.
func Call(ep *comm.Endpoint, dst string, tag uint32, timeout time.Duration, remote error, body func(*xdr.Encoder)) (*xdr.Decoder, error) {
	reqID := ep.NewRequest(dst)
	defer ep.EndRequest(reqID)
	e := xdr.NewEncoder(256)
	e.PutUint64(reqID)
	if body != nil {
		body(e)
	}
	if err := ep.SendRequest(dst, tag, e.Bytes()); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	m, err := ep.AwaitReply(ctx, reqID)
	if err != nil {
		return nil, err
	}
	dec := xdr.NewDecoder(m.Payload[8:])
	ok, err := dec.Bool()
	if err != nil {
		return nil, err
	}
	msg, err := dec.StringMax(maxWireString)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", remote, msg)
	}
	return dec, nil
}

// SpawnRemote asks the daemon at daemonURN to spawn spec, returning
// the new task's URN.
func SpawnRemote(ep *comm.Endpoint, daemonURN string, spec task.Spec, timeout time.Duration) (string, error) {
	dec, err := Call(ep, daemonURN, task.TagSpawnReq, timeout, ErrRemote, spec.Encode)
	if err != nil {
		return "", err
	}
	return dec.StringMax(maxWireString)
}

// SignalRemote delivers a signal to a task via its host daemon.
func SignalRemote(ep *comm.Endpoint, daemonURN, taskURN string, sig task.Signal) error {
	e := xdr.NewEncoder(64)
	e.PutString(taskURN)
	e.PutInt32(int32(sig))
	return ep.Send(daemonURN, task.TagSignal, e.Bytes())
}

// StatusRemote queries a daemon's task table.
func StatusRemote(ep *comm.Endpoint, daemonURN string, timeout time.Duration) (map[string]task.State, error) {
	dec, err := Call(ep, daemonURN, task.TagStatusReq, timeout, ErrRemote, nil)
	if err != nil {
		return nil, err
	}
	n, err := dec.Uint32()
	if err != nil {
		return nil, err
	}
	// Each entry costs at least 8 encoded bytes (two string lengths);
	// fail fast on hostile counts before the map preallocation below.
	if int64(n)*8 > int64(dec.Remaining()) {
		return nil, fmt.Errorf("%w: task count %d exceeds remaining %d bytes",
			ErrRemote, n, dec.Remaining())
	}
	out := make(map[string]task.State, min(int(n), 1024))
	for i := uint32(0); i < n; i++ {
		urn, err := dec.StringMax(maxWireString)
		if err != nil {
			return nil, err
		}
		st, err := dec.StringMax(maxWireString)
		if err != nil {
			return nil, err
		}
		out[urn] = task.State(st)
	}
	return out, nil
}

// MigrateRemote asks the daemon at daemonURN to adopt a checkpointed
// task under its existing URN.
func MigrateRemote(ep *comm.Endpoint, daemonURN, taskURN string, spec task.Spec, timeout time.Duration) error {
	_, err := Call(ep, daemonURN, task.TagMigrateReq, timeout, ErrRemote, func(e *xdr.Encoder) {
		e.PutString(taskURN)
		spec.Encode(e)
	})
	return err
}
