// Package migrate implements SNIPE process migration (paper §5.6).
//
// The protocol follows the paper step for step:
//
//  1. The process's communication addresses are withdrawn from the RC
//     servers, so new senders resolve no address and their traffic is
//     held in the comm layer's system buffer.
//  2. The process checkpoints (cooperatively, via its task context, or
//     — for playground code — by VM snapshot), capturing its state and
//     its endpoint's sequence numbers.
//  3. The checkpoint is optionally staged on a SNIPE file server:
//     "temporary storage of state is provided by the SNIPE file
//     servers".
//  4. The destination daemon adopts the task under its existing URN,
//     restoring state and sequences, and publishes the new location —
//     "after migration the process updates RC servers with its new
//     location".
//  5. Interested parties on the notify list learn of the move through
//     the daemons' state-change notifications; senders that never
//     noticed the migration "find its new location via the RC
//     servers" when their buffered retries re-resolve.
//
// Because unacknowledged messages stay buffered at their senders until
// the receiver acknowledges from its new home, "processes with open
// communications are guaranteed no loss of data while migration is in
// progress" — the property experiment E5 measures.
//
// The paper's general case is migration initiated by the process
// itself; in this build the orchestration runs wherever a catalog and
// an endpoint are available (the process, its daemon, or a resource
// manager — the paper's §5.6 notes the daemon may arrange it for
// programming environments with migration support).
package migrate

import (
	"fmt"
	"time"

	"snipe/internal/comm"
	"snipe/internal/daemon"
	"snipe/internal/fileserv"
	"snipe/internal/lifn"
	"snipe/internal/naming"
	"snipe/internal/rcds"
	"snipe/internal/task"
)

// Options tunes a migration.
type Options struct {
	// CheckpointTimeout bounds how long the task may take to honour the
	// checkpoint request.
	CheckpointTimeout time.Duration
	// Stage, if non-nil, stores the checkpoint on a file server before
	// restart and records the LIFN in the task's metadata.
	Stage *Staging
	// TransferDelay, if positive, is waited between checkpoint and
	// restart — the time a checkpoint took to cross a 1997 network.
	// Experiments use it to widen the window in which the process has
	// no registered address.
	TransferDelay time.Duration
}

// Staging names where checkpoints are stored.
type Staging struct {
	Client    *fileserv.Client
	ServerURN string
}

// Local migrates a task between two daemons in the same process,
// using their Go APIs directly. Returns the duration the task was
// unavailable (checkpoint start to adoption).
func Local(cat naming.Catalog, src, dst *daemon.Daemon, taskURN string, opts Options) (time.Duration, error) {
	if opts.CheckpointTimeout == 0 {
		opts.CheckpointTimeout = 10 * time.Second
	}
	start := time.Now()

	// 1. Withdraw addresses; mark migrating. New senders now buffer.
	cat.Set(taskURN, rcds.AttrState, string(task.StateMigrating))
	if err := naming.Unregister(cat, taskURN); err != nil {
		return 0, err
	}

	// 2. Checkpoint.
	spec, err := src.Checkpoint(taskURN, opts.CheckpointTimeout)
	if err != nil {
		return 0, fmt.Errorf("migrate: checkpoint: %w", err)
	}

	// 3. Stage the state on a file server.
	if err := stage(cat, taskURN, &spec, opts.Stage); err != nil {
		return 0, err
	}
	if opts.TransferDelay > 0 {
		time.Sleep(opts.TransferDelay)
	}

	// 4. Restart at the destination; this republishes addresses and
	// state and fires notify-list messages.
	if err := dst.Adopt(taskURN, spec); err != nil {
		return 0, fmt.Errorf("migrate: adopt: %w", err)
	}
	downtime := time.Since(start)

	// 5. End the old location's relay window.
	src.Release(taskURN)
	return downtime, nil
}

// Remote migrates a task using only the daemons' message protocols —
// the form a console or resource manager uses across hosts. ep is the
// orchestrator's endpoint; srcDaemonURN and dstDaemonURN are the host
// daemons involved.
func Remote(cat naming.Catalog, ep *comm.Endpoint, taskURN, srcDaemonURN, dstDaemonURN string, opts Options) (time.Duration, error) {
	if opts.CheckpointTimeout == 0 {
		opts.CheckpointTimeout = 10 * time.Second
	}
	start := time.Now()

	cat.Set(taskURN, rcds.AttrState, string(task.StateMigrating))
	if err := naming.Unregister(cat, taskURN); err != nil {
		return 0, err
	}

	spec, err := daemon.CheckpointRemote(ep, srcDaemonURN, taskURN, opts.CheckpointTimeout)
	if err != nil {
		return 0, fmt.Errorf("migrate: remote checkpoint: %w", err)
	}
	if err := stage(cat, taskURN, &spec, opts.Stage); err != nil {
		return 0, err
	}
	if opts.TransferDelay > 0 {
		time.Sleep(opts.TransferDelay)
	}
	if err := daemon.MigrateRemote(ep, dstDaemonURN, taskURN, spec, opts.CheckpointTimeout); err != nil {
		return 0, fmt.Errorf("migrate: remote adopt: %w", err)
	}
	// End the old location's tenure (best effort: the quiesced endpoint
	// holds no state the new location needs).
	daemon.ReleaseRemote(ep, srcDaemonURN, taskURN)
	return time.Since(start), nil
}

// stage writes the checkpoint to a file server and records its LIFN as
// the task's supervisor state (§5.2.3's supervisor LIFN).
func stage(cat naming.Catalog, taskURN string, spec *task.Spec, st *Staging) error {
	if st == nil || spec.Checkpoint == nil {
		return nil
	}
	name := lifn.New("ckpt", spec.Checkpoint)
	if err := st.Client.Store(st.ServerURN, name, spec.Checkpoint); err != nil {
		return fmt.Errorf("migrate: staging checkpoint: %w", err)
	}
	if err := lifn.Bind(cat, name, st.ServerURN); err != nil {
		return err
	}
	return cat.Set(taskURN, rcds.AttrSupervisorLIFN, name)
}
