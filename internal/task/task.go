// Package task defines the SNIPE process model (paper §3.3, §5.2.3,
// §5.5): tasks with global URNs, lifecycle states, environment
// requirements, notify lists, signals, and cooperative
// checkpoint/restore hooks used by suspension and migration.
//
// Substitution note (DESIGN.md): the 1998 daemons fork/exec'd native
// programs; here a task is a registered Go function (or a playground VM
// program) run on a goroutine with its own communications endpoint. The
// lifecycle, signal, notify and checkpoint semantics — which are what
// the paper's experiments exercise — are implemented in full.
package task

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"snipe/internal/comm"
	"snipe/internal/naming"
	"snipe/internal/xdr"
)

// State is a task lifecycle state. State changes are reported to the
// task's notify list and recorded in RC metadata (AttrState).
type State string

// Task states.
const (
	StatePending      State = "pending"
	StateRunning      State = "running"
	StateSuspended    State = "suspended"
	StateCheckpointed State = "checkpointed"
	StateMigrating    State = "migrating"
	StateExited       State = "exited"
	StateFailed       State = "failed"
)

// Signal is an asynchronous signal deliverable to a task, the paper's
// "delivery of signals to local tasks".
type Signal int32

// Well-known signals. Values above SigUser are application-defined.
const (
	SigKill    Signal = 1
	SigSuspend Signal = 2
	SigResume  Signal = 3
	SigUser    Signal = 64
)

// Well-known message tags used by SNIPE system protocols. Application
// tags should stay below TagSystemBase. Requests are answered under
// comm.ReplyTag (DESIGN "Request and reply"), so no protocol has a
// response tag of its own.
const (
	TagSystemBase uint32 = 0xF0000000
	// TagNotify carries task state-change notifications (§5.2.3).
	TagNotify = TagSystemBase + 1
	// TagSpawnReq asks for a remote spawn (§5.5).
	TagSpawnReq = TagSystemBase + 2
	// TagSignal delivers a signal to a remote task via its daemon.
	TagSignal = TagSystemBase + 4
	// TagStatusReq queries a daemon's task table.
	TagStatusReq = TagSystemBase + 5
	// TagMcast carries multicast group relay traffic.
	TagMcast = TagSystemBase + 7
	// TagMigrateReq asks a daemon to adopt a migrating task.
	TagMigrateReq = TagSystemBase + 8
	// TagFile carries file requests and file streams (§5.9).
	TagFile = TagSystemBase + 10
	// TagRM carries resource-manager requests.
	TagRM = TagSystemBase + 11
	// TagCheckpointReq asks a daemon to checkpoint one of its tasks and
	// return the portable spec (the first half of a migration).
	TagCheckpointReq = TagSystemBase + 13
	// TagReleaseReq ends a checkpointed task's tenure on its old host
	// (the close of the §5.6 relay window).
	TagReleaseReq = TagSystemBase + 15
	// TagStatsReq fetches a daemon's metrics snapshot — the console's
	// window into a running host (§3.7).
	TagStatsReq = TagSystemBase + 16
	// TagGossip carries SWIM-style liveness gossip between host daemons
	// (see internal/gossip): ping/ack probes, indirect ping-req relays
	// and membership-state pushes.
	TagGossip = TagSystemBase + 18
)

// Errors of the task layer.
var (
	// ErrMigrated is returned by a task function that has saved a
	// checkpoint in response to a migration request; the daemon treats
	// it as a clean handoff rather than an exit.
	ErrMigrated = errors.New("task: checkpointed for migration")
	// ErrKilled is returned when a task was killed.
	ErrKilled = errors.New("task: killed")
	// ErrUnknownProgram indicates a spawn of an unregistered program.
	ErrUnknownProgram = errors.New("task: unknown program")
)

// Requirements describes the environment a program needs (§5.5): "it
// may run only on certain CPU types, it may require a certain amount of
// memory or CPU time or local disk space".
type Requirements struct {
	Arch        string // required host architecture ("" = any)
	MinMemoryMB int    // minimum host memory
	Host        string // pinned host URL ("" = any)
	Playground  bool   // must run inside a playground sandbox
}

// Spec describes a process to spawn: the program (a registered task
// function name, or a code URL for playground execution), its
// arguments, requirements, and the initial notify list.
type Spec struct {
	Program    string
	Args       []string
	Req        Requirements
	NotifyList []string
	CodeURL    string // mobile code location for playground programs
	Checkpoint []byte // restore state for migrated/restarted tasks
	SeqState   []byte // encoded comm.SequenceState carried by migration
}

// Encode serialises the spec.
func (s *Spec) Encode(e *xdr.Encoder) {
	e.PutString(s.Program)
	e.PutStringSlice(s.Args)
	e.PutString(s.Req.Arch)
	e.PutUint32(uint32(s.Req.MinMemoryMB))
	e.PutString(s.Req.Host)
	e.PutBool(s.Req.Playground)
	e.PutStringSlice(s.NotifyList)
	e.PutString(s.CodeURL)
	e.PutBytes(s.Checkpoint)
	e.PutBytes(s.SeqState)
}

// Per-field wire-decode caps handed to the xdr *Max decoders: names,
// URLs and argv entries are short strings; checkpoint and sequence
// state can be large (a migrating task's full state) but must stay
// bounded.
const (
	maxWireString = 4096
	maxWireList   = 4096     // argv / notify-list entries
	maxWireState  = 64 << 20 // checkpoint and comm sequence state
)

// DecodeSpec reads a spec written by Encode.
func DecodeSpec(d *xdr.Decoder) (Spec, error) {
	var s Spec
	var err error
	if s.Program, err = d.StringMax(maxWireString); err != nil {
		return s, err
	}
	if s.Args, err = d.StringSliceMax(maxWireList, maxWireString); err != nil {
		return s, err
	}
	if s.Req.Arch, err = d.StringMax(maxWireString); err != nil {
		return s, err
	}
	var mem uint32
	if mem, err = d.Uint32(); err != nil {
		return s, err
	}
	s.Req.MinMemoryMB = int(mem)
	if s.Req.Host, err = d.StringMax(maxWireString); err != nil {
		return s, err
	}
	if s.Req.Playground, err = d.Bool(); err != nil {
		return s, err
	}
	if s.NotifyList, err = d.StringSliceMax(maxWireList, maxWireString); err != nil {
		return s, err
	}
	if s.CodeURL, err = d.StringMax(maxWireString); err != nil {
		return s, err
	}
	if s.Checkpoint, err = d.BytesCopyMax(maxWireState); err != nil {
		return s, err
	}
	if len(s.Checkpoint) == 0 {
		s.Checkpoint = nil
	}
	if s.SeqState, err = d.BytesCopyMax(maxWireState); err != nil {
		return s, err
	}
	if len(s.SeqState) == 0 {
		s.SeqState = nil
	}
	return s, nil
}

// Func is the body of a SNIPE task. It runs on its own goroutine with
// its own endpoint; returning ends the task (nil = StateExited, error =
// StateFailed, ErrMigrated = handoff).
type Func func(ctx *Context) error

// Registry maps program names to task functions, playing the role of
// the executable search path on a 1997 host.
type Registry struct {
	mu sync.RWMutex
	m  map[string]Func
}

// NewRegistry returns an empty program registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]Func)}
}

// Register installs a program. Registering an existing name replaces
// it.
func (r *Registry) Register(name string, fn Func) {
	r.mu.Lock()
	r.m[name] = fn
	r.mu.Unlock()
}

// Lookup finds a program.
func (r *Registry) Lookup(name string) (Func, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn, ok := r.m[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownProgram, name)
	}
	return fn, nil
}

// Names returns the registered program names.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.m))
	for k := range r.m {
		out = append(out, k)
	}
	return out
}

// Context is a running task's view of its environment.
type Context struct {
	urn      string
	host     string
	spec     Spec
	endpoint *comm.Endpoint
	catalog  naming.Catalog // RC metadata access for the task

	mu         sync.Mutex
	cond       *sync.Cond
	suspended  bool
	killed     bool
	checkpoint []byte // state saved by the task for migration
	ckptReq    chan struct{}
	signals    chan Signal
	done       chan struct{}
	doneOnce   sync.Once
}

// NewContext builds a task context; used by daemons and tests.
func NewContext(urn, host string, spec Spec, ep *comm.Endpoint) *Context {
	c := &Context{
		urn:      urn,
		host:     host,
		spec:     spec,
		endpoint: ep,
		ckptReq:  make(chan struct{}, 1),
		signals:  make(chan Signal, 16),
		done:     make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// URN returns the task's global name.
func (c *Context) URN() string { return c.urn }

// Host returns the URL of the host the task is running on.
func (c *Context) Host() string { return c.host }

// Args returns the task's arguments.
func (c *Context) Args() []string { return c.spec.Args }

// Spec returns the task's spec.
func (c *Context) Spec() Spec { return c.spec }

// Endpoint exposes the task's communications endpoint.
func (c *Context) Endpoint() *comm.Endpoint { return c.endpoint }

// SetCatalog installs the task's RC metadata access (daemon side).
func (c *Context) SetCatalog(cat naming.Catalog) { c.catalog = cat }

// Catalog returns the task's RC metadata access — the client library's
// resource-location facility (§3.4). Nil for contexts built without a
// daemon.
func (c *Context) Catalog() naming.Catalog { return c.catalog }

// RestoredState returns the checkpoint this task was restarted from,
// or nil for a fresh start.
func (c *Context) RestoredState() []byte { return c.spec.Checkpoint }

// Done is closed when the task has been killed.
func (c *Context) Done() <-chan struct{} { return c.done }

// Signals delivers user signals (>= SigUser) to the task.
func (c *Context) Signals() <-chan Signal { return c.signals }

// CheckpointRequested is signalled when the daemon wants the task to
// checkpoint (for suspension to disk or migration). The task should
// call SaveCheckpoint and return ErrMigrated.
func (c *Context) CheckpointRequested() <-chan struct{} { return c.ckptReq }

// SaveCheckpoint records the task's serialised state for the daemon to
// collect.
func (c *Context) SaveCheckpoint(state []byte) {
	c.mu.Lock()
	c.checkpoint = append([]byte(nil), state...)
	c.mu.Unlock()
}

// TakeCheckpoint returns the saved state (daemon side).
func (c *Context) TakeCheckpoint() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checkpoint
}

// Send sends a message from this task.
func (c *Context) Send(dst string, tag uint32, payload []byte) error {
	c.pausePoint()
	return c.endpoint.Send(dst, tag, payload)
}

// Recv receives the next message for this task, honouring suspension.
func (c *Context) Recv(timeout time.Duration) (*comm.Message, error) {
	c.pausePoint()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return c.endpoint.Recv(ctx)
}

// RecvMatch receives selectively, honouring suspension.
func (c *Context) RecvMatch(src string, tag uint32, timeout time.Duration) (*comm.Message, error) {
	c.pausePoint()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return c.endpoint.RecvMatch(ctx, src, tag)
}

// pausePoint blocks while the task is suspended — the cooperative
// suspension point used by communicating tasks. Compute-bound tasks
// should call CheckPause in their loops.
func (c *Context) pausePoint() {
	c.mu.Lock()
	for c.suspended && !c.killed {
		c.cond.Wait()
	}
	c.mu.Unlock()
}

// CheckPause is a cooperative scheduling point: it blocks while
// suspended and reports whether the task has been killed.
func (c *Context) CheckPause() (killed bool) {
	c.pausePoint()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.killed
}

// Deliver routes a signal to the task (daemon side).
func (c *Context) Deliver(sig Signal) {
	switch sig {
	case SigKill:
		c.mu.Lock()
		c.killed = true
		c.suspended = false
		c.cond.Broadcast()
		c.mu.Unlock()
		c.doneOnce.Do(func() { close(c.done) })
	case SigSuspend:
		c.mu.Lock()
		c.suspended = true
		c.mu.Unlock()
	case SigResume:
		c.mu.Lock()
		c.suspended = false
		c.cond.Broadcast()
		c.mu.Unlock()
	default:
		select {
		case c.signals <- sig:
		default: // signal queue full: drop, as POSIX would coalesce
		}
	}
}

// RequestCheckpoint asks the task to checkpoint (daemon side).
func (c *Context) RequestCheckpoint() {
	select {
	case c.ckptReq <- struct{}{}:
	default:
	}
}

// Suspended reports whether the task is currently suspended.
func (c *Context) Suspended() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.suspended
}

// StateChange is the payload of a TagNotify message.
type StateChange struct {
	URN  string
	From State
	To   State
	Host string
}

// EncodeStateChange serialises a notification.
func EncodeStateChange(sc StateChange) []byte {
	e := xdr.NewEncoder(64)
	e.PutString(sc.URN)
	e.PutString(string(sc.From))
	e.PutString(string(sc.To))
	e.PutString(sc.Host)
	return e.Bytes()
}

// DecodeStateChange reads a notification payload.
func DecodeStateChange(b []byte) (StateChange, error) {
	d := xdr.NewDecoder(b)
	var sc StateChange
	var err error
	if sc.URN, err = d.StringMax(maxWireString); err != nil {
		return sc, err
	}
	var from, to string
	if from, err = d.StringMax(maxWireString); err != nil {
		return sc, err
	}
	if to, err = d.StringMax(maxWireString); err != nil {
		return sc, err
	}
	sc.From, sc.To = State(from), State(to)
	if sc.Host, err = d.StringMax(maxWireString); err != nil {
		return sc, err
	}
	return sc, nil
}
