package migrate

import (
	"errors"
	"fmt"
	"sync"

	"snipe/internal/comm"
	"snipe/internal/liveness"
	"snipe/internal/naming"
	"snipe/internal/rcds"
	"snipe/internal/task"
)

// EvacuationResult records the outcome of one attempted task
// evacuation.
type EvacuationResult struct {
	TaskURN string
	From    string // host URL entering suspicion
	DstURN  string // destination daemon URN ("" if none was found)
	Err     error  // nil on success
}

// EvacuatorConfig wires an Evacuator.
type EvacuatorConfig struct {
	Catalog  naming.Catalog
	Monitor  *liveness.Monitor
	Endpoint *comm.Endpoint // orchestrator endpoint for the remote protocol
	// Dest picks a destination daemon for tasks leaving excludeHost —
	// typically a closure over rm.Manager.SelectHost with the suspect
	// host excluded. Returning an error skips the evacuation.
	Dest func(excludeHost string) (dstDaemonURN string, err error)
	// Options tunes the underlying migrations.
	Options Options
	// OnResult, if non-nil, observes every attempted evacuation.
	OnResult func(EvacuationResult)
}

// Evacuator watches a liveness monitor and migrates tasks off any host
// entering Suspect — acting while the host's daemon can still answer
// checkpoint requests, because once the host is Dead there is nothing
// left to checkpoint. This is the paper's migration machinery driven
// by its failure notification: suspicion is the early warning,
// evacuation the response.
type Evacuator struct {
	cfg       EvacuatorConfig
	done      chan struct{}
	cancelSub func()
	wg        sync.WaitGroup
	closed    sync.Once
}

// NewEvacuator starts an evacuator; Close stops it. The monitor is not
// owned and outlives the evacuator.
func NewEvacuator(cfg EvacuatorConfig) (*Evacuator, error) {
	if cfg.Catalog == nil || cfg.Monitor == nil || cfg.Endpoint == nil || cfg.Dest == nil {
		return nil, errors.New("migrate: evacuator needs Catalog, Monitor, Endpoint and Dest")
	}
	ev := &Evacuator{cfg: cfg, done: make(chan struct{})}
	events, cancel := cfg.Monitor.Subscribe(0)
	ev.cancelSub = cancel
	ev.wg.Add(1)
	go func() {
		defer ev.wg.Done()
		for {
			select {
			case <-ev.done:
				return
			case e, ok := <-events:
				if !ok {
					return
				}
				if e.To == liveness.Suspect {
					ev.evacuate(e.Host)
				}
			}
		}
	}()
	return ev, nil
}

// Close stops the evacuator and drops its monitor subscription.
// In-progress migrations finish.
func (ev *Evacuator) Close() {
	ev.closed.Do(func() {
		close(ev.done)
		ev.cancelSub()
	})
	ev.wg.Wait()
}

// evacuate moves every running task off a suspect host.
func (ev *Evacuator) evacuate(hostURL string) {
	cat := ev.cfg.Catalog
	srcDaemonURN, ok, err := cat.FirstValue(hostURL, rcds.AttrHostDaemonURL)
	if err != nil || !ok {
		return // no daemon record: nothing addressable to checkpoint
	}
	tasks, err := cat.Values(hostURL, "task")
	if err != nil {
		return
	}
	for _, urn := range tasks {
		st, ok, err := cat.FirstValue(urn, rcds.AttrState)
		if err != nil || !ok || task.State(st) != task.StateRunning {
			continue // only running tasks can honour a checkpoint request
		}
		res := EvacuationResult{TaskURN: urn, From: hostURL}
		res.DstURN, res.Err = ev.cfg.Dest(hostURL)
		if res.Err == nil {
			if res.DstURN == srcDaemonURN {
				res.Err = fmt.Errorf("migrate: no destination besides %s", hostURL)
			} else {
				_, res.Err = Remote(cat, ev.cfg.Endpoint, urn, srcDaemonURN, res.DstURN, ev.cfg.Options)
			}
		}
		if ev.cfg.OnResult != nil {
			ev.cfg.OnResult(res)
		}
	}
}
