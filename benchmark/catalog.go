package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"snipe/internal/naming"
	"snipe/internal/rcds"
)

const (
	catalogKeys = 50000
	// watchedEvery: every 64th Set of a client lands on one of its watched
	// keys, so the watch path takes a steady 1.6 % of the writes.
	watchedEvery   = 64
	watchedPerSide = 8 // 16 watched keys over the two clients
	preloaders     = 16
	watchedPrefix  = naming.ProcessPrefix + "watched:"
	wakeLimit      = 2 * time.Second
)

// stateValues are the two values every key toggles between. Set
// tombstones the value it replaces, so toggling keeps each URI at one
// live element and one tombstone however long the run is; fresh values
// per write would grow every URI's element set, and with it the cost of
// Set and the heap, in proportion to the ops a run completed.
var stateValues = [2]string{"running", "blocked"}

// catalogWorkload is two uncached rcds.Clients on replica 0 of a
// 2-replica group, alternating Set and Get over their own halves of the
// key space, with WaitURI watchers on 16 keys.
type catalogWorkload struct {
	st      *stack
	warm    uint64
	clis    []*catClient
	watchC  *rcds.Client // carries the watchers' long-polls and reads
	byURI   map[string]*watcher
	watchWG sync.WaitGroup
	tr      atomic.Pointer[tracer]

	// Replica 1's push subscription, attached while tracing.
	subID   int
	subCh   chan rcds.Event
	subDone chan struct{}
}

type catClient struct {
	w       *catalogWorkload
	idx     int
	c       *rcds.Client
	rng     *rand.Rand
	keys    []string
	last    []uint8 // index into stateValues last written to keys[i]
	watched []*watcher
	n       uint64 // ops issued
	sets    uint64
	digest  uint64
	// Per-class latencies, recorded while tracing.
	setHist, getHist hist
}

// watchReq arms a watcher just before its key is written.
type watchReq struct {
	want   uint8
	start  time.Time
	parent uint64 // span id of the Set, 0 when the op is not traced
	op     uint64
	client int
}

// watcher holds one watched key: armed by the writer, it re-reads the key
// and long-polls the catalog version (WaitURI) until the new value shows,
// as rcds.Client.WaitFor does for a value's first appearance.
type watcher struct {
	uri  string
	last uint8
	arm  chan *watchReq

	// pending is the latest request, which the replication subscriber
	// matches events against.
	pending atomic.Pointer[watchReq]

	armed   atomic.Uint64
	seen    atomic.Uint64
	missed  atomic.Uint64
	returns atomic.Uint64 // WaitURI calls that returned
}

func keyURN(k int) string {
	return naming.ProcessURN(fmt.Sprintf("node%04d", k/64), fmt.Sprintf("task%05d", k))
}

func newCatalogWorkload(seed uint64, keys int, warm uint64) (*catalogWorkload, error) {
	st, err := newStack(2, false, rcds.WithLogCompaction(compactKeep))
	if err != nil {
		return nil, err
	}
	w := &catalogWorkload{st: st, warm: warm, byURI: make(map[string]*watcher)}
	w.watchC = st.newClient(false)
	half := keys / 2
	for i := 0; i < 2; i++ {
		c := &catClient{w: w, idx: i, c: st.newClient(false), rng: clientRNG(seed, i)}
		c.keys = make([]string, half)
		c.last = make([]uint8, half)
		for k := range c.keys {
			c.keys[k] = keyURN(i*half + k)
		}
		for k := 0; k < watchedPerSide; k++ {
			wt := &watcher{uri: fmt.Sprintf("%sc%d-%d", watchedPrefix, i, k), arm: make(chan *watchReq, 1)}
			c.watched = append(c.watched, wt)
			w.byURI[wt.uri] = wt
		}
		w.clis = append(w.clis, c)
	}
	if err := w.preload(); err != nil {
		w.close()
		return nil, err
	}
	for _, c := range w.clis {
		for _, wt := range c.watched {
			w.watchWG.Add(1)
			go w.watch(wt)
		}
	}
	return w, nil
}

// preload writes every key's first value through the clients, as a user
// populating the catalog would: preloaders goroutines per client keep
// requests pipelined on the client's one multiplexed connection.
func (w *catalogWorkload) preload() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	errs := make(chan error, len(w.clis)*preloaders)
	for _, c := range w.clis {
		uris := append([]string(nil), c.keys...)
		for _, wt := range c.watched {
			uris = append(uris, wt.uri)
		}
		for p := 0; p < preloaders; p++ {
			go func(c *catClient, p int) {
				for k := p; k < len(uris); k += preloaders {
					if err := c.c.Set(ctx, uris[k], rcds.AttrState, stateValues[0]); err != nil {
						errs <- fmt.Errorf("preloading %s: %w", uris[k], err)
						return
					}
				}
				errs <- nil
			}(c, p)
		}
	}
	var first error
	for i := 0; i < cap(errs); i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
			cancel()
		}
	}
	return first
}

func (w *catalogWorkload) clients() []opFunc {
	ops := make([]opFunc, len(w.clis))
	for i, c := range w.clis {
		ops[i] = c.op
	}
	return ops
}

func (c *catClient) op(ctx context.Context) error {
	c.n++
	tr := c.w.tr.Load()
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	var err error
	var class *hist
	var name string
	var root uint64
	// Each class samples on its own count, Sets half a watch period away
	// from the watched ones (which always record, as their watcher's span
	// needs a parent): sampling on c.n, which is even for every Get, would
	// never pick an ordinary Set.
	k := (c.n + 1) / 2
	if c.n%2 == 1 {
		class, name = &c.setHist, "catalog.set"
		k += watchedEvery / 2
		root, err = c.set(ctx, tr)
	} else {
		class, name = &c.getHist, "catalog.get"
		err = c.get(ctx)
	}
	if tr != nil && err == nil {
		t1 := time.Now()
		class.record(t1.Sub(t0))
		if root == 0 && tr.sampled(k) {
			root = tr.newID()
		}
		if root != 0 {
			tr.record(name, root, 0, c.n, c.idx, t0, t1)
		}
	}
	return err
}

// set writes the other state value to a seeded-uniform key of the
// client's half, or — every watchedEvery-th time — to one of its watched
// keys after arming that key's watcher. It returns the span id reserved
// for a traced watched Set.
func (c *catClient) set(ctx context.Context, tr *tracer) (root uint64, err error) {
	c.sets++
	if c.sets%watchedEvery == 0 {
		wt := c.watched[(c.sets/watchedEvery)%watchedPerSide]
		next := 1 - wt.last
		if tr != nil {
			root = tr.newID()
		}
		req := &watchReq{want: next, start: time.Now(), parent: root, op: c.n, client: c.idx}
		wt.pending.Store(req)
		wt.armed.Add(1)
		select {
		case wt.arm <- req:
		case <-ctx.Done():
			return root, ctx.Err()
		}
		c.digest = fold(c.digest, uint64(len(c.keys))+c.sets/watchedEvery%watchedPerSide)
		if err := c.c.Set(ctx, wt.uri, rcds.AttrState, stateValues[next]); err != nil {
			return root, err
		}
		wt.last = next
		return root, nil
	}
	k := c.rng.Intn(len(c.keys))
	c.digest = fold(c.digest, uint64(k))
	next := 1 - c.last[k]
	if err := c.c.Set(ctx, c.keys[k], rcds.AttrState, stateValues[next]); err != nil {
		return 0, err
	}
	c.last[k] = next
	return 0, nil
}

// get reads a seeded-uniform key of the client's own half and checks
// read-your-writes: the one live state value is the one this client
// wrote last (or the preloaded one).
func (c *catClient) get(ctx context.Context) error {
	k := c.rng.Intn(len(c.keys))
	c.digest = fold(c.digest, uint64(k))
	as, err := c.c.Get(ctx, c.keys[k])
	if err != nil {
		return err
	}
	if len(as) != 1 || as[0].Name != rcds.AttrState || as[0].Value != stateValues[c.last[k]] {
		return fmt.Errorf("read-your-writes broken on %s: want %s=%q, got %v",
			c.keys[k], rcds.AttrState, stateValues[c.last[k]], as)
	}
	return nil
}

// watch serves one watched key until its arm channel closes.
func (w *catalogWorkload) watch(wt *watcher) {
	defer w.watchWG.Done()
	ctx := context.Background()
	var version uint64
	for req := range wt.arm {
		want := stateValues[req.want]
		for {
			v, ok, err := w.watchC.FirstValue(ctx, wt.uri, rcds.AttrState)
			if err == nil && ok && v == want {
				wt.seen.Add(1)
				break
			}
			if time.Since(req.start) > wakeLimit || errors.Is(err, rcds.ErrClientClosed) {
				wt.missed.Add(1)
				break
			}
			if nv, err := w.watchC.WaitURI(ctx, wt.uri, version, 100*time.Millisecond); err == nil {
				version = nv
				wt.returns.Add(1)
			}
		}
		if tr := w.tr.Load(); tr != nil && req.parent != 0 {
			tr.record("rcds.watch.wake", tr.newID(), req.parent, req.op, req.client, req.start, time.Now())
		}
	}
}

// subscribe attaches a push subscription to replica 1's store and records
// when each traced watched Set becomes visible there.
func (w *catalogWorkload) subscribe(tr *tracer) {
	// 64: the subscriber only timestamps, so it keeps up with the 1.6 % of
	// writes that match; the store drops events rather than block.
	w.subCh = make(chan rcds.Event, 64)
	w.subDone = make(chan struct{})
	w.subID = w.st.servers[1].Store().Subscribe(watchedPrefix, w.subCh)
	go func() {
		defer close(w.subDone)
		for ev := range w.subCh {
			a := ev.Assertion
			wt := w.byURI[a.URI]
			if wt == nil || a.Deleted {
				continue
			}
			req := wt.pending.Load()
			if req == nil || req.parent == 0 || a.Value != stateValues[req.want] {
				continue
			}
			tr.record("rcds.repl.visible", tr.newID(), req.parent, req.op, req.client, req.start, time.Now())
		}
	}()
}

func (w *catalogWorkload) unsubscribe() {
	if w.subCh == nil {
		return
	}
	w.st.servers[1].Store().Unsubscribe(w.subID)
	close(w.subCh)
	<-w.subDone
	w.subCh = nil
}

func (w *catalogWorkload) setTracer(tr *tracer) {
	w.unsubscribe()
	w.tr.Store(tr)
	if tr != nil {
		w.subscribe(tr)
	}
}

func (w *catalogWorkload) warmupOps() uint64 { return w.warm }

func (w *catalogWorkload) settle() {
	for _, srv := range w.st.servers {
		srv.Store().Compact(compactKeep)
	}
}

func (w *catalogWorkload) counters() map[string]uint64 {
	out := make(map[string]uint64)
	for i, srv := range w.st.servers {
		p := fmt.Sprintf("rc%d.", i)
		for k, v := range srv.Store().MetricsSnapshot().Counters {
			out[p+k] = v
		}
		out["push_failures"] += uint64(srv.PushFailures())
	}
	for _, c := range w.clis {
		out["sets"] += c.sets
		for _, wt := range c.watched {
			out["watch.armed"] += wt.armed.Load()
			out["watch.returns"] += wt.returns.Load()
		}
	}
	return out
}

func (w *catalogWorkload) layerMetrics(out map[string]float64, d func(string) float64, r *region) {
	out["rcds.repl.remote_ops_per_set"] = ratio(d("rc1.remote_ops"), d("sets"))
	out["rcds.repl.push_failures"] = d("push_failures")
	out["rcds.repl.compacted_ops_per_s"] = ratio(d("rc0.log_compacted_ops")+d("rc1.log_compacted_ops"), r.wall().Seconds())
	out["rcds.watch.wakes_per_watched_set"] = ratio(d("watch.returns"), d("watch.armed"))
	var set, get hist
	for _, c := range w.clis {
		set.merge(&c.setHist)
		get.merge(&c.getHist)
	}
	out["rcds.mix.set_p50_us"] = set.quantile(0.50) / 1e3
	out["rcds.mix.set_p99_us"] = set.quantile(0.99) / 1e3
	out["rcds.mix.get_p50_us"] = get.quantile(0.50) / 1e3
	out["rcds.mix.get_p99_us"] = get.quantile(0.99) / 1e3
}

// verify waits for the watchers to see their last writes, then checks
// that replica 1 caught up with replica 0: its vector dominates and the
// content hashes are equal within 5 s.
func (w *catalogWorkload) verify(ctx context.Context) (uint64, error) {
	var wrong uint64
	deadline := time.Now().Add(wakeLimit)
	for _, wt := range w.byURI {
		for wt.seen.Load()+wt.missed.Load() < wt.armed.Load() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		wrong += wt.armed.Load() - wt.seen.Load()
	}
	var errs []string
	if wrong > 0 {
		errs = append(errs, fmt.Sprintf("%d watched writes never woke their watcher", wrong))
	}
	if err := w.st.awaitConverged(ctx, 5*time.Second); err != nil {
		errs = append(errs, err.Error())
	}
	if n := w.st.servers[1].Store().MetricsSnapshot().Counters["local_ops"]; n != 0 {
		errs = append(errs, fmt.Sprintf("replica 1 accepted %d client writes; every client should be on replica 0", n))
	}
	if len(errs) > 0 {
		return wrong, errors.New(strings.Join(errs, "; "))
	}
	return 0, nil
}

func (w *catalogWorkload) inputDigest() uint64 {
	var d uint64
	for _, c := range w.clis {
		d = fold(d, c.digest)
	}
	return d
}

func (w *catalogWorkload) close() {
	w.unsubscribe()
	for _, wt := range w.byURI {
		close(wt.arm)
	}
	// Closing the watch client first fails any long-poll a watcher is in,
	// so the watchers see their closed arm channels and exit.
	w.watchC.Close()
	w.watchWG.Wait()
	for _, c := range w.clis {
		c.c.Close()
	}
	w.st.close()
}
