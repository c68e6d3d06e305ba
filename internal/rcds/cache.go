package rcds

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Read-cache coherence (see DESIGN.md):
//
// The group's watch loop rides the server's Wait long-poll. While it
// is healthy the cache serves Get/Values/FirstValue locally; whenever
// the watched catalog version advances — any write, anywhere in the
// replica group that reached our server — the cache is flushed and the
// next read refetches. A watch error (server unreachable) or a replica
// failover empties the cache and disables it until the watch
// re-establishes, so a partitioned client never serves stale reads
// forever. Reads are therefore stale by at most one Wait notification
// latency, and a read observed after the watch has seen a write's
// sequence number is guaranteed to reflect that write.
//
// Fills are epoch-guarded: a response that was in flight across a flush
// must not repopulate the cache with pre-flush data, so each fill
// carries the epoch observed when the request was issued and is
// discarded if a flush intervened. A client issues its groups' epochs
// from one counter, so no two of its caches ever share one.

// watchPoll is the server-side long-poll window of the watch loop.
const watchPoll = 2 * time.Second

// watchRetry is how long the watch backs off after an error before
// re-establishing.
const watchRetry = 100 * time.Millisecond

// maxCacheEntries bounds the read cache; at the bound, new fills are
// dropped (the frequent version-advance flushes keep it small anyway).
const maxCacheEntries = 4096

type cacheKind uint8

const (
	kindGet cacheKind = iota
	kindValues
	kindFirst
)

type cacheKey struct {
	kind cacheKind
	uri  string
	name string
}

type cacheVal struct {
	assertions []Assertion // kindGet
	values     []string    // kindValues
	value      string      // kindFirst
	ok         bool        // kindFirst: value present
}

// readCache is the client-side read cache. valid is true only while the
// watch loop is confirming coherence; epoch changes on every flush
// so in-flight fills that straddle a flush are discarded.
type readCache struct {
	mu      sync.Mutex
	valid   bool
	epoch   uint64
	epochs  *atomic.Uint64 // issues epoch; the client's, shared by its groups
	version uint64         // catalog version the entries were last flushed at
	entries map[cacheKey]cacheVal
}

func newReadCache(epochs *atomic.Uint64) *readCache {
	return &readCache{epoch: epochs.Add(1), epochs: epochs, entries: make(map[cacheKey]cacheVal)}
}

// epochNow returns the current fill epoch and whether the cache is
// serving; fills snapshot the epoch before issuing the remote read
// backing them.
func (rc *readCache) epochNow() (epoch uint64, valid bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.epoch, rc.valid
}

// advance records that the group's catalog version was seen at v, and
// empties the cache — keeping it enabled — unless it was already flushed
// at v. Every long-poll on the group reports here, not the watch loop
// alone: a caller that learns of a change from its own Wait and reads
// next must not be answered from entries older than the change, and
// whichever poll returns first does the flush for both.
func (rc *readCache) advance(v uint64) {
	rc.mu.Lock()
	if v != rc.version {
		rc.version = v
		rc.epoch = rc.epochs.Add(1)
		rc.entries = make(map[cacheKey]cacheVal)
	}
	rc.mu.Unlock()
}

// invalidateAll empties and disables the cache until the watch loop
// re-enables it (watch error, replica failover).
func (rc *readCache) invalidateAll() {
	rc.mu.Lock()
	rc.epoch = rc.epochs.Add(1)
	rc.valid = false
	rc.entries = make(map[cacheKey]cacheVal)
	rc.mu.Unlock()
}

// setValid re-enables serving after a successful watch poll.
func (rc *readCache) setValid() {
	rc.mu.Lock()
	rc.valid = true
	rc.mu.Unlock()
}

// invalidateURI drops every cached read of uri (a write through this
// client), preserving read-your-writes ahead of the watch notification.
func (rc *readCache) invalidateURI(uri string) {
	rc.mu.Lock()
	rc.epoch = rc.epochs.Add(1)
	for k := range rc.entries {
		if k.uri == uri {
			delete(rc.entries, k)
		}
	}
	rc.mu.Unlock()
}

func (rc *readCache) lookup(k cacheKey) (cacheVal, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if !rc.valid {
		return cacheVal{}, false
	}
	v, ok := rc.entries[k]
	return v, ok
}

func (rc *readCache) store(k cacheKey, v cacheVal, epoch uint64) {
	rc.mu.Lock()
	if rc.valid && rc.epoch == epoch && len(rc.entries) < maxCacheEntries {
		rc.entries[k] = v
	}
	rc.mu.Unlock()
}

func (rc *readCache) lookupGet(uri string) ([]Assertion, bool) {
	v, ok := rc.lookup(cacheKey{kind: kindGet, uri: uri})
	if !ok {
		return nil, false
	}
	return append([]Assertion(nil), v.assertions...), true
}

func (rc *readCache) storeGet(uri string, as []Assertion, epoch uint64) {
	rc.store(cacheKey{kind: kindGet, uri: uri},
		cacheVal{assertions: append([]Assertion(nil), as...)}, epoch)
}

func (rc *readCache) lookupValues(uri, name string) ([]string, bool) {
	v, ok := rc.lookup(cacheKey{kind: kindValues, uri: uri, name: name})
	if !ok {
		return nil, false
	}
	return append([]string(nil), v.values...), true
}

func (rc *readCache) storeValues(uri, name string, vals []string, epoch uint64) {
	rc.store(cacheKey{kind: kindValues, uri: uri, name: name},
		cacheVal{values: append([]string(nil), vals...)}, epoch)
}

func (rc *readCache) lookupFirst(uri, name string) (string, bool, bool) {
	v, ok := rc.lookup(cacheKey{kind: kindFirst, uri: uri, name: name})
	if !ok {
		return "", false, false
	}
	return v.value, v.ok, true
}

func (rc *readCache) storeFirst(uri, name, value string, present bool, epoch uint64) {
	rc.store(cacheKey{kind: kindFirst, uri: uri, name: name},
		cacheVal{value: value, ok: present}, epoch)
}

// watchLoop is the client's one long-poll on replica group g: it
// follows the group's catalog version and, on each advance and on its
// first good poll after a start or a failure, flushes the group's cached
// reads (waitOn does) and then signals the subscriptions g owns. The
// poll multiplexes over the group's shared connection, so watching costs
// no dedicated connection and never blocks lookups. In a sharded catalog
// every group runs its own watchLoop — the coherence rule is per group,
// matching the per-group version streams.
func (c *Client) watchLoop(ctx context.Context, g *replicaGroup) {
	defer c.wg.Done()
	var since uint64
	placed := false // false until a poll succeeds, and again after one fails
	for ctx.Err() == nil {
		pollCtx, cancel := context.WithTimeout(ctx, watchPoll+c.Timeout())
		v, err := c.waitOn(pollCtx, g, since, watchPoll)
		cancel()
		if err != nil {
			// Cannot confirm coherence; stop serving cached reads until
			// the watch re-establishes. Changes made meanwhile go unseen;
			// the next good poll signals one.
			placed = false
			if g.cache != nil {
				g.cache.invalidateAll()
			}
			if errors.Is(err, ErrClientClosed) {
				// Close() or a map change has begun retiring this group;
				// don't redial while the client waits on wg.
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(watchRetry):
			}
			continue
		}
		if g.cache != nil {
			g.cache.setValid()
		}
		if !placed || v != since {
			since, placed = v, true
			c.signal(g)
		}
	}
}
