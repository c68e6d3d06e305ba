package rcds

import (
	"sync/atomic"
	"testing"
)

// TestReadCacheEpochsNeverRepeatAcrossGroups: a client's group caches
// draw their epochs from one counter, so no epoch names two contents.
// naming's route stamp depends on it: after a shard-map change a URN's
// owning group, and so the cache its stamp is read from, changes, and a
// new group's epoch must not match a stamp filed under the old one.
func TestReadCacheEpochsNeverRepeatAcrossGroups(t *testing.T) {
	var epochs atomic.Uint64
	caches := []*readCache{newReadCache(&epochs), newReadCache(&epochs)}
	seen := make(map[uint64]bool)
	note := func(rc *readCache) {
		e, _ := rc.epochNow()
		if seen[e] {
			t.Fatalf("epoch %d issued twice", e)
		}
		seen[e] = true
	}
	for _, rc := range caches {
		note(rc)
	}
	for v := uint64(1); v <= 3; v++ {
		for _, rc := range caches {
			rc.advance(v)
			note(rc)
			rc.invalidateURI("urn:x")
			note(rc)
			rc.invalidateAll()
			note(rc)
		}
	}
}
