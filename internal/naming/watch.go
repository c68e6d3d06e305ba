package naming

import (
	"context"
	"time"

	"snipe/internal/rcds"
)

const (
	// watchLongPoll is the server-side window of one Watch long-poll, and
	// watchPollSlack what its context allows on top for the round trip.
	watchLongPoll  = 2 * time.Second
	watchPollSlack = 5 * time.Second
	// watchRetry is how long Watch backs off after a failed long-poll.
	watchRetry = 100 * time.Millisecond
)

// Watch tells its caller when the catalog records under uri may have
// changed. It calls changed once the watch is in place — what was
// written before that is the caller's to read — and again after every
// change from then on, and returns when ctx ends. changed carries no
// detail and may fire for a change that left uri alone: the caller
// re-reads what it cares about.
//
// The notification rides the cheapest face cat offers, and this is the
// one place that chooses: the push subscription of an in-process store
// (StoreCatalog); the version long-poll of a remote client
// (ClientCatalog), on the replica group that owns uri; and, for a
// catalog with neither (a gated or otherwise wrapped one), a tick every
// poll, on which changed fires unconditionally.
func Watch(ctx context.Context, cat Catalog, uri string, poll time.Duration, changed func()) {
	switch c := cat.(type) {
	case interface {
		Subscribe(prefix string, ch chan rcds.Event) int
		Unsubscribe(id int)
	}:
		// One slot is enough: the store drops events a full channel cannot
		// take, and the one already waiting there stands for them.
		ch := make(chan rcds.Event, 1)
		id := c.Subscribe(uri, ch)
		defer c.Unsubscribe(id)
		changed()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ch:
				changed()
			}
		}
	case interface {
		WaitURI(ctx context.Context, uri string, since uint64, timeout time.Duration) (uint64, error)
	}:
		var since uint64
		placed := false // false until a poll succeeds, and again after one fails
		for ctx.Err() == nil {
			pollCtx, cancel := context.WithTimeout(ctx, watchLongPoll+watchPollSlack)
			v, err := c.WaitURI(pollCtx, uri, since, watchLongPoll)
			cancel()
			if err != nil {
				// Changes made while the watch is down go unseen; the next
				// poll that succeeds reports one.
				placed = false
				select {
				case <-ctx.Done():
				case <-time.After(watchRetry):
				}
				continue
			}
			if !placed || v != since {
				since, placed = v, true
				changed()
			}
		}
	default:
		ticker := time.NewTicker(poll)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				changed()
			}
		}
	}
}
