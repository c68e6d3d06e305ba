package naming

import (
	"context"

	"snipe/internal/rcds"
)

// Watch tells its caller when the catalog records under uri may have
// changed. It subscribes to uri, calls changed once the subscription is
// in place — what was written before that is the caller's to read — and
// again for each event from then on, and returns when ctx ends. changed
// carries no detail and may fire for a change that left uri alone: the
// caller re-reads what it cares about.
func Watch(ctx context.Context, cat Catalog, uri string, changed func()) {
	// One slot is enough: the catalog drops events a full channel cannot
	// take, and the one already waiting there stands for them.
	ch := make(chan rcds.Event, 1)
	id := cat.Subscribe(uri, ch)
	defer cat.Unsubscribe(id)
	changed()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ch:
			changed()
		}
	}
}
