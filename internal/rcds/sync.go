package rcds

import (
	"context"
	"fmt"
)

// defaultSyncPage is the per-RPC op bound for catch-up pulls: large
// enough to amortize round trips, small enough that a page encodes far
// below the frame limit.
const defaultSyncPage = 8192

// Catchup asks the server for ops the holder of vector theirs is
// missing. It returns catchupModeTail with up to maxOps assertions when
// the server's log can serve the whole gap, or catchupModeSnapshot
// (with no ops) when theirs is below the server's compaction floor and
// the requester must page the snapshot first. Replication-internal;
// SyncFromPeer drives it.
func (c *Client) Catchup(ctx context.Context, theirs VersionVector, maxOps int) (mode uint8, ops []Assertion, err error) {
	cl := newCall(cmdCatchup)
	defer cl.release()
	theirs.Encode(&cl.req)
	cl.req.PutUint32(uint32(maxOps))
	if err := c.roundTrip(ctx, c.seed, cl); err != nil {
		return 0, nil, err
	}
	d := &cl.dec
	if mode, err = d.Uint8(); err != nil {
		return 0, nil, err
	}
	switch mode {
	case catchupModeSnapshot:
		return mode, nil, nil
	case catchupModeTail:
		ops, err = DecodeAssertions(d)
		return mode, ops, err
	default:
		return 0, nil, fmt.Errorf("%w: catchup mode %d", ErrServer, mode)
	}
}

// SnapshotPage pulls one page of the server's compacted catalog dump:
// every element (winners and tombstones) for URIs after afterURI, the
// next-page cursor ("" when complete), and the server's version vector.
// Replication-internal; SyncFromPeer drives it.
func (c *Client) SnapshotPage(ctx context.Context, afterURI string, maxOps int) (ops []Assertion, next string, vv VersionVector, err error) {
	cl := newCall(cmdSnapshotPage)
	defer cl.release()
	cl.req.PutString(afterURI)
	cl.req.PutUint32(uint32(maxOps))
	if err := c.roundTrip(ctx, c.seed, cl); err != nil {
		return nil, "", nil, err
	}
	d := &cl.dec
	if vv, err = DecodeVersionVector(d); err != nil {
		return nil, "", nil, err
	}
	if next, err = d.StringMax(maxWireURI); err != nil {
		return nil, "", nil, err
	}
	ops, err = DecodeAssertions(d)
	return ops, next, vv, err
}

// SyncFromPeer brings store up to date from the replica behind peer:
// incremental op tails when the peer's log covers the gap, a paged
// compacted snapshot plus the tail since its base vector when it does
// not. This is the rejoin path — a replica that was down (or a fresh
// one joining the group) converges in O(catalog) transfers instead of
// replaying the full write history — and every pull a server makes when
// a push link opens (DESIGN.md "Replication repair"), which between
// replicas that stayed up takes the tail branch with an empty gap. It asks
// with pullVector: for none of the store's own ops, bar a restored store's.
//
// Each RPC is individually bounded by pushTimeout so a stalled peer
// fails the sync promptly, but the exchange as a whole runs as long as
// pages keep arriving: a catalog-scale snapshot is many round trips,
// and an overall deadline would abandon the transfer before MergeVector
// could bank it (the next round would restart from page one, forever).
func SyncFromPeer(ctx context.Context, store *Store, peer *Client, pageSize int) error {
	if pageSize <= 0 {
		pageSize = defaultSyncPage
	}
	// A snapshot round strictly raises our vector to the peer's base,
	// so two rounds only happen when compaction advances the peer's
	// floor mid-sync; more than a few means we are being outrun.
	for snapshots := 0; ; {
		rctx, rcancel := context.WithTimeout(ctx, pushTimeout)
		mode, ops, err := peer.Catchup(rctx, store.pullVector(), pageSize)
		rcancel()
		if err != nil {
			return err
		}
		if mode == catchupModeTail {
			store.ApplyRemote(ops)
			if len(ops) < pageSize {
				return nil // converged
			}
			continue
		}
		// Snapshot path: page the compacted dump, then merge the base
		// vector and loop back into tail mode for what was written
		// since the first page.
		snapshots++
		if snapshots > 3 {
			return fmt.Errorf("rcds: sync with %v: compaction outran %d snapshot rounds", peer.Servers(), snapshots-1)
		}
		var base VersionVector
		after := ""
		for {
			rctx, rcancel := context.WithTimeout(ctx, pushTimeout)
			page, next, vv, err := peer.SnapshotPage(rctx, after, pageSize)
			rcancel()
			if err != nil {
				return err
			}
			if base == nil {
				// The first page's vector is the base: anything written
				// after it is covered by the tail pull even if a later
				// page already carried it (the merge is idempotent).
				base = vv
			}
			store.InstallSnapshotOps(page)
			if next == "" {
				break
			}
			after = next
		}
		store.MergeVector(base)
	}
}
