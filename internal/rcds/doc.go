// Package rcds implements the Resource Cataloging and Distribution
// System substrate that SNIPE is built on (paper §2.1, §3.1, §5.2).
//
// RCDS maintains, for every resource named by a URI (URL or URN), a set
// of metadata assertions — "name=value" pairs — in a highly distributed
// and replicated registry. The registry uses a "true master–master
// update data model" (§7): every RC server accepts writes and
// propagates them to its peers, trading strict serializability for
// availability, exactly the design point the paper argues for in
// replicated registries (§2.1).
//
// The replication model is a last-writer-wins element set with one
// clear-and-set register per attribute: each (URI, name, value) element
// carries a Lamport clock and the origin server's identity; concurrent
// updates are resolved by (clock, origin) ordering, a Remove leaves a
// tombstone, a Set is one op that replaces the attribute's register and
// clears every element and tombstone stamped before it, and
// anti-entropy exchanges use per-origin version vectors over each
// server's op log. This gives the
// paper's availability-over-atomicity consistency ("a consistency model
// which sacrifices strict atomicity and serializability", §2.1) with
// convergence guaranteed by commutative, idempotent merges.
//
// # Structure
//
// The package splits three ways, mirroring the deployment shape:
//
//   - Store (store.go, persist.go) is the replica state machine: the
//     assertion catalog (per URI one slice of entries sorted by name,
//     register first, then value; DESIGN.md "What a URN costs"), the
//     per-origin op log with its version vector and compaction floor,
//     and the merge rules. It is purely local — no I/O beyond explicit
//     Save/Load — so every replication property is testable without a
//     network.
//   - Server (server.go, wire.go) puts a Store on the wire: a
//     multiplexed length-prefixed binary protocol with optional HMAC
//     authentication, a connection's requests served in arrival order
//     by its read loop, push replication to peers as one-way frames,
//     periodic anti-entropy pulls (SyncFromPeer) that repair what a push
//     lost, and optional shard enforcement plus log compaction.
//   - Client (client.go, cache.go, shard.go, sync.go) is what the rest
//     of SNIPE holds: failover across a replica group, request
//     multiplexing, the watch-coherent read cache, and routing of
//     URI-keyed operations to the replica group that owns the URI under
//     the catalog's shard map (every operation goes to the group the
//     client was given when the catalog publishes no map).
//
// # Sharding
//
// A catalog too large for one replica group is partitioned by
// consistent hashing over the URI path (ShardOf): each URI is owned by
// exactly one group, writes and watches fan out only within the owning
// group, and the shard map itself lives in the catalog's config
// namespace (ShardMapURI) so clients bootstrap it from any replica.
// Servers answer operations on foreign URIs with a typed wrong-shard
// redirect; clients re-resolve the map and retry. Replicas that fall
// behind a peer's compaction floor converge via a paged catalog
// snapshot plus the op tail since its base vector (SyncFromPeer)
// instead of replaying the full write history. DESIGN.md "Sharded
// catalog" specifies the protocol and its failure modes.
package rcds
