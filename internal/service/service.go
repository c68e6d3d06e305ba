// Package service builds replicated service groups out of SNIPE's
// existing primitives, closing the loop the paper sketches for
// "information services" (§4): several task replicas register under one
// catalog URN, clients resolve the group through the RC metadata
// registry and balance their requests across the live replicas.
//
// The design deliberately adds no new wire protocol and no new
// replicated state:
//
//   - Membership is one RC assertion per replica — the replica's
//     endpoint URN added under the service URN (rcds.AttrServiceReplica).
//     Joining and leaving a group are ordinary catalog writes; a
//     Client learns of them from the catalog's change notification
//     (naming.Watch) and re-reads its replica table, not the catalog on
//     every call.
//   - Load and liveness are NOT republished per service; a replica's
//     process URN names its host, and the host's existing heartbeat
//     (one replicated write per beat, see internal/liveness) already
//     carries both. A service with ten replicas on ten hosts costs ten
//     assertions total, not ten extra write streams.
//   - Requests and responses ride comm's stream layer, so a large
//     response is chunked, flow-controlled and — at stream chunk size —
//     striped across every healthy route to the replica.
//
// Balancing is client-side and liveness-aware: the Client subscribes
// to a liveness.Monitor and drops replicas on suspect/dead hosts from
// rotation before their requests can fail, weights the rest by the
// host load it read with the table and by the comm layer's per-route
// EWMA history, and retries a failed call on a different replica after
// re-reading the table. A replica leaving (drain, migration, crash)
// therefore costs clients a retry at worst, and usually nothing.
//
// Graceful drain mirrors the migration layer's philosophy: a draining
// replica withdraws its catalog registration, refuses new streams
// (peers get ErrDraining and retry elsewhere) and finishes in-flight
// ones. Wiring Server.DrainFor as a migrate.Evacuator DrainHook makes
// suspicion trigger the same sequence automatically.
package service

import (
	"errors"
	"fmt"
)

const (
	// DefaultAttempts is how many distinct replicas a Call tries before
	// giving up.
	DefaultAttempts = 3
)

// ErrNoReplicas is returned when a service group has no registered —
// or no live — replicas.
var ErrNoReplicas = errors.New("service: no live replicas")

// groupError wraps the last per-replica failure with call context.
func groupError(service, method string, attempts int, last error) error {
	return fmt.Errorf("service: %s.%s failed after %d attempts: %w",
		service, method, attempts, last)
}
