// Package liveness is SNIPE's failure-detection subsystem: the paper's
// "failure notification" made a system property instead of a private
// habit of each layer.
//
// Two kinds of catalog record carry liveness evidence. A host daemon
// writes one heartbeat — a sequence number, a wall-clock timestamp and
// the host's load — when it starts, and a tombstone heartbeat when it
// shuts down cleanly; it does not beat per tick. Ongoing liveness rides
// the gossip tier (internal/gossip): each group's elected reporter
// writes one digest of its members' claims per interval. A Monitor
// watches both prefixes and tracks every host through the state machine
//
//	alive → suspect → dead
//
// using an adaptive timeout derived from the observed inter-arrival
// history (in the spirit of the φ accrual detector, Hayashibara et al.,
// SRDS 2004) rather than a fixed deadline.
//
// Consumers: resource managers filter suspect/dead hosts out of
// placement and re-report tasks stranded on dead hosts; service clients
// balance away from them; the migration layer evacuates checkpointable
// tasks off hosts entering suspicion. The comm layer is not one: it
// buffers and retries to every peer whatever the monitor judges.
// A clean daemon shutdown writes a tombstone heartbeat, so planned
// exits transition to "left" without ever looking like crashes.
package liveness

import (
	"fmt"
	"strconv"
	"strings"

	"snipe/internal/gossip"
	"snipe/internal/naming"
	"snipe/internal/rcds"
)

// Heartbeat is one liveness publication by a host daemon. The catalog
// value format is "<seq> <unixnano> <load>" with a trailing " down" on
// the clean-shutdown tombstone.
type Heartbeat struct {
	Seq  uint64  // monotonically increasing per daemon incarnation
	Time int64   // sender's wall clock, ns since epoch (informational)
	Load float64 // running tasks per CPU, the placement input
	Down bool    // clean-shutdown tombstone
}

// String renders the heartbeat in its catalog value format.
func (h Heartbeat) String() string {
	if h.Down {
		return fmt.Sprintf("%d %d %.2f down", h.Seq, h.Time, h.Load)
	}
	return fmt.Sprintf("%d %d %.2f", h.Seq, h.Time, h.Load)
}

// ParseHeartbeat reads a catalog heartbeat value.
func ParseHeartbeat(s string) (Heartbeat, error) {
	var h Heartbeat
	fields := strings.Fields(s)
	if len(fields) < 3 || len(fields) > 4 {
		return h, fmt.Errorf("liveness: malformed heartbeat %q", s)
	}
	var err error
	if h.Seq, err = strconv.ParseUint(fields[0], 10, 64); err != nil {
		return h, fmt.Errorf("liveness: heartbeat seq: %w", err)
	}
	if h.Time, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
		return h, fmt.Errorf("liveness: heartbeat time: %w", err)
	}
	if h.Load, err = strconv.ParseFloat(fields[2], 64); err != nil {
		return h, fmt.Errorf("liveness: heartbeat load: %w", err)
	}
	if len(fields) == 4 {
		if fields[3] != "down" {
			return h, fmt.Errorf("liveness: heartbeat trailer %q", fields[3])
		}
		h.Down = true
	}
	return h, nil
}

// HostOfURN maps a process URN to its host's distinguished URL, the key
// the Monitor tracks. Returns "" for names outside the process
// namespace (liveness is a host property, not a task property).
func HostOfURN(urn string) string {
	rest, ok := strings.CutPrefix(urn, naming.ProcessPrefix)
	if !ok {
		return ""
	}
	host, _, ok := strings.Cut(rest, ":")
	if !ok || host == "" {
		return ""
	}
	return naming.HostURL(host)
}

// HostLoad reads a host's load figure. A gossip-mode host (it carries
// a gossip-group attribute) publishes load through its group's digest,
// so that is consulted first; the per-host heartbeat covers a host
// whose group has not written yet, and the standalone load attribute
// covers records published by hand.
func HostLoad(cat naming.Catalog, hostURL string) (float64, bool) {
	if v, ok, err := cat.FirstValue(hostURL, rcds.AttrGossipGroup); err == nil && ok {
		if load, ok := digestLoad(cat, hostURL, v); ok {
			return load, true
		}
	}
	if v, ok, err := cat.FirstValue(hostURL, rcds.AttrHeartbeat); err == nil && ok {
		if hb, err := ParseHeartbeat(v); err == nil {
			return hb.Load, true
		}
	}
	if v, ok, err := cat.FirstValue(hostURL, rcds.AttrLoad); err == nil && ok {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			return f, true
		}
	}
	return 0, false
}

// digestLoad resolves a host's load from its gossip group's digest.
// groupAttr is the host's "<group>/<groups>" membership attribute.
func digestLoad(cat naming.Catalog, hostURL, groupAttr string) (float64, bool) {
	idx, _, ok := strings.Cut(groupAttr, "/")
	if !ok {
		return 0, false
	}
	g, err := strconv.Atoi(idx)
	if err != nil || g < 0 {
		return 0, false
	}
	v, ok, err := cat.FirstValue(naming.LivenessGroupURI(g), rcds.AttrGroupDigest)
	if err != nil || !ok {
		return 0, false
	}
	d, err := gossip.ParseDigest(v)
	if err != nil {
		return 0, false
	}
	for _, u := range d.Members {
		if u.Host == hostURL {
			return u.Load, true
		}
	}
	return 0, false
}
