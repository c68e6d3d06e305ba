package comm

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Route is one way to reach an endpoint: a transport name, a dialable
// address, and the network interface metadata the paper stores in RC
// host records (§5.2.1) — protocol, "net name" shared by hosts on the
// same private network, per-message latency and bandwidth. The routing
// library uses this to "choose an efficient path to the destination,
// taking advantage of fast, private, and/or non-IP networks where
// available" (§5.2.1).
type Route struct {
	Transport string  // "tcp", "rudp", ...
	Addr      string  // transport-specific address
	NetName   string  // shared network identifier ("" = public internet)
	RateBps   float64 // advertised bandwidth, bits/sec (0 = unknown)
	LatencyUs float64 // advertised per-message latency, µs (0 = unknown)
}

// ListenSpec describes one interface an endpoint should listen on: the
// transport to bind, the bind address, and the media profile (net name,
// bandwidth, latency) advertised to peers via the resulting Route — in
// the full system, published as AttrCommAddr assertions in RC metadata.
type ListenSpec struct {
	Transport string  // "tcp", "rudp", ...
	Addr      string  // transport-specific bind address
	NetName   string  // shared network identifier ("" = public internet)
	RateBps   float64 // advertised bandwidth, bits/sec (0 = unknown)
	LatencyUs float64 // advertised per-message latency, µs (0 = unknown)
}

// Spec converts a route back into the listen spec that would advertise
// it — used when one component's advertised routes seed another's
// listen configuration.
func (r Route) Spec() ListenSpec {
	return ListenSpec{Transport: r.Transport, Addr: r.Addr, NetName: r.NetName,
		RateBps: r.RateBps, LatencyUs: r.LatencyUs}
}

// String renders the route in its RC metadata form:
//
//	transport://addr;net=NAME;rate=BPS;lat=US
func (r Route) String() string {
	s := fmt.Sprintf("%s://%s", r.Transport, r.Addr)
	if r.NetName != "" {
		s += ";net=" + r.NetName
	}
	if r.RateBps > 0 {
		s += fmt.Sprintf(";rate=%g", r.RateBps)
	}
	if r.LatencyUs > 0 {
		s += fmt.Sprintf(";lat=%g", r.LatencyUs)
	}
	return s
}

// ParseRoute parses the RC metadata form produced by String.
func ParseRoute(s string) (Route, error) {
	var r Route
	parts := strings.Split(s, ";")
	head := parts[0]
	i := strings.Index(head, "://")
	if i < 0 {
		return r, fmt.Errorf("comm: route %q missing transport://", s)
	}
	r.Transport = head[:i]
	r.Addr = head[i+3:]
	if r.Transport == "" || r.Addr == "" {
		return r, fmt.Errorf("comm: route %q has empty transport or address", s)
	}
	for _, opt := range parts[1:] {
		kv := strings.SplitN(opt, "=", 2)
		if len(kv) != 2 {
			return r, fmt.Errorf("comm: route option %q in %q", opt, s)
		}
		switch kv[0] {
		case "net":
			r.NetName = kv[1]
		case "rate":
			f, err := strconv.ParseFloat(kv[1], 64)
			if err != nil {
				return r, fmt.Errorf("comm: route rate in %q: %w", s, err)
			}
			// A negative, NaN or infinite rate would poison the route
			// scoring arithmetic and does not survive String().
			if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
				return r, fmt.Errorf("comm: route rate %q in %q out of range", kv[1], s)
			}
			r.RateBps = f
		case "lat":
			f, err := strconv.ParseFloat(kv[1], 64)
			if err != nil {
				return r, fmt.Errorf("comm: route latency in %q: %w", s, err)
			}
			if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
				return r, fmt.Errorf("comm: route latency %q in %q out of range", kv[1], s)
			}
			r.LatencyUs = f
		default:
			// Unknown options are ignored for forward compatibility; the
			// metadata schema is open.
		}
	}
	return r, nil
}

// routeSet is one destination's resolved routes, each with its key —
// its String form, which names the route's connection and its scorer
// entry. The keys are rendered once, when the set is resolved, and live
// exactly as long as the set does; the send path never formats a route.
type routeSet struct {
	routes []Route
	keys   []string // keys[i] == routes[i].String()
}

func newRouteSet(routes []Route) routeSet {
	keys := make([]string, len(routes))
	for i, r := range routes {
		keys[i] = r.String()
	}
	return routeSet{routes: routes, keys: keys}
}

// Resolver maps a destination URN to its candidate routes. The full
// system backs this with RC metadata (AttrCommAddr assertions); tests
// and single-process universes use a static table.
type Resolver interface {
	// Resolve returns the destination's advertised routes. An empty
	// slice with nil error means the URN is known but currently has no
	// address (e.g. mid-migration); callers should buffer and retry.
	Resolve(urn string) ([]Route, error)
}

// ResolverFunc adapts a function to the Resolver interface.
type ResolverFunc func(urn string) ([]Route, error)

// Resolve implements Resolver.
func (f ResolverFunc) Resolve(urn string) ([]Route, error) { return f(urn) }

// StaticResolver is a fixed URN→routes table, safe for concurrent
// reads after construction.
type StaticResolver map[string][]Route

// Resolve implements Resolver.
func (s StaticResolver) Resolve(urn string) ([]Route, error) {
	return s[urn], nil
}

// OrderRoutes sorts candidate routes best-first given the local
// endpoint's own networks, implementing §5.3: "If the source and
// destination are on a common private network or common IP subnet, the
// message is sent using the fastest of those. Otherwise, the message is
// sent using the host's normal IP routing." The sort is stable and the
// input is left alone; the returned slice is the only allocation.
func OrderRoutes(local []Route, remote []Route) []Route {
	out := append([]Route(nil), remote...)
	slices.SortStableFunc(out, func(a, b Route) int {
		if sa, sb := sharesNet(local, a), sharesNet(local, b); sa != sb {
			return sharedFirst(sa)
		}
		return compareAdvertised(a, b)
	})
	return out
}

// sharesNet reports whether r is on one of the named private networks
// the local routes are on.
func sharesNet(local []Route, r Route) bool {
	if r.NetName == "" {
		return false
	}
	for i := range local {
		if local[i].NetName == r.NetName {
			return true
		}
	}
	return false
}

// sharedFirst orders two routes of which exactly one shares a private
// network with the local endpoint: that one goes first.
func sharedFirst(aShares bool) int {
	if aShares {
		return -1
	}
	return 1
}

// compareAdvertised orders two routes of the same class by their
// advertised media profile: the fastest first, then the lowest latency.
func compareAdvertised(a, b Route) int {
	if a.RateBps != b.RateBps {
		return descending(a.RateBps, b.RateBps)
	}
	return descending(b.LatencyUs, a.LatencyUs)
}

// descending compares so that the larger value sorts first.
func descending(a, b float64) int {
	switch {
	case a > b:
		return -1
	case a < b:
		return 1
	}
	return 0
}
