package comm

import (
	"slices"
	"time"
)

// Adaptive route scoring. The paper's static policy (§5.3: shared
// private network first, then the advertised media profile) decides
// which routes are *eligible* first; within each eligibility class the
// endpoint now ranks routes by what it has actually observed on them:
// exponentially weighted moving averages of ack round-trip time,
// goodput, and error rate, fed by the same events that drive the
// internal/stats counters. Routes with no history fall back to their
// advertised RateBps/LatencyUs, so a fresh endpoint behaves exactly
// like the static OrderRoutes policy until evidence accumulates.

// scoreMinSamples is how many observations a route needs before its
// measured RTT/goodput displace the advertised media profile.
const scoreMinSamples = 3

// scoreAlpha is the EWMA smoothing factor of the scorer; larger values
// weight recent observations more heavily.
const scoreAlpha = 0.2

// routeEWMA is the per-route moving state behind rankRoutes. All
// fields are guarded by Endpoint.scoreMu.
type routeEWMA struct {
	rttUs      float64 // EWMA of observed ack RTT, µs
	goodputBps float64 // EWMA of observed goodput, bytes/sec
	errRate    float64 // EWMA of attempt failure rate, 0..1
	samples    uint64  // successful observations folded in
}

// observeRouteAck folds one successful acknowledgement into the
// route's EWMAs: bytes acknowledged and the elapsed send→ack time.
func (e *Endpoint) observeRouteAck(routeKey string, bytes int, elapsed time.Duration) {
	if routeKey == "" || elapsed <= 0 {
		return
	}
	rttUs := float64(elapsed.Microseconds())
	if rttUs <= 0 {
		rttUs = 1
	}
	bps := float64(bytes) / elapsed.Seconds()
	e.scoreMu.Lock()
	s := e.scoreFor(routeKey)
	if s.samples == 0 {
		s.rttUs, s.goodputBps = rttUs, bps
	} else {
		s.rttUs += scoreAlpha * (rttUs - s.rttUs)
		s.goodputBps += scoreAlpha * (bps - s.goodputBps)
	}
	s.errRate *= 1 - scoreAlpha // success decays the failure estimate
	s.samples++
	e.scoreMu.Unlock()
}

// observeRouteError folds one send failure into the route's error-rate
// EWMA; a failing route's score collapses quadratically (see
// routeScoreLocked) so retries drain to healthier paths.
func (e *Endpoint) observeRouteError(routeKey string) {
	if routeKey == "" {
		return
	}
	e.scoreMu.Lock()
	s := e.scoreFor(routeKey)
	s.errRate += scoreAlpha * (1 - s.errRate)
	e.scoreMu.Unlock()
}

// scoreFor returns (creating if needed) the EWMA state for a route
// key. Caller holds e.scoreMu.
func (e *Endpoint) scoreFor(routeKey string) *routeEWMA {
	s, ok := e.scores[routeKey]
	if !ok {
		s = &routeEWMA{}
		e.scores[routeKey] = s
	}
	return s
}

// routeScoreLocked computes a route's scalar preference:
//
//	score = capacity × (1 − errRate)² / (1 + latency_µs / 10 000)
//
// where capacity (bytes/sec) and latency come from the route's EWMAs
// once scoreMinSamples observations exist, and from the advertised
// RateBps/LatencyUs before that. Higher is better. key is r's route
// key. Caller holds e.scoreMu.
func (e *Endpoint) routeScoreLocked(r Route, key string) float64 {
	s := e.scores[key]
	capacity := r.RateBps / 8 // advertised bits/sec → bytes/sec prior
	latUs := r.LatencyUs
	errRate := 0.0
	if s != nil {
		errRate = s.errRate
		if s.samples >= scoreMinSamples {
			capacity = s.goodputBps
			latUs = s.rttUs
		}
	}
	if capacity <= 0 {
		capacity = 1e6 // unknown media: assume ~8 Mbit/s
	}
	if latUs < 0 {
		latUs = 0
	}
	healthy := 1 - errRate
	return capacity * healthy * healthy / (1 + latUs/1e4)
}

// rankedRoute is one candidate in a ranking: the route, its key, and
// the two figures it was ranked by.
type rankedRoute struct {
	Route
	key    string
	shared bool    // on a private network the local endpoint is on too
	score  float64 // routeScoreLocked at ranking time
}

// maxStackRoutes sizes the ranking scratch a sender keeps on its stack;
// a destination advertising more routes than this gets a heap slice.
const maxStackRoutes = 8

// rankRoutes appends a destination's routes to out (the caller's empty
// scratch) and ranks them best-first: the §5.3 shared-private-network
// preference partitions them exactly as the static OrderRoutes does, then each
// partition is ordered by the adaptive score, and routes the score does
// not tell apart keep OrderRoutes' order (advertised rate, latency,
// then the order they were resolved in). With no observed history the
// score reduces to the advertised profile, preserving the static
// ordering. Nothing is allocated while the routes fit out.
func (e *Endpoint) rankRoutes(local []Route, rs routeSet, out []rankedRoute) []rankedRoute {
	e.scoreMu.Lock()
	for i, r := range rs.routes {
		out = append(out, rankedRoute{Route: r, key: rs.keys[i],
			shared: sharesNet(local, r), score: e.routeScoreLocked(r, rs.keys[i])})
	}
	e.scoreMu.Unlock()
	slices.SortStableFunc(out, func(a, b rankedRoute) int {
		if a.shared != b.shared {
			return sharedFirst(a.shared)
		}
		if a.score != b.score {
			return descending(a.score, b.score)
		}
		return compareAdvertised(a.Route, b.Route)
	})
	return out
}

// RouteHistory reports what the endpoint has observed on one route, by
// route key: the RTT and error-rate EWMAs and the number of acks behind
// them (0: never used). It allocates nothing.
func (e *Endpoint) RouteHistory(routeKey string) (rttUs, errRate float64, samples uint64) {
	e.scoreMu.Lock()
	defer e.scoreMu.Unlock()
	if s := e.scores[routeKey]; s != nil {
		return s.rttUs, s.errRate, s.samples
	}
	return 0, 0, 0
}
