package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"snipe/internal/comm"
	"snipe/internal/netsim"
	"snipe/internal/stats"
)

// The multipath experiment quantifies the paper's multi-path claim
// (§5.3/§7: a dual-homed host should be able to use *all* of its
// interfaces, not just the preferred one): a pair of endpoints joined
// by two independent shaped links stripes large messages across both
// and the aggregate bandwidth is compared against the same stack
// restricted to either medium alone.

// MultipathPoint is one row of the experiment: for a message size and a
// media pair, the striped aggregate bandwidth versus each single-medium
// baseline measured through the identical endpoint stack.
type MultipathPoint struct {
	Media      []string           `json:"media"`
	MsgSize    int                `json:"msg_size"`
	MBps       float64            `json:"striped_mbps"`
	SingleMBps map[string]float64 `json:"single_mbps"`      // per-medium single-route baselines
	BestSingle float64            `json:"best_single_mbps"` // max of SingleMBps
	Speedup    float64            `json:"speedup"`          // striped / best single
}

// MultipathMedia is the canonical media pair of the experiment: the
// paper testbed's switched Ethernet and ATM LANs.
var MultipathMedia = [2]netsim.Profile{netsim.Ethernet100, netsim.ATM155}

// MultipathSizes is the default message-size sweep. Everything is at or
// above the default stripe threshold; the interesting claim is the
// ≥ 1 MB region where fragmentation amortizes.
var MultipathSizes = []int{262144, 1048576, 4194304}

// multipathPair builds two endpoints that are dual-homed toward each
// other: two independent shaped stream links, one per medium, each
// advertised as its own route with the medium's rate/latency so the
// adaptive scorer starts from honest priors.
func multipathPair(media [2]netsim.Profile, seed uint64) (a, b *comm.Endpoint, cleanup func(), err error) {
	const urnA, urnB = "urn:snipe:bench:mp:a", "urn:snipe:bench:mp:b"
	var routes [2][2]comm.Route
	for i, m := range media {
		routes[i] = [2]comm.Route{
			{Transport: "attached", Addr: fmt.Sprintf("a-%d", i), NetName: m.Name, RateBps: m.BitsPerSec, LatencyUs: float64(m.Latency.Microseconds())},
			{Transport: "attached", Addr: fmt.Sprintf("b-%d", i), NetName: m.Name, RateBps: m.BitsPerSec, LatencyUs: float64(m.Latency.Microseconds())},
		}
	}
	resolver := comm.StaticResolver{
		urnA: {routes[0][0], routes[1][0]},
		urnB: {routes[0][1], routes[1][1]},
	}
	a = comm.NewEndpoint(urnA, comm.WithResolver(resolver),
		comm.WithBufferLimit(1<<16), comm.WithRetryInterval(5*time.Second))
	b = comm.NewEndpoint(urnB, comm.WithResolver(resolver),
		comm.WithBufferLimit(1<<16), comm.WithRetryInterval(5*time.Second))

	closers := make([]func(), 0, 2)
	for i := range media {
		ca, cb, link := netsim.StreamPipe(media[i], seed+uint64(i))
		closers = append(closers, link.Close)
		a.AttachConn(routes[i][1].String(), comm.NewStreamFrameConn(ca))
		b.AttachConn(routes[i][0].String(), comm.NewStreamFrameConn(cb))
	}
	cleanup = func() {
		a.Close()
		b.Close()
		for _, c := range closers {
			c()
		}
	}
	return a, b, cleanup, nil
}

// measureStriped pushes n msgSize-byte messages through a dual-homed
// pair and returns the delivered bandwidth.
func measureStriped(media [2]netsim.Profile, msgSize, n int, seed uint64) (float64, error) {
	a, b, cleanup, err := multipathPair(media, seed)
	if err != nil {
		return 0, err
	}
	defer cleanup()

	payload := make([]byte, msgSize)
	received := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			rctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			_, err := b.Recv(rctx)
			cancel()
			if err != nil {
				received <- err
				return
			}
		}
		received <- nil
	}()

	start := time.Now()
	for i := 0; i < n; i++ {
		for {
			err := a.Send("urn:snipe:bench:mp:b", 1, payload)
			if err == nil {
				break
			}
			if err == comm.ErrBufferFull {
				time.Sleep(200 * time.Microsecond)
				continue
			}
			return 0, err
		}
		// Striped payloads are large; keep the unacked window shallow so
		// memory stays bounded without starving the pipes.
		for a.Pending() > 8 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	select {
	case err := <-received:
		if err != nil {
			return 0, fmt.Errorf("bench: multipath receiver: %w", err)
		}
	case <-time.After(120 * time.Second):
		return 0, fmt.Errorf("bench: multipath receiver stalled (%s+%s %d)", media[0].Name, media[1].Name, msgSize)
	}
	elapsed := time.Since(start)
	if snap := a.MetricsSnapshot(); snap.Counters["striped"] == 0 {
		return 0, fmt.Errorf("bench: multipath run at %d bytes never striped", msgSize)
	}
	return float64(n*msgSize) / 1e6 / elapsed.Seconds(), nil
}

// MeasureMultipath measures one point: striped aggregate over the media
// pair versus each medium alone, all through the identical SNIPE stack
// (single-medium runs use the same endpoint code; with one route there
// is nothing to stripe across, so they exercise the failover path).
func MeasureMultipath(media [2]netsim.Profile, msgSize int, seed uint64) (MultipathPoint, error) {
	pt := MultipathPoint{
		Media:      []string{media[0].Name, media[1].Name},
		MsgSize:    msgSize,
		SingleMBps: make(map[string]float64, 2),
	}
	// Size the run off the aggregate capacity so the sweep's duration
	// stays flat across media pairs.
	total := int((media[0].BytesPerSec() + media[1].BytesPerSec()) * 0.3)
	if total > 24<<20 {
		total = 24 << 20
	}
	n := total / msgSize
	if n < 6 {
		n = 6
	}

	mbps, err := measureStriped(media, msgSize, n, seed)
	if err != nil {
		return pt, err
	}
	pt.MBps = mbps

	for i, m := range media {
		single, err := MeasureFig1(m, "snipe-tcp", msgSize, seed+10+uint64(i))
		if err != nil {
			return pt, err
		}
		pt.SingleMBps[m.Name] = single.MBps
		if single.MBps > pt.BestSingle {
			pt.BestSingle = single.MBps
		}
	}
	if pt.BestSingle > 0 {
		pt.Speedup = pt.MBps / pt.BestSingle
	}
	return pt, nil
}

// MultipathSweep runs the experiment for every size over the canonical
// media pair.
func MultipathSweep(sizes []int) ([]MultipathPoint, error) {
	if sizes == nil {
		sizes = MultipathSizes
	}
	var out []MultipathPoint
	seed := uint64(7000)
	for _, s := range sizes {
		seed += 20
		pt, err := MeasureMultipath(MultipathMedia, s, seed)
		if err != nil {
			return out, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// MultipathArtifact is the machine-readable form of a multipath run,
// written to BENCH_multipath.json.
type MultipathArtifact struct {
	Experiment  string           `json:"experiment"`
	GeneratedAt string           `json:"generated_at"`
	Quick       bool             `json:"quick"`
	Points      []MultipathPoint `json:"points"`
	Netsim      stats.Snapshot   `json:"netsim"`
	Env         RunEnv           `json:"env"`
}

// WriteMultipathArtifact writes the run's artifact as indented JSON.
func WriteMultipathArtifact(path string, points []MultipathPoint, quick bool) error {
	art := MultipathArtifact{
		Experiment:  "multipath",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Quick:       quick,
		Points:      points,
		Netsim:      netsim.Metrics().Snapshot(),
		Env:         currentEnv(),
	}
	b, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
