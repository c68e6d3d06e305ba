package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"snipe/internal/comm"
)

// The commtail experiment drives the comm hot path at endpoint counts
// the paper's environment targets (§2: hundreds to thousands of
// cooperating tasks) and reports the *tail* of the end-to-end ack
// latency distribution — the quantity the send-queue sharding, ack
// coalescing and pooled receive path exist to protect. A fleet of
// sender endpoints converges on one sink over the in-process
// transport; every SendWait round-trip is an exact latency
// sample (no histogram buckets), so p50/p99/p999 are order statistics
// of the real distribution. A single-stream goodput comparison across
// tcp-loopback, unix and inproc pins down what the local transports
// buy over looping back through the kernel's TCP stack.

// CommTailPoint is one fan-in measurement: Endpoints concurrent
// senders each issuing MsgsPerEP acknowledged sends of MsgSize bytes
// into one sink.
type CommTailPoint struct {
	Endpoints   int     `json:"endpoints"`
	MsgsPerEP   int     `json:"msgs_per_endpoint"`
	MsgSize     int     `json:"msg_size"`
	Samples     int     `json:"samples"`
	P50Us       float64 `json:"p50_us"`
	P99Us       float64 `json:"p99_us"`
	P999Us      float64 `json:"p999_us"`
	MaxUs       float64 `json:"max_us"`
	GoodputMBps float64 `json:"goodput_mbps"` // aggregate acknowledged bytes / elapsed
	ElapsedSec  float64 `json:"elapsed_sec"`
	AckBatches  uint64  `json:"sink_ack_batches"`  // ack frames of more than one ack the sink sent
	AcksBatched uint64  `json:"sink_acks_batched"` // acks carried inside those frames
}

// CommTailStream is one single-stream goodput measurement over a
// transport, through the identical endpoint stack.
type CommTailStream struct {
	Transport string  `json:"transport"`
	MsgSize   int     `json:"msg_size"`
	Msgs      int     `json:"msgs"`
	MBps      float64 `json:"mbps"`
}

// lockedResolver is a mutable resolver safe for concurrent use while
// the endpoint fleet is still being built. Its route stamp counts the
// changes, so endpoints cache its answers as they would a catalog's.
type lockedResolver struct {
	mu  sync.RWMutex
	m   map[string][]comm.Route
	ver atomic.Uint64
}

func newLockedResolver() *lockedResolver {
	return &lockedResolver{m: make(map[string][]comm.Route)}
}

func (r *lockedResolver) Resolve(urn string) ([]comm.Route, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]comm.Route(nil), r.m[urn]...), nil
}

func (r *lockedResolver) set(urn string, routes ...comm.Route) {
	r.mu.Lock()
	r.m[urn] = routes
	r.ver.Add(1)
	r.mu.Unlock()
}

func (r *lockedResolver) RouteStamp(string) (uint64, bool) { return r.ver.Load(), true }

// quantileUs returns the q-th order statistic of the sorted latency
// samples, in microseconds.
func quantileUs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted)-1) + 0.5)
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx].Nanoseconds()) / 1e3
}

// MeasureCommTail runs the fan-in: endpoints concurrent senders, each
// sending msgs acknowledged messages of msgSize bytes to one sink over
// the in-process transport.
func MeasureCommTail(endpoints, msgs, msgSize int) (CommTailPoint, error) {
	pt := CommTailPoint{Endpoints: endpoints, MsgsPerEP: msgs, MsgSize: msgSize}
	res := newLockedResolver()
	const sinkURN = "urn:snipe:bench:ct:sink"
	sink := comm.NewEndpoint(sinkURN, comm.WithResolver(res),
		comm.WithBufferLimit(1<<16), comm.WithRetryInterval(5*time.Second),
		comm.WithHandler(func(m *comm.Message) {}))
	defer sink.Close()
	sinkRoute, err := sink.Listen(comm.ListenSpec{Transport: "inproc"})
	if err != nil {
		return pt, err
	}
	res.set(sinkURN, sinkRoute)

	senders := make([]*comm.Endpoint, endpoints)
	for i := range senders {
		urn := fmt.Sprintf("urn:snipe:bench:ct:s%d", i)
		e := comm.NewEndpoint(urn, comm.WithResolver(res),
			comm.WithBufferLimit(1<<12), comm.WithRetryInterval(5*time.Second))
		route, err := e.Listen(comm.ListenSpec{Transport: "inproc"})
		if err != nil {
			e.Close()
			return pt, err
		}
		res.set(urn, route)
		senders[i] = e
		defer e.Close()
	}

	payload := make([]byte, msgSize)
	latencies := make([][]time.Duration, endpoints)
	errs := make(chan error, endpoints)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// Warmup: every sender dials, shakes hands and completes one
	// unmeasured round-trip, so the timed phase samples the steady-state
	// hot path rather than a thousand simultaneous connection setups.
	var warm sync.WaitGroup
	for i, e := range senders {
		warm.Add(1)
		go func(i int, e *comm.Endpoint) {
			defer warm.Done()
			if err := e.SendWait(ctx, sinkURN, 1, payload); err != nil {
				errs <- fmt.Errorf("bench: commtail warmup %d: %w", i, err)
			}
		}(i, e)
	}
	warm.Wait()
	select {
	case err := <-errs:
		return pt, err
	default:
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i, e := range senders {
		wg.Add(1)
		go func(i int, e *comm.Endpoint) {
			defer wg.Done()
			lat := make([]time.Duration, 0, msgs)
			for j := 0; j < msgs; j++ {
				t0 := time.Now()
				if err := e.SendWait(ctx, sinkURN, 1, payload); err != nil {
					errs <- fmt.Errorf("bench: commtail sender %d msg %d: %w", i, j, err)
					return
				}
				lat = append(lat, time.Since(t0))
			}
			latencies[i] = lat
		}(i, e)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return pt, err
	default:
	}

	var all []time.Duration
	for _, lat := range latencies {
		all = append(all, lat...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pt.Samples = len(all)
	pt.P50Us = quantileUs(all, 0.50)
	pt.P99Us = quantileUs(all, 0.99)
	pt.P999Us = quantileUs(all, 0.999)
	pt.MaxUs = quantileUs(all, 1)
	pt.ElapsedSec = elapsed.Seconds()
	pt.GoodputMBps = float64(len(all)*msgSize) / 1e6 / elapsed.Seconds()
	snap := sink.MetricsSnapshot()
	pt.AckBatches = snap.Counters["ack_batches"]
	pt.AcksBatched = snap.Counters["acks_batched"]
	return pt, nil
}

// MeasureCommStream measures single-stream goodput between one sender
// and one sink over the given transport ("tcp", "unix" or "inproc"),
// with a shallow unacked window so the pipe stays full without
// unbounded buffering.
func MeasureCommStream(transport string, msgSize, msgs int) (CommTailStream, error) {
	pt := CommTailStream{Transport: transport, MsgSize: msgSize, Msgs: msgs}
	addr := ""
	switch transport {
	case "tcp":
		addr = "127.0.0.1:0"
	case "unix":
		dir, err := os.MkdirTemp("", "snipe-ct")
		if err != nil {
			return pt, err
		}
		defer os.RemoveAll(dir)
		addr = filepath.Join(dir, "stream.sock")
	case "inproc":
	default:
		return pt, fmt.Errorf("bench: commtail stream: unknown transport %q", transport)
	}

	res := newLockedResolver()
	const srcURN, sinkURN = "urn:snipe:bench:cts:src", "urn:snipe:bench:cts:sink"
	done := make(chan struct{})
	received := 0
	sink := comm.NewEndpoint(sinkURN, comm.WithResolver(res),
		comm.WithBufferLimit(1<<15), comm.WithRetryInterval(5*time.Second),
		comm.WithHandler(func(m *comm.Message) {
			received++ // handler calls are serialized per endpoint
			if received == msgs {
				close(done)
			}
		}))
	defer sink.Close()
	route, err := sink.Listen(comm.ListenSpec{Transport: transport, Addr: addr})
	if err != nil {
		return pt, err
	}
	res.set(sinkURN, route)
	src := comm.NewEndpoint(srcURN, comm.WithResolver(res),
		comm.WithBufferLimit(1<<15), comm.WithRetryInterval(5*time.Second))
	defer src.Close()

	payload := make([]byte, msgSize)
	start := time.Now()
	for i := 0; i < msgs; i++ {
		for {
			err := src.Send(sinkURN, 1, payload)
			if err == nil {
				break
			}
			if err == comm.ErrBufferFull {
				time.Sleep(100 * time.Microsecond)
				continue
			}
			return pt, err
		}
		for src.Pending() > 16 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		return pt, fmt.Errorf("bench: commtail stream over %s stalled (%d/%d delivered)",
			transport, received, msgs)
	}
	pt.MBps = float64(msgs*msgSize) / 1e6 / time.Since(start).Seconds()
	return pt, nil
}

// CommTailArtifact is the machine-readable form of a commtail run,
// written to BENCH_commtail.json.
type CommTailArtifact struct {
	Experiment  string           `json:"experiment"`
	GeneratedAt string           `json:"generated_at"`
	Quick       bool             `json:"quick"`
	Points      []CommTailPoint  `json:"points"`
	Streams     []CommTailStream `json:"streams"`
}

// WriteCommTailArtifact writes the run's artifact as indented JSON.
func WriteCommTailArtifact(path string, points []CommTailPoint, streams []CommTailStream, quick bool) error {
	art := CommTailArtifact{
		Experiment:  "commtail",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Quick:       quick,
		Points:      points,
		Streams:     streams,
	}
	b, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
