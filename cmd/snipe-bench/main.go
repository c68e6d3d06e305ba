// Command snipe-bench regenerates the paper's evaluation artifacts
// (DESIGN.md experiment index E1–E8) and prints them as the
// rows/series the paper reports.
//
// Usage:
//
//	snipe-bench -experiment fig1|multipath|commtail|mpiconnect|availability|multicast|migration|scalability|failover|liveness|service|rudploss|all
//	snipe-bench -experiment fig1 -quick
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"
	"time"

	"snipe/internal/bench"
	"snipe/internal/netsim"
)

var (
	experiment = flag.String("experiment", "all", "which experiment to run")
	quick      = flag.Bool("quick", false, "reduced sweeps for a fast run")
	fig1Out    = flag.String("fig1-out", "BENCH_fig1.json", "path for the fig1 JSON artifact (empty to skip)")
	mpOut      = flag.String("multipath-out", "BENCH_multipath.json", "path for the multipath JSON artifact (empty to skip)")
	floOut     = flag.String("failover-out", "BENCH_failover.json", "path for the liveness/detection JSON artifact (empty to skip)")
	ctOut      = flag.String("commtail-out", "BENCH_commtail.json", "path for the comm tail-latency JSON artifact (empty to skip)")
	svcOut     = flag.String("service-out", "BENCH_service.json", "path for the service-group kill JSON artifact (empty to skip)")
	catOut     = flag.String("catalog-out", "BENCH_catalog.json", "path for the sharded-catalog JSON artifact (empty to skip)")
)

func main() {
	log.SetFlags(0)
	flag.Parse()
	runners := map[string]func() error{
		"fig1":         runFig1,
		"mpiconnect":   runMPIConnect,
		"availability": runAvailability,
		"multicast":    runMulticast,
		"migration":    runMigration,
		"scalability":  runScalability,
		"failover":     runFailover,
		"liveness":     runLiveness,
		"service":      runService,
		"rudploss":     runRUDPLoss,
		"paths":        runPaths,
		"multipath":    runMultipath,
		"commtail":     runCommTail,
		"catalog":      runCatalog,
	}
	order := []string{"fig1", "multipath", "commtail", "catalog", "mpiconnect", "availability", "multicast", "migration", "scalability", "failover", "liveness", "service", "rudploss", "paths"}
	if *experiment == "all" {
		for _, name := range order {
			if err := runners[name](); err != nil {
				log.Fatalf("%s: %v", name, err)
			}
		}
		return
	}
	run, ok := runners[*experiment]
	if !ok {
		log.Fatalf("unknown experiment %q (want one of %v or all)", *experiment, order)
	}
	if err := run(); err != nil {
		log.Fatalf("%s: %v", *experiment, err)
	}
}

func tab() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func runFig1() error {
	fmt.Println("== E1 / Fig. 1: Bandwidth (MB/s) offered to SNIPE client applications on various media ==")
	sizes := bench.Fig1Sizes
	if *quick {
		sizes = []int{1024, 16384, 262144}
	}
	points, err := bench.Fig1Sweep(nil, nil, sizes)
	if err != nil {
		return err
	}
	// Pivot: rows = message size, columns = medium/transport.
	type col struct{ medium, transport string }
	var cols []col
	seen := map[col]bool{}
	table := map[col]map[int]float64{}
	for _, p := range points {
		c := col{p.Medium, p.Transport}
		if !seen[c] {
			seen[c] = true
			cols = append(cols, c)
			table[c] = map[int]float64{}
		}
		table[c][p.MsgSize] = p.MBps
	}
	w := tab()
	fmt.Fprint(w, "msg size")
	for _, c := range cols {
		fmt.Fprintf(w, "\t%s %s", c.medium, c.transport)
	}
	fmt.Fprintln(w)
	for _, s := range sizes {
		fmt.Fprintf(w, "%d", s)
		for _, c := range cols {
			fmt.Fprintf(w, "\t%.2f", table[c][s])
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("-- end-to-end ack latency (µs) per point --")
	w = tab()
	fmt.Fprintln(w, "medium\ttransport\tmsg size\tp50\tp90\tp99\tmax")
	for _, p := range points {
		if p.AckLatencyUs == nil {
			continue
		}
		h := p.AckLatencyUs
		fmt.Fprintf(w, "%s\t%s\t%d\t%.0f\t%.0f\t%.0f\t%.0f\n",
			p.Medium, p.Transport, p.MsgSize,
			h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Max)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if *fig1Out != "" {
		if err := bench.WriteFig1Artifact(*fig1Out, points, *quick); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d points)\n", *fig1Out, len(points))
	}
	return nil
}

func runMultipath() error {
	fmt.Println("== multipath / §5.3: striped transmission over two media vs either medium alone ==")
	sizes := bench.MultipathSizes
	if *quick {
		sizes = []int{1048576}
	}
	points, scores, err := bench.MultipathSweep(sizes)
	if err != nil {
		return err
	}
	w := tab()
	fmt.Fprintln(w, "media\tmsg size\tstriped MB/s\tbest single MB/s\tspeedup")
	for _, p := range points {
		fmt.Fprintf(w, "%s+%s\t%d\t%.2f\t%.2f\t%.2fx\n",
			p.Media[0], p.Media[1], p.MsgSize, p.MBps, p.BestSingle, p.Speedup)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	// The claim under test: at large sizes the striped aggregate must
	// strictly beat the best single medium.
	for _, p := range points {
		if p.MsgSize >= 1<<20 && p.MBps <= p.BestSingle {
			return fmt.Errorf("multipath: striped %.2f MB/s did not beat best single %.2f MB/s at %d bytes",
				p.MBps, p.BestSingle, p.MsgSize)
		}
	}
	fmt.Println("-- sender route scores after the final striped run --")
	w = tab()
	fmt.Fprintln(w, "route\tscore\trtt µs\tgoodput MB/s\terr rate\tsamples")
	for _, s := range scores {
		fmt.Fprintf(w, "%s\t%.3g\t%.0f\t%.2f\t%.3f\t%d\n",
			s.Route, s.Score, s.RTTUs, s.GoodputBps/1e6, s.ErrRate, s.Samples)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if *mpOut != "" {
		if err := bench.WriteMultipathArtifact(*mpOut, points, scores, *quick); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d points)\n", *mpOut, len(points))
	}
	return nil
}

func runCommTail() error {
	fmt.Println("== commtail: end-to-end ack latency tail under endpoint fan-in, and local-transport goodput ==")
	// The tail claim needs scale: ≥1k concurrent endpoints even in
	// quick mode; quick only trims the per-endpoint message count.
	fan := []struct{ endpoints, msgs int }{{256, 20}, {1024, 20}}
	streamMsgs := 64
	if *quick {
		fan = []struct{ endpoints, msgs int }{{1024, 5}}
		streamMsgs = 16
	}
	const msgSize = 4096
	var points []bench.CommTailPoint
	w := tab()
	fmt.Fprintln(w, "endpoints\tmsgs/ep\tp50 µs\tp99 µs\tp999 µs\tmax µs\tgoodput MB/s\tack batches")
	for _, f := range fan {
		pt, err := bench.MeasureCommTail(f.endpoints, f.msgs, msgSize)
		if err != nil {
			return err
		}
		points = append(points, pt)
		fmt.Fprintf(w, "%d\t%d\t%.0f\t%.0f\t%.0f\t%.0f\t%.2f\t%d\n",
			pt.Endpoints, pt.MsgsPerEP, pt.P50Us, pt.P99Us, pt.P999Us, pt.MaxUs,
			pt.GoodputMBps, pt.AckBatches)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	fmt.Println("-- single-stream goodput: tcp loopback vs the local transports --")
	var streams []bench.CommTailStream
	w = tab()
	fmt.Fprintln(w, "transport\tmsg size\tMB/s")
	byTransport := map[string]float64{}
	for _, tr := range []string{"tcp", "unix", "inproc"} {
		st, err := bench.MeasureCommStream(tr, 1<<20, streamMsgs)
		if err != nil {
			return err
		}
		streams = append(streams, st)
		byTransport[tr] = st.MBps
		fmt.Fprintf(w, "%s\t%d\t%.2f\n", st.Transport, st.MsgSize, st.MBps)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	// The claims under test: the local transports must beat looping
	// back through kernel TCP on the identical endpoint stack.
	for _, tr := range []string{"unix", "inproc"} {
		if byTransport[tr] <= byTransport["tcp"] {
			return fmt.Errorf("commtail: %s goodput %.2f MB/s did not beat tcp loopback %.2f MB/s",
				tr, byTransport[tr], byTransport["tcp"])
		}
	}
	if *ctOut != "" {
		if err := bench.WriteCommTailArtifact(*ctOut, points, streams, *quick); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d points, %d streams)\n", *ctOut, len(points), len(streams))
	}
	return nil
}

func runCatalog() error {
	fmt.Println("== catalog: sharded catalog at scale (load, placement, watch fan-out, snapshot rejoin) ==")
	cfg := bench.CatalogDefaults(*quick)
	fmt.Printf("%d URIs across %d shard groups x %d replicas, %d writers, %d watchers\n",
		cfg.URIs, cfg.Groups, cfg.Replicas, cfg.Writers, cfg.Watchers)
	res, err := bench.MeasureCatalog(cfg)
	if err != nil {
		return err
	}
	w := tab()
	fmt.Fprintln(w, "phase\tmetric\tvalue")
	fmt.Fprintf(w, "load\twrite ops/s\t%.0f\n", res.WriteOpsPerSec)
	fmt.Fprintf(w, "load\tsecs\t%.2f\n", res.LoadSecs)
	fmt.Fprintf(w, "load\trequest writes per frame\t%.3f\n", res.LoadWritesPerFrame)
	fmt.Fprintf(w, "load\theap B per URI per replica\t%.0f\n", res.HeapBytesPerURI)
	fmt.Fprintf(w, "read\tread ops/s\t%.0f\n", res.ReadOpsPerSec)
	fmt.Fprintf(w, "read\tp50 / p99 ms\t%.2f / %.2f\n", res.ReadP50Ms, res.ReadP99Ms)
	fmt.Fprintf(w, "watch\twatchers\t%d\n", res.Watchers)
	fmt.Fprintf(w, "watch\twake p50 / p99 ms\t%.1f / %.1f\n", res.WatchWakeP50Ms, res.WatchWakeP99Ms)
	fmt.Fprintf(w, "rejoin\tmissed history ops\t%d\n", res.RejoinHistoryOps)
	fmt.Fprintf(w, "rejoin\tsnapshot ops\t%d\n", res.RejoinSnapshotOps)
	fmt.Fprintf(w, "rejoin\tsecs\t%.2f\n", res.RejoinSecs)
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("per-group URIs %v; sampled %d URIs: %d misplaced; %d cross-group origins; %d shard rejects, %d client redirects\n",
		res.PerGroupURIs, res.PlacementSample, res.MisplacedURIs, res.CrossGroupOrigins,
		res.ShardRejects, res.WrongShardRedirects)
	// The claims under test: every group owns part of the population and
	// nothing lands off-shard; every watcher wakes; the rejoining replica
	// converges through the compacted snapshot, transferring less than
	// the history it missed.
	for g, n := range res.PerGroupURIs {
		if n <= 1 { // the shard-map config entry alone
			return fmt.Errorf("catalog: group %d holds %d URIs; population not spreading", g, n)
		}
	}
	if res.MisplacedURIs != 0 {
		return fmt.Errorf("catalog: %d of %d sampled URIs present on a non-owning group", res.MisplacedURIs, res.PlacementSample)
	}
	if res.CrossGroupOrigins != 0 {
		return fmt.Errorf("catalog: %d foreign origins in group version vectors; write fan-out escaped its group", res.CrossGroupOrigins)
	}
	if res.WatchTimeouts != 0 {
		return fmt.Errorf("catalog: %d of %d watchers never woke", res.WatchTimeouts, res.Watchers)
	}
	if !res.RejoinConverged {
		return fmt.Errorf("catalog: rejoined replica never converged")
	}
	if !res.RejoinUsedSnapshot {
		return fmt.Errorf("catalog: rejoin did not use the snapshot path")
	}
	if res.RejoinSnapshotOps >= res.RejoinHistoryOps {
		return fmt.Errorf("catalog: snapshot transferred %d ops, not less than the %d missed",
			res.RejoinSnapshotOps, res.RejoinHistoryOps)
	}
	if *catOut != "" {
		if err := bench.WriteCatalogArtifact(*catOut, res, *quick); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *catOut)
	}
	return nil
}

func runMPIConnect() error {
	fmt.Println("== E2 / §6.1: inter-MPP point-to-point, MPI Connect (SNIPE) vs PVMPI (PVM daemon-routed) ==")
	sizes := []int{64, 1024, 4096, 65536}
	if *quick {
		sizes = []int{64, 4096}
	}
	iters := 300
	if *quick {
		iters = 100
	}
	w := tab()
	fmt.Fprintln(w, "msg size\tMPI Connect RTT µs\tPVMPI RTT µs\tMPI Connect MB/s\tPVMPI MB/s\tspeedup")
	for _, s := range sizes {
		mc, err := bench.MeasureE2("mpiconnect", s, iters)
		if err != nil {
			return err
		}
		pv, err := bench.MeasureE2("pvmpi", s, iters)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%.1f\t%.1f\t%.2f\t%.2f\t%.2fx\n",
			s, mc.RTTMicros, pv.RTTMicros, mc.MBps, pv.MBps, pv.RTTMicros/mc.RTTMicros)
	}
	return w.Flush()
}

func runAvailability() error {
	fmt.Println("== E3 / §6: metadata availability with one server down 30% of the run ==")
	queries := 600
	if *quick {
		queries = 200
	}
	w := tab()
	fmt.Fprintln(w, "system\treplicas\tqueries\tfailures\tavailability")
	for _, replicas := range []int{1, 2, 3} {
		r, err := bench.MeasureAvailabilitySNIPE(replicas, queries, 0.3)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.1f%%\n", r.System, r.Replicas, r.Queries, r.Failures, r.Availability*100)
	}
	pv, err := bench.MeasureAvailabilityPVM(3, queries/4, 0.3)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.1f%%\n", pv.System, pv.Replicas, pv.Queries, pv.Failures, pv.Availability*100)
	return w.Flush()
}

func runMulticast() error {
	fmt.Println("== E4 / §5.4: multicast delivery with failed routers (members register with >1/2, sends reach >1/2) ==")
	w := tab()
	fmt.Fprintln(w, "routers\tfailed\tmembers\tmsgs\tdelivered\trate")
	cases := [][4]int{{1, 0, 6, 20}, {3, 0, 6, 20}, {3, 1, 6, 20}, {5, 2, 6, 20}, {1, 1, 4, 10}}
	for _, c := range cases {
		r, err := bench.MeasureMulticast(c[0], c[1], c[2], c[3])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%.0f%%\n",
			r.Routers, r.Failed, r.Members, r.Sent, r.Delivered, r.DeliveryRate*100)
	}
	return w.Flush()
}

func runMigration() error {
	fmt.Println("== E5 / §5.6: message delivery across live migration ==")
	msgs := 60
	if *quick {
		msgs = 30
	}
	w := tab()
	fmt.Fprintln(w, "system buffering\tsent\tdelivered\tdowntime")
	for _, buffered := range []bool{true, false} {
		r, err := bench.MeasureMigration(buffered, msgs)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%v\t%d\t%d\t%v\n", r.Buffering, r.Sent, r.Delivered, r.Downtime)
	}
	return w.Flush()
}

func runScalability() error {
	fmt.Println("== E6 / §2.2: host join cost and resource-manager redundancy ==")
	maxHosts := 32
	sample := []int{2, 8, 16, 32}
	if *quick {
		maxHosts, sample = 12, []int{2, 12}
	}
	snipePts, err := bench.MeasureHostJoinSNIPE(maxHosts, sample)
	if err != nil {
		return err
	}
	pvmPts, err := bench.MeasureHostJoinPVM(maxHosts, sample)
	if err != nil {
		return err
	}
	w := tab()
	fmt.Fprintln(w, "n-th host\tsnipe join µs\tpvm join µs")
	pvmByN := map[int]float64{}
	for _, p := range pvmPts {
		pvmByN[p.N] = p.Micros
	}
	for _, p := range snipePts {
		fmt.Fprintf(w, "%d\t%.0f\t%.0f\n", p.N, p.Micros, pvmByN[p.N])
	}
	w.Flush()

	fmt.Println("-- spawn throughput with redundant RMs (one killed mid-run) --")
	w = tab()
	fmt.Fprintln(w, "RMs\tspawns\tfailures\tspawns/s")
	for _, c := range []struct {
		rms  int
		kill bool
	}{{1, true}, {2, true}, {3, true}} {
		r, err := bench.MeasureSpawnRedundantRMs(c.rms, 3, 40, c.kill)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%.1f\n", r.RMs, r.Spawns, r.Failures, r.SpawnsPerSec)
	}
	return w.Flush()
}

func runFailover() error {
	fmt.Println("== E7 / §6: route failover completeness (preferred interface killed mid-stream) ==")
	w := tab()
	fmt.Fprintln(w, "system buffering\tsent\tdelivered\tswitchover")
	for _, buffered := range []bool{true, false} {
		r, err := bench.MeasureFailover(buffered, 80)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%v\t%d\t%d\t%v\n", r.Buffering, r.Sent, r.Delivered, r.MaxGap)
	}
	return w.Flush()
}

func runLiveness() error {
	fmt.Println("== liveness: failure-detection latency (kill / partition / clean shutdown of one of three daemons) ==")
	points, monitor, err := bench.RunFailoverSuite(*quick)
	if err != nil {
		return err
	}
	w := tab()
	fmt.Fprintln(w, "mode\theartbeat ms\tsuspect ms\tdead ms\tfirst correct placement ms\tfalse suspects")
	fmtMs := func(v float64) string {
		if v < 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", v)
	}
	for _, p := range points {
		fmt.Fprintf(w, "%s\t%.0f\t%s\t%s\t%s\t%d\n",
			p.Mode, p.HeartbeatMs, fmtMs(p.SuspectMs), fmtMs(p.DeadMs), fmtMs(p.PlacementMs), p.FalseSuspects)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	// The claims under test: failures are detected, clean exits are not
	// mistaken for them.
	for _, p := range points {
		if p.Mode != "clean" && p.DeadMs < 0 {
			return fmt.Errorf("liveness: %s victim never declared dead", p.Mode)
		}
		if p.FalseSuspects > 0 {
			return fmt.Errorf("liveness: %s run produced %d false suspicion(s)", p.Mode, p.FalseSuspects)
		}
	}

	fmt.Println("== liveness: hierarchical gossip at cluster scale (group digests vs per-host heartbeats) ==")
	scale, err := bench.RunLivenessScaleSuite(*quick)
	if err != nil {
		return err
	}
	w = tab()
	fmt.Fprintln(w, "hosts\tgroups\tprobe ms\twarmup ms\tcrash suspect ms\tcrash dead ms\tpartition dead ms\theal revive ms\tfalse suspects\tdigest wr/s\tlegacy wr/s\treduction")
	for _, p := range scale {
		fmt.Fprintf(w, "%d\t%d\t%.0f\t%.0f\t%s\t%s\t%s\t%s\t%d\t%.1f\t%.1f\t%.1fx\n",
			p.Hosts, p.Groups, p.ProbeMs, p.WarmupMs,
			fmtMs(p.CrashSuspectMs), fmtMs(p.CrashDeadMs), fmtMs(p.PartitionDeadMs), fmtMs(p.HealReviveMs),
			p.FalseSuspects, p.GossipWritesPerSec, p.LegacyWritesPerSec, p.WriteReduction)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	// The scaling claims: detection latency stays within 3× the probe
	// interval at every size, no-fault runs produce zero suspicion, and
	// group digests cut catalog write traffic at least 10× at the
	// largest size.
	for _, p := range scale {
		if p.CrashSuspectMs > 3*p.ProbeMs {
			return fmt.Errorf("liveness: %d hosts mean detection %.1fms exceeds 3x probe interval (%.0fms)",
				p.Hosts, p.CrashSuspectMs, 3*p.ProbeMs)
		}
		if p.FalseSuspects > 0 {
			return fmt.Errorf("liveness: %d hosts no-fault window produced %d false suspicion(s)", p.Hosts, p.FalseSuspects)
		}
		if p.PartitionDeadMs < 0 {
			return fmt.Errorf("liveness: %d hosts partitioned victim never declared dead", p.Hosts)
		}
	}
	if last := scale[len(scale)-1]; last.WriteReduction < 10 {
		return fmt.Errorf("liveness: write reduction %.1fx at %d hosts, want >= 10x", last.WriteReduction, last.Hosts)
	}

	if *floOut != "" {
		if err := bench.WriteFailoverArtifact(*floOut, points, scale, monitor, *quick); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d points, %d scale points)\n", *floOut, len(points), len(scale))
	}
	return nil
}

func runService() error {
	fmt.Println("== service: replicated service group under a mid-run host kill (zero failed calls) ==")
	warm, post := 1500*time.Millisecond, 1200*time.Millisecond
	if *quick {
		warm, post = 500*time.Millisecond, 500*time.Millisecond
	}
	res, err := bench.MeasureServiceKill(3, 4, 32<<10, warm, post)
	if err != nil {
		return err
	}
	w := tab()
	fmt.Fprintln(w, "phase\tsecs\tcalls\tfailures\tcalls/s\tp50 ms\tp99 ms")
	for _, p := range res.Phases {
		fmt.Fprintf(w, "%s\t%.2f\t%d\t%d\t%.1f\t%.1f\t%.1f\n",
			p.Phase, p.Secs, p.Calls, p.Failures, p.CallsPerSec, p.P50Ms, p.P99Ms)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("killed %s: suspected after %.1f ms, out of rotation after %.1f ms\n",
		res.KilledHost, res.SuspectMs, res.RebalanceMs)
	// The claims under test: the kill is detected, the balancer reacts,
	// and no client call fails at any point of the run.
	if res.SuspectMs < 0 {
		return fmt.Errorf("service: killed host never suspected")
	}
	if res.RebalanceMs < 0 {
		return fmt.Errorf("service: killed replica never left the rotation")
	}
	if res.Failures != 0 {
		return fmt.Errorf("service: %d of %d calls failed; want zero", res.Failures, res.Calls)
	}
	if *svcOut != "" {
		if err := bench.WriteServiceArtifact(*svcOut, res, *quick); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d calls)\n", *svcOut, res.Calls)
	}
	return nil
}

func runPaths() error {
	fmt.Println("== path ablations: RTT of the optional stack layers (ping-pong, loopback TCP) ==")
	iters := 500
	if *quick {
		iters = 200
	}
	w := tab()
	fmt.Fprintln(w, "path\tmsg size\tRTT µs")
	for _, path := range []string{"direct", "encrypted", "gateway"} {
		for _, size := range []int{64, 4096} {
			pt, err := bench.MeasurePath(path, size, iters)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s\t%d\t%.1f\n", pt.Path, pt.MsgSize, pt.RTTMicros)
		}
	}
	return w.Flush()
}

func runRUDPLoss() error {
	fmt.Printf("== selective-resend UDP goodput vs frame loss (%s) ==\n", netsim.Ethernet100.Name)
	losses := []float64{0, 0.01, 0.02, 0.05, 0.10, 0.20}
	msgs := 600
	if *quick {
		losses, msgs = []float64{0, 0.05, 0.20}, 300
	}
	w := tab()
	fmt.Fprintln(w, "loss\tgoodput MB/s")
	for i, l := range losses {
		pt, err := bench.MeasureRUDPLoss(l, 4096, msgs, uint64(900+i))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%.0f%%\t%.2f\n", l*100, pt.MBps)
	}
	return w.Flush()
}
