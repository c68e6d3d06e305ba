package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"snipe/internal/comm"
	"snipe/internal/daemon"
	"snipe/internal/mcast"
	"snipe/internal/migrate"
	"snipe/internal/mpi"
	"snipe/internal/naming"
	"snipe/internal/netsim"
	"snipe/internal/pvm"
	"snipe/internal/rcds"
	"snipe/internal/rm"
	"snipe/internal/task"
	"snipe/internal/xdr"
)

// --- E2: MPI Connect vs PVMPI point-to-point -------------------------

// E2Point is one inter-MPP ping-pong measurement.
type E2Point struct {
	Bridge    string
	MsgSize   int
	RTTMicros float64
	MBps      float64
}

// MeasureE2 ping-pongs one message size across the named bridge
// ("mpiconnect" or "pvmpi"), reproducing the §6.1 comparison.
func MeasureE2(bridgeName string, msgSize, iters int) (E2Point, error) {
	p := E2Point{Bridge: bridgeName, MsgSize: msgSize}

	var bridgeA, bridgeB mpi.Bridge
	var cleanup func()
	switch bridgeName {
	case "mpiconnect":
		cat := naming.StoreCatalog(rcds.NewStore("bench-mpic"))
		b := mpi.NewMPIConnectBridge(cat)
		bridgeA, bridgeB = b, b
		cleanup = b.Close
	case "pvmpi":
		reg := mpi.RelayRegistry()
		master, err := pvm.NewMaster("mpp-a", "127.0.0.1:0", reg)
		if err != nil {
			return p, err
		}
		slave, err := pvm.Join("mpp-b", "127.0.0.1:0", master.Addr(), reg)
		if err != nil {
			master.Kill()
			return p, err
		}
		ba := mpi.NewPVMPIBridge(master)
		bb := mpi.NewPVMPIBridge(slave)
		bridgeA, bridgeB = ba, bb
		cleanup = func() {
			slave.Kill()
			master.Kill()
		}
	default:
		return p, fmt.Errorf("bench: unknown bridge %q", bridgeName)
	}
	defer cleanup()

	wa := mpi.NewWorld("cray", 1)
	wb := mpi.NewWorld("paragon", 1)
	if err := wa.ConnectBridge(bridgeA); err != nil {
		return p, err
	}
	if err := wb.ConnectBridge(bridgeB); err != nil {
		return p, err
	}
	if ba, ok := bridgeA.(*mpi.PVMPIBridge); ok {
		bb := bridgeB.(*mpi.PVMPIBridge)
		mpi.ShareDirectory(ba, bb)
		mpi.ShareDirectory(bb, ba)
	}

	payload := make([]byte, msgSize)
	errB := make(chan error, 1)
	go func() {
		c := wb.Rank(0)
		for i := 0; i < iters; i++ {
			_, _, data, err := c.InterRecv(1, 60*time.Second)
			if err != nil {
				errB <- err
				return
			}
			if err := c.InterSend("cray", 0, 2, data); err != nil {
				errB <- err
				return
			}
		}
		errB <- nil
	}()

	c := wa.Rank(0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := c.InterSend("paragon", 0, 1, payload); err != nil {
			return p, err
		}
		if _, _, _, err := c.InterRecv(2, 60*time.Second); err != nil {
			return p, err
		}
	}
	elapsed := time.Since(start)
	if err := <-errB; err != nil {
		return p, err
	}
	p.RTTMicros = float64(elapsed.Microseconds()) / float64(iters)
	p.MBps = float64(2*iters*msgSize) / 1e6 / elapsed.Seconds()
	return p, nil
}

// --- E3: metadata availability under server failure -------------------

// E3Result is one availability measurement.
type E3Result struct {
	System       string
	Replicas     int
	Queries      int
	Failures     int
	Availability float64 // fraction of successful queries
}

// MeasureAvailabilitySNIPE queries a replicated RC service while one
// replica is down for downFraction of the run.
func MeasureAvailabilitySNIPE(replicas, queries int, downFraction float64) (E3Result, error) {
	res := E3Result{System: "snipe-rc", Replicas: replicas}
	servers := make([]*rcds.Server, replicas)
	for i := range servers {
		servers[i] = rcds.NewServer(rcds.NewStore(fmt.Sprintf("av%d", i)),
			rcds.WithAntiEntropyInterval(50*time.Millisecond))
		if err := servers[i].Start("127.0.0.1:0"); err != nil {
			return res, err
		}
		defer servers[i].Close()
	}
	addrs := make([]string, replicas)
	for i, s := range servers {
		addrs[i] = s.Addr()
	}
	for i, s := range servers {
		var peers []string
		for j, a := range addrs {
			if i != j {
				peers = append(peers, a)
			}
		}
		s.SetPeers(peers...)
	}
	client := rcds.NewClient(addrs, nil, rcds.WithTimeout(300*time.Millisecond))
	defer client.Close()
	if err := client.Set(context.Background(), "urn:av", "k", "v"); err != nil {
		return res, err
	}

	downAt := int(float64(queries) * (1 - downFraction) / 2)
	downUntil := downAt + int(float64(queries)*downFraction)
	for i := 0; i < queries; i++ {
		if i == downAt && replicas > 1 {
			servers[0].Close() // crash one replica mid-run
		}
		if i == downAt && replicas == 1 {
			servers[0].Close() // single server: total outage
		}
		if i == downUntil && replicas == 1 {
			// Single-server "recovery": restart on the same store.
			revived := rcds.NewServer(servers[0].Store())
			if err := revived.Start(addrs[0]); err == nil {
				defer revived.Close()
			}
		}
		res.Queries++
		if _, _, err := client.FirstValue(context.Background(), "urn:av", "k"); err != nil {
			res.Failures++
		}
	}
	res.Availability = 1 - float64(res.Failures)/float64(res.Queries)
	return res, nil
}

// MeasureAvailabilityPVM performs the equivalent run against PVM's
// master-held host table: the "query" is a spawn placement, which
// requires the master (§2.2).
func MeasureAvailabilityPVM(hosts, queries int, downFraction float64) (E3Result, error) {
	res := E3Result{System: "pvm-master", Replicas: 1}
	reg := pvm.NewRegistry()
	reg.Register("q", func(ctx *pvm.TaskCtx) error { return nil })
	master, err := pvm.NewMaster("m0", "127.0.0.1:0", reg)
	if err != nil {
		return res, err
	}
	defer master.Kill()
	slaves := make([]*pvm.Daemon, hosts-1)
	for i := range slaves {
		s, err := pvm.Join(fmt.Sprintf("s%d", i), "127.0.0.1:0", master.Addr(), reg)
		if err != nil {
			return res, err
		}
		defer s.Kill()
		slaves[i] = s
	}
	if len(slaves) == 0 {
		return res, fmt.Errorf("bench: PVM availability needs >= 2 hosts")
	}
	querier := slaves[0]

	downAt := int(float64(queries) * (1 - downFraction) / 2)
	for i := 0; i < queries; i++ {
		if i == downAt {
			master.Kill() // the master host fails; PVM cannot recover it
		}
		res.Queries++
		if _, err := querier.Spawn("q", nil); err != nil {
			res.Failures++
		}
	}
	res.Availability = 1 - float64(res.Failures)/float64(res.Queries)
	return res, nil
}

// --- E4: multicast under router failure -------------------------------

// E4Result reports multicast delivery under failed routers.
type E4Result struct {
	Routers      int
	Failed       int
	Members      int
	Sent         int
	Delivered    int // across all members
	DeliveryRate float64
}

// MeasureMulticast sends msgs to a group of members over R routers
// with f of them crashed, and reports the delivery rate (the >½
// invariant of §5.4 predicts 1.0 for any minority f).
func MeasureMulticast(routers, failed, members, msgs int) (E4Result, error) {
	res := E4Result{Routers: routers, Failed: failed, Members: members, Sent: msgs}
	store := rcds.NewStore("bench-mcast")
	cat := naming.StoreCatalog(store)
	group := naming.GroupURN("bench")

	rs := make([]*mcast.Router, routers)
	for i := range rs {
		r, err := mcast.NewRouter(fmt.Sprintf("mh%d", i), cat, nil)
		if err != nil {
			return res, err
		}
		defer r.Close()
		if err := r.Serve(group); err != nil {
			return res, err
		}
		rs[i] = r
	}

	newEP := func(urn string) (*comm.Endpoint, error) {
		ep := comm.NewEndpoint(urn,
			comm.WithResolver(naming.NewResolver(cat)),
			comm.WithRetryInterval(100*time.Millisecond))
		route, err := ep.Listen(comm.ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
		if err != nil {
			return nil, err
		}
		naming.Register(cat, urn, []comm.Route{route})
		return ep, nil
	}
	mems := make([]*mcast.Member, members)
	for i := range mems {
		ep, err := newEP(fmt.Sprintf("urn:bm%d", i))
		if err != nil {
			return res, err
		}
		defer ep.Close()
		m, err := mcast.Join(cat, ep, group)
		if err != nil {
			return res, err
		}
		mems[i] = m
	}
	time.Sleep(100 * time.Millisecond) // joins settle

	for i := 0; i < failed; i++ {
		rs[i].Close()
	}

	for i := 0; i < msgs; i++ {
		if err := mems[0].Send(0, []byte{byte(i)}); err != nil {
			return res, err
		}
	}
	for _, m := range mems {
		for i := 0; i < msgs; i++ {
			if _, _, _, err := m.Recv(5 * time.Second); err != nil {
				break
			}
			res.Delivered++
		}
	}
	res.DeliveryRate = float64(res.Delivered) / float64(msgs*members)
	return res, nil
}

// --- E5: migration with live traffic ----------------------------------

// E5Result reports migration behaviour under a live message stream.
type E5Result struct {
	Buffering bool
	Sent      int
	Delivered int
	Downtime  time.Duration
}

// MeasureMigration streams msgs at a task while it migrates between
// hosts; with system buffering on, delivery is exactly-once and
// complete; the ablation without buffering loses the messages sent
// while the task had no address.
func MeasureMigration(buffering bool, msgs int) (E5Result, error) {
	res := E5Result{Buffering: buffering, Sent: msgs}
	store := rcds.NewStore("bench-mig")
	cat := naming.StoreCatalog(store)
	reg := task.NewRegistry()
	reg.Register("counter", func(ctx *task.Context) error {
		count := uint32(0)
		if st := ctx.RestoredState(); st != nil {
			d := xdr.NewDecoder(st)
			v, err := d.Uint32()
			if err != nil {
				return err
			}
			count = v
		}
		for {
			select {
			case <-ctx.CheckpointRequested():
				e := xdr.NewEncoder(4)
				e.PutUint32(count)
				ctx.SaveCheckpoint(e.Bytes())
				return task.ErrMigrated
			case <-ctx.Done():
				return task.ErrKilled
			default:
			}
			m, err := ctx.RecvMatch("", 1, 10*time.Millisecond)
			if err != nil {
				continue
			}
			count++
			ctx.Send(m.Src, 2, []byte{byte(count >> 8), byte(count)})
		}
	})
	mk := func(h string) (*daemon.Daemon, error) {
		d := daemon.New(daemon.Config{HostName: h, Catalog: cat, Registry: reg})
		return d, d.Start()
	}
	d1, err := mk("e5h1")
	if err != nil {
		return res, err
	}
	defer d1.Close()
	d2, err := mk("e5h2")
	if err != nil {
		return res, err
	}
	defer d2.Close()

	resolver := naming.NewResolver(cat)
	resolver.SetTTL(20 * time.Millisecond)
	opts := []comm.EndpointOption{
		comm.WithResolver(resolver),
		comm.WithRetryInterval(50 * time.Millisecond),
	}
	if !buffering {
		opts = append(opts, comm.WithoutBuffering())
	}
	controller := comm.NewEndpoint("urn:e5:controller", opts...)
	defer controller.Close()
	route, err := controller.Listen(comm.ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
	if err != nil {
		return res, err
	}
	naming.Register(cat, "urn:e5:controller", []comm.Route{route})

	urn, err := d1.Spawn(task.Spec{Program: "counter"})
	if err != nil {
		return res, err
	}
	// The migration runs concurrently with the stream, so sends overlap
	// the window in which the task has no registered address.
	migrateAt := msgs / 2
	migDone := make(chan error, 1)
	for i := 0; i < msgs; i++ {
		controller.Send(urn, 1, []byte{byte(i)}) // without buffering this fails mid-migration
		if i == migrateAt {
			go func() {
				// A 50ms transfer delay models the checkpoint crossing a
				// 1997 network; the stream continues underneath it.
				dt, err := migrate.Local(cat, d1, d2, urn,
					migrate.Options{TransferDelay: 50 * time.Millisecond})
				res.Downtime = dt
				migDone <- err
			}()
		}
		time.Sleep(time.Millisecond)
	}
	if err := <-migDone; err != nil {
		return res, err
	}
	// Collect acknowledgements until quiet.
	for {
		rctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, err := controller.RecvMatch(rctx, "", 2)
		cancel()
		if err != nil {
			break
		}
		res.Delivered++
	}
	return res, nil
}

// --- E6: scalability ----------------------------------------------------

// E6JoinPoint is the cost of adding the n-th host.
type E6JoinPoint struct {
	System string
	N      int
	Micros float64
}

// MeasureHostJoinSNIPE reports the cost of bringing host n into a
// SNIPE universe (daemon start + metadata registration) — flat in n,
// since there is no virtual machine membership to update.
func MeasureHostJoinSNIPE(maxHosts int, sample []int) ([]E6JoinPoint, error) {
	store := rcds.NewStore("bench-join")
	cat := naming.StoreCatalog(store)
	reg := task.NewRegistry()
	var out []E6JoinPoint
	want := map[int]bool{}
	for _, n := range sample {
		want[n] = true
	}
	var daemons []*daemon.Daemon
	defer func() {
		for _, d := range daemons {
			d.Close()
		}
	}()
	for n := 1; n <= maxHosts; n++ {
		d := daemon.New(daemon.Config{HostName: fmt.Sprintf("jh%d", n), Catalog: cat, Registry: reg})
		start := time.Now()
		if err := d.Start(); err != nil {
			return out, err
		}
		elapsed := time.Since(start)
		daemons = append(daemons, d)
		if want[n] {
			out = append(out, E6JoinPoint{System: "snipe", N: n, Micros: float64(elapsed.Microseconds())})
		}
	}
	return out, nil
}

// MeasureHostJoinPVM reports the cost of pvm_addhosts for the n-th
// host — linear in n, since the master re-broadcasts the whole host
// table to every member.
func MeasureHostJoinPVM(maxHosts int, sample []int) ([]E6JoinPoint, error) {
	reg := pvm.NewRegistry()
	master, err := pvm.NewMaster("jm", "127.0.0.1:0", reg)
	if err != nil {
		return nil, err
	}
	defer master.Kill()
	var out []E6JoinPoint
	want := map[int]bool{}
	for _, n := range sample {
		want[n] = true
	}
	var slaves []*pvm.Daemon
	defer func() {
		for _, s := range slaves {
			s.Kill()
		}
	}()
	for n := 2; n <= maxHosts; n++ {
		start := time.Now()
		s, err := pvm.Join(fmt.Sprintf("js%d", n), "127.0.0.1:0", master.Addr(), reg)
		if err != nil {
			return out, err
		}
		elapsed := time.Since(start)
		slaves = append(slaves, s)
		if want[n] {
			out = append(out, E6JoinPoint{System: "pvm", N: n, Micros: float64(elapsed.Microseconds())})
		}
	}
	return out, nil
}

// E6SpawnResult reports spawn throughput with redundant RMs and the
// effect of killing one mid-run.
type E6SpawnResult struct {
	RMs           int
	Spawns        int
	Failures      int
	SpawnsPerSec  float64
	RMKilledAtMid bool
}

// MeasureSpawnRedundantRMs runs spawns through the RM service with the
// given redundancy, killing RM 0 halfway when killOne is set.
func MeasureSpawnRedundantRMs(rms, hosts, spawns int, killOne bool) (E6SpawnResult, error) {
	res := E6SpawnResult{RMs: rms, Spawns: spawns, RMKilledAtMid: killOne}
	store := rcds.NewStore("bench-rm")
	cat := naming.StoreCatalog(store)
	reg := task.NewRegistry()
	reg.Register("quick", func(ctx *task.Context) error { return nil })
	for i := 0; i < hosts; i++ {
		d := daemon.New(daemon.Config{HostName: fmt.Sprintf("sh%d", i), Catalog: cat, Registry: reg, CPUs: 4})
		if err := d.Start(); err != nil {
			return res, err
		}
		defer d.Close()
	}
	managers := make([]*rm.Manager, rms)
	for i := range managers {
		m, err := rm.NewManager(fmt.Sprintf("brm%d", i), cat, nil)
		if err != nil {
			return res, err
		}
		defer m.Close()
		managers[i] = m
	}
	ep := comm.NewEndpoint("urn:e6:client", comm.WithResolver(naming.NewResolver(cat)))
	defer ep.Close()
	route, err := ep.Listen(comm.ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0"})
	if err != nil {
		return res, err
	}
	naming.Register(cat, "urn:e6:client", []comm.Route{route})
	client := rm.NewClient(cat, ep)
	client.SetTimeout(2 * time.Second)

	start := time.Now()
	for i := 0; i < spawns; i++ {
		if killOne && i == spawns/2 {
			managers[0].Close()
		}
		if _, err := client.Allocate(task.Spec{Program: "quick"}); err != nil {
			res.Failures++
		}
	}
	res.SpawnsPerSec = float64(spawns) / time.Since(start).Seconds()
	return res, nil
}

// --- E7: route failover --------------------------------------------------

// E7Result reports delivery completeness across a link failure.
type E7Result struct {
	Buffering bool
	Sent      int
	Delivered int
	MaxGap    time.Duration // longest inter-delivery gap (switchover)
}

// MeasureFailover streams messages to a two-interface receiver and
// kills the preferred interface mid-stream.
func MeasureFailover(buffering bool, msgs int) (E7Result, error) {
	res := E7Result{Buffering: buffering, Sent: msgs}
	resolver := &mutableResolver{m: make(map[string][]comm.Route)}
	opts := []comm.EndpointOption{
		comm.WithResolver(resolver),
		comm.WithRetryInterval(50 * time.Millisecond),
	}
	if !buffering {
		opts = append(opts, comm.WithoutBuffering())
	}
	sender := comm.NewEndpoint("urn:e7:send", opts...)
	defer sender.Close()
	receiver := comm.NewEndpoint("urn:e7:recv", comm.WithResolver(resolver))
	defer receiver.Close()
	r1, err := receiver.Listen(comm.ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0", RateBps: 2e9}) // preferred
	if err != nil {
		return res, err
	}
	r2, err := receiver.Listen(comm.ListenSpec{Transport: "tcp", Addr: "127.0.0.1:0", RateBps: 1e9})
	if err != nil {
		return res, err
	}
	resolver.set("urn:e7:recv", r1, r2)

	killAt := msgs / 2
	done := make(chan struct{})
	var maxGap time.Duration
	go func() {
		defer close(done)
		last := time.Now()
		for i := 0; i < msgs; i++ {
			rctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_, err := receiver.Recv(rctx)
			cancel()
			if err != nil {
				return
			}
			if gap := time.Since(last); gap > maxGap {
				maxGap = gap
			}
			last = time.Now()
			res.Delivered++
		}
	}()
	for i := 0; i < msgs; i++ {
		sender.Send("urn:e7:recv", 1, []byte{byte(i)})
		if i == killAt {
			receiver.CloseListener(r1) // kill the preferred interface mid-stream
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
	case <-time.After(15 * time.Second):
	}
	res.MaxGap = maxGap
	return res, nil
}

// mutableResolver is a tiny thread-safe resolver for harness use.
type mutableResolver struct {
	mu sync.Mutex
	m  map[string][]comm.Route
}

func (r *mutableResolver) Resolve(urn string) ([]comm.Route, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]comm.Route(nil), r.m[urn]...), nil
}

func (r *mutableResolver) set(urn string, routes ...comm.Route) {
	r.mu.Lock()
	r.m[urn] = routes
	r.mu.Unlock()
}

// --- RUDP loss sweep (Fig. 1 companion) ----------------------------------

// LossPoint is throughput of the selective-resend protocol at a loss
// rate.
type LossPoint struct {
	Loss    float64
	MBps    float64
	Resends int
}

// MeasureRUDPLoss measures RUDP goodput on a lossy medium.
func MeasureRUDPLoss(loss float64, msgSize, msgs int, seed uint64) (LossPoint, error) {
	res := LossPoint{Loss: loss}
	medium := netsim.Ethernet100.WithLoss(loss)
	a, b, cleanup, err := endpointPair(medium, "snipe-rudp", seed)
	if err != nil {
		return res, err
	}
	defer cleanup()
	payload := make([]byte, msgSize)
	received := make(chan struct{})
	go func() {
		for i := 0; i < msgs; i++ {
			rctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			_, err := b.Recv(rctx)
			cancel()
			if err != nil {
				return
			}
		}
		close(received)
	}()
	start := time.Now()
	for i := 0; i < msgs; i++ {
		for a.Pending() > 128 {
			time.Sleep(200 * time.Microsecond)
		}
		if err := a.Send("urn:snipe:bench:b", 1, payload); err != nil {
			return res, err
		}
	}
	select {
	case <-received:
	case <-time.After(180 * time.Second):
		return res, fmt.Errorf("bench: rudp loss receiver stalled at loss %.2f", loss)
	}
	res.MBps = float64(msgs*msgSize) / 1e6 / time.Since(start).Seconds()
	return res, nil
}
