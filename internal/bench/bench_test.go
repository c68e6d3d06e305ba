package bench

import (
	"testing"
	"time"

	"snipe/internal/netsim"
)

// These tests validate the harness itself with small parameters; the
// full paper-scale runs live in the repository root's bench_test.go
// and cmd/snipe-bench.

func TestFig1PointTCP(t *testing.T) {
	pt, err := MeasureFig1(netsim.Ethernet100, "snipe-tcp", 65536, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pt.MBps <= 0 {
		t.Fatalf("no bandwidth measured: %+v", pt)
	}
	// 100 Mbit = 12.5 MB/s ceiling; protocol overhead keeps us below,
	// shaping keeps us well above a tenth of it.
	if pt.MBps > 13 || pt.MBps < 1 {
		t.Fatalf("implausible 100Mb bandwidth: %.2f MB/s", pt.MBps)
	}
}

func TestFig1PointRUDP(t *testing.T) {
	pt, err := MeasureFig1(netsim.Ethernet100, "snipe-rudp", 16384, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pt.MBps <= 0 || pt.MBps > 13 {
		t.Fatalf("implausible RUDP bandwidth: %.2f MB/s", pt.MBps)
	}
}

func TestFig1Raw(t *testing.T) {
	pt, err := MeasureFig1(netsim.Ethernet100, "raw", 65536, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pt.MBps < 8 || pt.MBps > 13 {
		t.Fatalf("raw ceiling off: %.2f MB/s", pt.MBps)
	}
}

func TestFig1MediaOrdering(t *testing.T) {
	// ATM155 must beat Ethernet100 must beat Ethernet10 at large sizes.
	var rates []float64
	for i, m := range []netsim.Profile{netsim.Ethernet10, netsim.Ethernet100, netsim.ATM155} {
		pt, err := MeasureFig1(m, "snipe-tcp", 262144, uint64(10+i))
		if err != nil {
			t.Fatal(err)
		}
		rates = append(rates, pt.MBps)
	}
	if !(rates[0] < rates[1] && rates[1] < rates[2]) {
		t.Fatalf("media ordering violated: %v", rates)
	}
}

func TestE2BothBridges(t *testing.T) {
	mc, err := MeasureE2("mpiconnect", 1024, 50)
	if err != nil {
		t.Fatal(err)
	}
	pv, err := MeasureE2("pvmpi", 1024, 50)
	if err != nil {
		t.Fatal(err)
	}
	if mc.RTTMicros <= 0 || pv.RTTMicros <= 0 {
		t.Fatalf("no latency measured: %+v %+v", mc, pv)
	}
	// The paper's claim: MPI Connect (direct connections) beats PVMPI
	// (daemon-routed) point-to-point.
	if mc.RTTMicros >= pv.RTTMicros {
		t.Logf("warning: MPI Connect (%.1fµs) not faster than PVMPI (%.1fµs) in this run",
			mc.RTTMicros, pv.RTTMicros)
	}
}

func TestE3Availability(t *testing.T) {
	snipe, err := MeasureAvailabilitySNIPE(3, 200, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if snipe.Availability < 0.95 {
		t.Fatalf("replicated RC availability %.3f", snipe.Availability)
	}
	pvmRes, err := MeasureAvailabilityPVM(3, 60, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if pvmRes.Availability > 0.9 {
		t.Fatalf("PVM survived master death: %.3f", pvmRes.Availability)
	}
	if snipe.Availability <= pvmRes.Availability {
		t.Fatalf("replication did not help: snipe=%.3f pvm=%.3f",
			snipe.Availability, pvmRes.Availability)
	}
}

func TestE4Multicast(t *testing.T) {
	// Minority failure: full delivery.
	r, err := MeasureMulticast(3, 1, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.DeliveryRate < 1.0 {
		t.Fatalf("delivery rate %.2f with minority failure", r.DeliveryRate)
	}
	// Ablation: single router, router dead → nothing delivered.
	r2, err := MeasureMulticast(1, 1, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r2.DeliveryRate > 0 {
		t.Fatalf("single dead router still delivered %.2f", r2.DeliveryRate)
	}
}

func TestE5Migration(t *testing.T) {
	r, err := MeasureMigration(true, 30)
	if err != nil {
		t.Fatal(err)
	}
	if r.Delivered != r.Sent {
		t.Fatalf("zero-loss violated: %d/%d", r.Delivered, r.Sent)
	}
	if r.Downtime <= 0 {
		t.Fatal("no downtime measured")
	}
}

func TestE5MigrationAblation(t *testing.T) {
	r, err := MeasureMigration(false, 30)
	if err != nil {
		t.Fatal(err)
	}
	if r.Delivered >= r.Sent {
		t.Fatalf("ablation lost nothing: %d/%d", r.Delivered, r.Sent)
	}
}

func TestE6HostJoin(t *testing.T) {
	snipePts, err := MeasureHostJoinSNIPE(8, []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	pvmPts, err := MeasureHostJoinPVM(8, []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(snipePts) != 2 || len(pvmPts) != 2 {
		t.Fatalf("points: %v %v", snipePts, pvmPts)
	}
}

func TestE6SpawnRedundancy(t *testing.T) {
	// With two RMs, killing one mid-run must not fail spawns, and costs
	// the client one timeout, not one per spawn after the kill (10).
	r, err := MeasureSpawnRedundantRMs(2, 2, 20, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failures != 0 {
		t.Fatalf("redundant RMs failed %d spawns", r.Failures)
	}
	if took := time.Duration(float64(r.Spawns) / r.SpawnsPerSec * float64(time.Second)); took > 3*e6Timeout {
		t.Fatalf("%d spawns took %v, more than 3 timeouts of %v", r.Spawns, took, e6Timeout)
	}
	// With a single RM, killing it fails the rest.
	r1, err := MeasureSpawnRedundantRMs(1, 2, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Failures == 0 {
		t.Fatal("single-RM ablation lost nothing")
	}
}

func TestE7Failover(t *testing.T) {
	r, err := MeasureFailover(true, 40)
	if err != nil {
		t.Fatal(err)
	}
	if r.Delivered != r.Sent {
		t.Fatalf("failover lost messages: %d/%d", r.Delivered, r.Sent)
	}
}

func TestRUDPLossSweepPoint(t *testing.T) {
	p0, err := MeasureRUDPLoss(0, 4096, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	p10, err := MeasureRUDPLoss(0.10, 4096, 200, 6)
	if err != nil {
		t.Fatal(err)
	}
	if p0.MBps <= 0 || p10.MBps <= 0 {
		t.Fatalf("no goodput: %v %v", p0, p10)
	}
	if p10.MBps > p0.MBps {
		t.Fatalf("loss increased goodput? %.2f vs %.2f", p10.MBps, p0.MBps)
	}
}

func TestLivenessScaleSmoke(t *testing.T) {
	pt, err := MeasureLivenessScale(48, 12, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if pt.FalseSuspects != 0 {
		t.Fatalf("no-fault window produced %d false suspects", pt.FalseSuspects)
	}
	if pt.CrashDeadMs < 0 || pt.PartitionDeadMs < 0 {
		t.Fatalf("victim never declared dead: %+v", pt)
	}
	if pt.WriteReduction < 2 {
		t.Fatalf("write reduction %.1fx with 4 groups of 12, want well above 1", pt.WriteReduction)
	}
}
