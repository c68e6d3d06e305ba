// Package snipe's root benchmark suite regenerates the paper's
// evaluation artifacts (see DESIGN.md experiment index and
// EXPERIMENTS.md for paper-vs-measured numbers):
//
//	BenchmarkFig1/*          — Fig. 1 bandwidth curves per medium/transport
//	BenchmarkMultipath/*     — §5.3 striped aggregate vs best single medium
//	BenchmarkMPIConnect,
//	BenchmarkPVMPI           — §6.1 inter-MPP point-to-point comparison (E2)
//	BenchmarkAvailability/*  — metadata availability under failures (E3)
//	BenchmarkMulticast/*     — >½-router delivery invariant (E4)
//	BenchmarkMigration/*     — zero-loss migration and its ablation (E5)
//	BenchmarkScalability/*   — host join cost, RM redundancy (E6)
//	BenchmarkFailover        — route failover completeness (E7)
//	BenchmarkLiveness/*      — failure-detection latency (kill/partition/clean)
//	BenchmarkRUDPLoss/*      — selective-resend goodput vs loss
//
// Domain results are attached with b.ReportMetric; run with
//
//	go test -bench=. -benchmem -benchtime=1x
package snipe

import (
	"fmt"
	"testing"
	"time"

	"snipe/internal/bench"
	"snipe/internal/netsim"
)

// fig1BenchSizes is a reduced sweep for the testing.B harness; the
// full sweep runs in cmd/snipe-bench.
var fig1BenchSizes = []int{1024, 16384, 262144}

func BenchmarkFig1(b *testing.B) {
	var seed uint64 = 100
	for _, medium := range bench.Fig1Media {
		for _, transport := range []string{"raw", "snipe-tcp", "snipe-rudp"} {
			for _, size := range fig1BenchSizes {
				name := fmt.Sprintf("%s/%s/%dB", medium.Name, transport, size)
				medium, transport, size := medium, transport, size
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						seed++
						pt, err := bench.MeasureFig1(medium, transport, size, seed)
						if err != nil {
							b.Fatal(err)
						}
						b.ReportMetric(pt.MBps, "MB/s")
					}
				})
			}
		}
	}
}

func BenchmarkMultipath(b *testing.B) {
	var seed uint64 = 9000
	for _, size := range []int{1048576, 4194304} {
		size := size
		b.Run(fmt.Sprintf("%s+%s/%dB", bench.MultipathMedia[0].Name, bench.MultipathMedia[1].Name, size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seed += 20
				pt, err := bench.MeasureMultipath(bench.MultipathMedia, size, seed)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(pt.MBps, "MB/s")
				b.ReportMetric(pt.Speedup, "x-vs-best-single")
			}
		})
	}
}

func BenchmarkMPIConnect(b *testing.B) {
	for _, size := range []int{64, 4096, 65536} {
		size := size
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pt, err := bench.MeasureE2("mpiconnect", size, 200)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(pt.RTTMicros, "rtt-µs")
				b.ReportMetric(pt.MBps, "MB/s")
			}
		})
	}
}

func BenchmarkPVMPI(b *testing.B) {
	for _, size := range []int{64, 4096, 65536} {
		size := size
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pt, err := bench.MeasureE2("pvmpi", size, 200)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(pt.RTTMicros, "rtt-µs")
				b.ReportMetric(pt.MBps, "MB/s")
			}
		})
	}
}

func BenchmarkAvailability(b *testing.B) {
	b.Run("snipe-3-replicas", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := bench.MeasureAvailabilitySNIPE(3, 300, 0.3)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.Availability*100, "%avail")
		}
	})
	b.Run("pvm-master", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := bench.MeasureAvailabilityPVM(3, 100, 0.3)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.Availability*100, "%avail")
		}
	})
}

func BenchmarkMulticast(b *testing.B) {
	cases := []struct {
		name             string
		routers, failed  int
		members, msgs    int
		expectRateAtMost float64
	}{
		{"3-routers-0-failed", 3, 0, 6, 20, 0},
		{"3-routers-1-failed", 3, 1, 6, 20, 0},
		{"5-routers-2-failed", 5, 2, 6, 20, 0},
		{"ablation-1-router-1-failed", 1, 1, 4, 10, 0},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := bench.MeasureMulticast(c.routers, c.failed, c.members, c.msgs)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.DeliveryRate*100, "%delivered")
			}
		})
	}
}

func BenchmarkMigration(b *testing.B) {
	b.Run("buffered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := bench.MeasureMigration(true, 40)
			if err != nil {
				b.Fatal(err)
			}
			if r.Delivered != r.Sent {
				b.Fatalf("zero-loss violated: %d/%d", r.Delivered, r.Sent)
			}
			b.ReportMetric(float64(r.Downtime.Microseconds()), "downtime-µs")
			b.ReportMetric(100*float64(r.Delivered)/float64(r.Sent), "%delivered")
		}
	})
	b.Run("ablation-unbuffered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := bench.MeasureMigration(false, 40)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*float64(r.Delivered)/float64(r.Sent), "%delivered")
		}
	})
}

func BenchmarkScalability(b *testing.B) {
	b.Run("snipe-host-join", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pts, err := bench.MeasureHostJoinSNIPE(24, []int{24})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(pts[0].Micros, "join24-µs")
		}
	})
	b.Run("pvm-host-join", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pts, err := bench.MeasureHostJoinPVM(24, []int{24})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(pts[0].Micros, "join24-µs")
		}
	})
	b.Run("redundant-rm-failover", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r, err := bench.MeasureSpawnRedundantRMs(2, 3, 30, true)
			if err != nil {
				b.Fatal(err)
			}
			if r.Failures != 0 {
				b.Fatalf("redundant RMs failed %d spawns", r.Failures)
			}
			b.ReportMetric(r.SpawnsPerSec, "spawns/s")
		}
	})
}

func BenchmarkFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.MeasureFailover(true, 60)
		if err != nil {
			b.Fatal(err)
		}
		if r.Delivered != r.Sent {
			b.Fatalf("failover lost %d messages", r.Sent-r.Delivered)
		}
		b.ReportMetric(float64(r.MaxGap.Microseconds()), "switchover-µs")
	}
}

func BenchmarkLiveness(b *testing.B) {
	for _, mode := range []string{"crash", "partition", "clean"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pt, _, err := bench.MeasureDetection(mode, 25*time.Millisecond)
				if err != nil {
					b.Fatal(err)
				}
				if mode != "clean" && pt.DeadMs < 0 {
					b.Fatal("victim never declared dead")
				}
				if pt.FalseSuspects > 0 {
					b.Fatalf("%d false suspicion(s)", pt.FalseSuspects)
				}
				if pt.DeadMs >= 0 {
					b.ReportMetric(pt.DeadMs, "detect-ms")
				}
				if pt.PlacementMs >= 0 {
					b.ReportMetric(pt.PlacementMs, "placement-ms")
				}
			}
		})
	}
}

func BenchmarkPathAblations(b *testing.B) {
	for _, path := range []string{"direct", "encrypted", "gateway"} {
		path := path
		b.Run(path, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pt, err := bench.MeasurePath(path, 1024, 300)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(pt.RTTMicros, "rtt-µs")
			}
		})
	}
}

func BenchmarkRUDPLoss(b *testing.B) {
	var seed uint64 = 500
	for _, loss := range []float64{0, 0.01, 0.05, 0.10} {
		loss := loss
		b.Run(fmt.Sprintf("loss-%.0f%%", loss*100), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seed++
				pt, err := bench.MeasureRUDPLoss(loss, 4096, 400, seed)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(pt.MBps, "MB/s")
			}
		})
	}
}

// Sanity: the media profiles used above stay calibrated.
func TestMediaProfiles(t *testing.T) {
	if netsim.Ethernet100.BytesPerSec() != 12.5e6 {
		t.Fatalf("Ethernet100 rate: %v", netsim.Ethernet100.BytesPerSec())
	}
	if netsim.ATM155.BytesPerSec() >= 155e6/8 {
		t.Fatal("ATM155 should pay the cell tax")
	}
}
