// Weather: the paper's motivating scenario of "monitoring of weather
// and prediction of catastrophic conditions" — distributed data
// collection over reliable multicast, a forecaster aggregating the
// feed, and continued operation while a multicast router fails.
//
// Act two exercises the service layer: the forecast is published as a
// replicated service group ("forecast", three replicas), a swarm of
// consumers queries it with request–reply calls, and one replica is killed
// mid-swarm — every query still answers, because the group's client
// retries on the surviving replicas.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"time"

	"snipe/internal/comm"
	"snipe/internal/core"
	"snipe/internal/mcast"
	"snipe/internal/service"
	"snipe/internal/task"
	"snipe/internal/xdr"
)

const (
	tagReading  = 1
	tagForecast = 2
	nStations   = 4
	nRounds     = 5
)

func main() {
	log.SetFlags(0)

	reg := task.NewRegistry()
	// A sensor station multicasts one pressure reading per round to the
	// observation group named in its arguments.
	reg.Register("station", func(ctx *task.Context) error {
		group := ctx.Args()[0]
		stationID := ctx.Args()[1]
		member, err := joinGroupFromTask(ctx, group)
		if err != nil {
			return err
		}
		base := int64(1000 + len(stationID)) // deterministic pseudo-reading
		for round := 0; round < nRounds; round++ {
			reading := base - int64(round) // falling pressure: a storm
			// Readings travel in the architecture-independent typed
			// format (the client library's PVM-style pack/unpack, §3.4).
			p := xdr.NewPacker(32)
			p.PackString(stationID)
			p.PackInt32(int32(round))
			p.PackInt64(reading)
			if err := member.Send(tagReading, p.Bytes()); err != nil {
				return err
			}
			time.Sleep(20 * time.Millisecond)
		}
		return nil
	})

	u, err := core.New(core.Config{
		Hosts: []core.HostConfig{
			{Name: "field-1", CPUs: 1, MemoryMB: 128},
			{Name: "field-2", CPUs: 1, MemoryMB: 128},
			{Name: "field-3", CPUs: 1, MemoryMB: 128},
			{Name: "center", CPUs: 8, MemoryMB: 4096},
		},
		McastRedundancy: 3,
		Registry:        reg,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer u.Close()

	group, err := u.CreateGroup("observations")
	if err != nil {
		log.Fatal(err)
	}

	// The forecaster is a console-side client subscribed to the feed.
	forecaster, err := u.NewClient("forecaster")
	if err != nil {
		log.Fatal(err)
	}
	feed, err := forecaster.JoinGroup(group)
	if err != nil {
		log.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	// Deploy one station per field host.
	for i := 0; i < nStations; i++ {
		host := fmt.Sprintf("field-%d", i%3+1)
		if _, err := forecaster.SpawnOn(host, task.Spec{
			Program: "station",
			Args:    []string{group, fmt.Sprintf("st%0*d", i+1, i+1)},
		}); err != nil {
			log.Fatal(err)
		}
	}

	// Mid-campaign, a router host fails: a minority of the 3 routers.
	// The >1/2 registration discipline keeps every reading flowing.
	go func() {
		time.Sleep(40 * time.Millisecond)
		if r, ok := u.Router("field-1"); ok {
			r.Close()
			fmt.Println("!! multicast router on field-1 crashed; collection continues")
		}
	}()

	total := nStations * nRounds
	sum, count := int64(0), 0
	minReading := int64(1 << 62)
	var minStation string
	for count < total {
		_, tag, data, err := feed.Recv(10 * time.Second)
		if err != nil {
			log.Fatalf("lost the feed after %d/%d readings: %v", count, total, err)
		}
		if tag != tagReading {
			continue
		}
		u := xdr.NewUnpacker(data)
		station, err := u.String()
		if err != nil {
			log.Fatal(err)
		}
		if _, err := u.Int32(); err != nil { // round number
			log.Fatal(err)
		}
		reading, err := u.Int64()
		if err != nil {
			log.Fatal(err)
		}
		sum += reading
		count++
		if reading < minReading {
			minReading, minStation = reading, station
		}
	}
	fmt.Printf("collected %d/%d readings; mean pressure %.1f, minimum %d at %s\n",
		count, total, float64(sum)/float64(count), minReading, minStation)
	if minReading < 1001 {
		fmt.Println("forecast: severe storm — issuing warning")
	}
	_ = tagForecast

	// --- act two: the forecast as a replicated service group ---------
	forecast := fmt.Sprintf("storm warning: mean pressure %.1f, minimum %d at %s",
		float64(sum)/float64(count), minReading, minStation)

	var replicas []*service.Server
	var replicaEPs []*comm.Endpoint
	for i := 1; i <= 3; i++ {
		rep, err := u.NewClient(fmt.Sprintf("forecast-r%d", i))
		if err != nil {
			log.Fatal(err)
		}
		defer rep.Close()
		srv, err := service.NewServer(service.ServerConfig{
			Name:     "forecast",
			Catalog:  u.Catalog(),
			Endpoint: rep.Endpoint(),
		})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		srv.Handle("current", func(ctx context.Context, st *comm.Stream) error {
			for { // drain the (empty) request side
				if _, err := st.Read(ctx); err == io.EOF {
					break
				} else if err != nil {
					return err
				}
			}
			return st.Write(ctx, []byte(forecast))
		})
		replicas = append(replicas, srv)
		replicaEPs = append(replicaEPs, rep.Endpoint())
	}

	consumer, err := u.NewClient("consumer")
	if err != nil {
		log.Fatal(err)
	}
	defer consumer.Close()
	cli, err := service.NewClient(service.ClientConfig{
		Service:        "forecast",
		Catalog:        u.Catalog(),
		Endpoint:       consumer.Endpoint(),
		AttemptTimeout: time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()

	const queries = 30
	failures := 0
	for q := 0; q < queries; q++ {
		if q == queries/3 {
			// Mid-swarm, one replica drains out gracefully...
			if err := replicas[0].Drain(context.Background()); err != nil {
				log.Fatal(err)
			}
			fmt.Println("!! forecast replica 1 drained; queries continue")
		}
		if q == 2*queries/3 {
			// ...and a second one is killed cold.
			replicaEPs[1].Close()
			fmt.Println("!! forecast replica 2 crashed; queries continue")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		resp, err := cli.Call(ctx, "current", nil)
		cancel()
		if err != nil || string(resp) != forecast {
			failures++
			log.Printf("query %d failed: %v (%q)", q, err, resp)
		}
	}
	fmt.Printf("forecast service answered %d/%d queries across a drain and a crash\n",
		queries-failures, queries)
	if failures > 0 {
		log.Fatalf("%d forecast queries failed; the group should have absorbed both losses", failures)
	}
}

// joinGroupFromTask joins a multicast group using the task's own
// endpoint and its daemon-provided catalog access.
func joinGroupFromTask(ctx *task.Context, group string) (*mcast.Member, error) {
	return mcast.Join(ctx.Catalog(), ctx.Endpoint(), group)
}
