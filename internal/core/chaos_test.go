package core

import (
	"fmt"
	"testing"
	"time"

	"snipe/internal/netsim"
	"snipe/internal/rcds"
	"snipe/internal/rm"
	"snipe/internal/task"
)

// TestChaosWorkloadSurvivesComponentFailures is the failure-injection
// soak: a spawn-and-echo workload runs while RC replicas crash and
// recover, a resource manager dies, and a multicast router disappears.
// The workload must complete with zero failed operations — the paper's
// thesis that replication of data, management and routing removes every
// single point of failure.
func TestChaosWorkloadSurvivesComponentFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	u := newUniverse(t, Config{
		RCServers:        3,
		Hosts:            []HostConfig{{Name: "h1", CPUs: 4}, {Name: "h2", CPUs: 4}, {Name: "h3", CPUs: 4}},
		ResourceManagers: 2,
		McastRedundancy:  2,
	})
	client, err := u.NewClient("chaos")
	if err != nil {
		t.Fatal(err)
	}
	rmClient := rm.NewClient(u.Catalog(), client.Endpoint())
	rmClient.SetTimeout(3 * time.Second)

	rng := netsim.NewRNG(12345)
	stop := make(chan struct{})
	chaosDone := make(chan struct{})

	// The chaos monkey: crash and revive one RC replica at a time, and
	// kill one of the two RMs and one of the three routers mid-run.
	go func() {
		defer close(chaosDone)
		servers := u.RCServers()
		killedRM, killedRouter := false, false
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Duration(50+rng.Intn(100)) * time.Millisecond):
			}
			victim := i % len(servers)
			old := servers[victim]
			addr := old.Addr()
			old.Close()
			select {
			case <-stop:
				return
			case <-time.After(time.Duration(30+rng.Intn(60)) * time.Millisecond):
			}
			// Revive on the same address over the same store.
			revived := rcds.NewServer(old.Store())
			if err := revived.Start(addr); err == nil {
				var peers []string
				for j, s := range servers {
					if j != victim {
						peers = append(peers, s.Addr())
					}
				}
				revived.SetPeers(peers...)
				servers[victim] = revived
				t.Cleanup(revived.Close)
			}
			if i == 2 && !killedRM {
				u.RMs()[0].Close()
				killedRM = true
			}
			if i == 3 && !killedRouter {
				if r, ok := u.Router("h1"); ok {
					r.Close()
					killedRouter = true
				}
			}
		}
	}()

	// The workload: spawn short echo tasks through the RM service and
	// round-trip a message with each.
	const ops = 30
	failures := 0
	for i := 0; i < ops; i++ {
		urn, err := spawnWithRetry(rmClient, 10*time.Second)
		if err != nil {
			failures++
			t.Logf("op %d spawn: %v", i, err)
			continue
		}
		tag := uint32(1000 + i)
		if err := client.Send(urn, tag, []byte{byte(i)}); err != nil {
			failures++
			continue
		}
		m, err := client.RecvMatch(urn, tag, 15*time.Second)
		if err != nil || m.Payload[0] != byte(i) {
			failures++
			t.Logf("op %d echo: %v", i, err)
			continue
		}
		client.Signal(urn, task.SigKill)
	}
	close(stop)
	<-chaosDone
	if failures != 0 {
		t.Fatalf("%d/%d operations failed under chaos", failures, ops)
	}
}

// spawnWithRetry tolerates transient windows where a request lands on
// a just-killed component; the metadata layer itself never loses state.
func spawnWithRetry(c *rm.Client, budget time.Duration) (string, error) {
	deadline := time.Now().Add(budget)
	var lastErr error
	for time.Now().Before(deadline) {
		urn, err := c.Allocate(task.Spec{Program: "echo"})
		if err == nil {
			return urn, nil
		}
		lastErr = err
		time.Sleep(100 * time.Millisecond)
	}
	return "", fmt.Errorf("spawn retry budget exhausted: %w", lastErr)
}
