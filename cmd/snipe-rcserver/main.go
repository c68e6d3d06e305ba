// Command snipe-rcserver runs one RC/metadata server replica (paper
// §3.1). Replicas given each other's addresses form a master–master
// replicated registry.
//
// Usage:
//
//	snipe-rcserver -addr 127.0.0.1:7001 -origin rc1 \
//	    -peers 127.0.0.1:7002,127.0.0.1:7003 -secret s3cret
//
// A sharded catalog deployment passes the shard map and this replica's
// group, and usually bounds the op log so rejoining replicas catch up
// via snapshot:
//
//	snipe-rcserver -addr h1:7001 -origin rc0-0 -peers h2:7001 \
//	    -shard-map "v1 epoch=1 groups=h1:7001,h2:7001|h3:7001,h4:7001" \
//	    -shard-self 0 -compact-keep 65536
//
// Clients need no matching switch: given any one group's addresses
// (-rc h1:7001,h2:7001) they read the map from it and route by it.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"snipe/internal/rcds"
)

func main() {
	log.SetPrefix("snipe-rcserver: ")
	log.SetFlags(0)
	addr := flag.String("addr", "127.0.0.1:7001", "listen address")
	origin := flag.String("origin", "", "replica identity (default: the listen address)")
	peers := flag.String("peers", "", "comma-separated peer replica addresses")
	secret := flag.String("secret", "", "shared secret for HMAC authentication")
	antiEntropy := flag.Duration("anti-entropy", 500*time.Millisecond, "anti-entropy pull interval")
	dataFile := flag.String("data", "", "snapshot file for catalog persistence across restarts")
	saveEvery := flag.Duration("save-every", 10*time.Second, "snapshot interval when -data is set")
	shardMap := flag.String("shard-map", "", `shard map this replica enforces, e.g. "v1 epoch=1 groups=a:1,a:2|b:1,b:2"`)
	shardSelf := flag.Int("shard-self", 0, "this replica's group index in -shard-map")
	compactKeep := flag.Int("compact-keep", 0, "op-log tail to keep per origin (0 = never compact; rejoiners replay history)")
	flag.Parse()

	id := *origin
	if id == "" {
		id = *addr
	}
	opts := []rcds.ServerOption{rcds.WithAntiEntropyInterval(*antiEntropy)}
	if *secret != "" {
		opts = append(opts, rcds.WithSecret([]byte(*secret)))
	}
	var peerList []string
	if *peers != "" {
		peerList = strings.Split(*peers, ",")
		opts = append(opts, rcds.WithPeers(peerList...))
	}
	var shard *rcds.ShardMap
	if *shardMap != "" {
		m, err := rcds.ParseShardMap(*shardMap)
		if err != nil {
			log.Fatalf("-shard-map: %v", err)
		}
		if *shardSelf < 0 || *shardSelf >= m.NumShards() {
			log.Fatalf("-shard-self %d out of range for %d groups", *shardSelf, m.NumShards())
		}
		shard = m
		opts = append(opts, rcds.WithShard(*shardSelf, m))
	}
	if *compactKeep > 0 {
		opts = append(opts, rcds.WithLogCompaction(*compactKeep))
	}
	store := rcds.NewStore(id)
	if *dataFile != "" {
		loaded, err := rcds.LoadFile(*dataFile, id)
		if err != nil {
			log.Fatalf("loading %s: %v", *dataFile, err)
		}
		store = loaded
		log.Printf("catalog restored from %s", *dataFile)
	}
	if shard != nil {
		// Seed the map into this replica's config namespace so clients
		// can bootstrap from it; group peers converge on the same value
		// via replication.
		store.Set(rcds.ShardMapURI, rcds.AttrShardMap, shard.Format())
	}
	server := rcds.NewServer(store, opts...)
	if err := server.Start(*addr); err != nil {
		log.Fatal(err)
	}
	if shard != nil {
		log.Printf("replica %s serving on %s (shard group %d of %d, peers: %v)",
			id, server.Addr(), *shardSelf, shard.NumShards(), peerList)
	} else {
		log.Printf("replica %s serving on %s (peers: %v)", id, server.Addr(), peerList)
	}

	stopSave := make(chan struct{})
	if *dataFile != "" {
		go func() {
			ticker := time.NewTicker(*saveEvery)
			defer ticker.Stop()
			for {
				select {
				case <-stopSave:
					return
				case <-ticker.C:
					if err := store.SaveFile(*dataFile); err != nil {
						log.Printf("snapshot: %v", err)
					}
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Printf("shutting down")
	close(stopSave)
	server.Close()
	if *dataFile != "" {
		if err := store.SaveFile(*dataFile); err != nil {
			log.Printf("final snapshot: %v", err)
		} else {
			log.Printf("catalog saved to %s", *dataFile)
		}
	}
}
