package rcds

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// BenchmarkStoreSet overwrites one attribute of one URI: the heartbeat
// and state-change path, a replace in place.
func BenchmarkStoreSet(b *testing.B) {
	s := NewStore("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Set("urn:snipe:host:h1", AttrLoad, "0.5")
	}
}

// BenchmarkStoreAdd inserts a value the attribute does not hold yet into
// one that holds `elements` of them, at a random place in value order: at
// 1 the comm-addr of a process, at 1,000 the replica list of a wide
// service group, where the insert moves half the URI's entries.
func BenchmarkStoreAdd(b *testing.B) {
	for _, elements := range []int{1, 1000} {
		b.Run(fmt.Sprintf("elements=%d", elements), func(b *testing.B) {
			const uri = "urn:snipe:service:wide"
			rng := rand.New(rand.NewSource(1))
			value := func() string { return fmt.Sprintf("urn:snipe:process:node%04d/task%08d", rng.Intn(1e4), rng.Intn(1e8)) }
			batch := elements/8 + 16 // the attribute grows by at most an eighth before it is rebuilt
			fresh := make([]string, batch)
			b.ReportAllocs()
			for done := 0; done < b.N; done += batch {
				b.StopTimer()
				s := NewStore("bench")
				for i := 0; i < elements; i++ {
					s.Add(uri, AttrServiceReplica, value())
				}
				for i := range fresh {
					fresh[i] = value()
				}
				runtime.GC() // the rebuild's garbage is not the Add's to collect
				b.StartTimer()
				for i := 0; i < batch && done+i < b.N; i++ {
					s.Add(uri, AttrServiceReplica, fresh[i])
				}
			}
		})
	}
}

// BenchmarkStoreGet reads a URI holding `elements` live values: 1 is the
// ledger's process URN (one state register), 16 a host with four
// attributes of four values each.
func BenchmarkStoreGet(b *testing.B) {
	for _, elements := range []int{1, 16} {
		b.Run(fmt.Sprintf("elements=%d", elements), func(b *testing.B) {
			s := NewStore("bench")
			if elements == 1 {
				s.Set("u", AttrState, "running")
			}
			for i := 0; elements > 1 && i < elements; i++ {
				s.Add("u", fmt.Sprintf("n%d", i%4), fmt.Sprintf("v%02d", i))
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := s.Get("u"); len(got) != elements {
					b.Fatalf("Get returned %d entries, want %d", len(got), elements)
				}
			}
		})
	}
}
