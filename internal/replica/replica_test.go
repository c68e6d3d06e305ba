package replica

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentReportsMoveOnce: however many callers report one
// failure at once, the set moves past the member once — with one member
// too, where a second move would be invisible in the member alone.
func TestConcurrentReportsMoveOnce(t *testing.T) {
	for _, members := range [][]string{{"a", "b", "c"}, {"a"}} {
		var s Set
		s.Reset(members)
		m, tok := s.Current()
		var reports sync.WaitGroup
		var moved atomic.Int32
		for i := 0; i < 16; i++ {
			reports.Add(1)
			go func() {
				defer reports.Done()
				if s.Failed(m, tok) {
					moved.Add(1)
				}
			}()
		}
		reports.Wait()
		if n := moved.Load(); n != 1 {
			t.Fatalf("%v: one failure moved the set %d times", members, n)
		}
		if next, ntok := s.Current(); next != members[1%len(members)] || ntok == tok {
			t.Fatalf("%v: after one move the set is on %q under token %d (was %d)", members, next, ntok, tok)
		}
	}
}

// TestResetKeepsMemberInUse: a Reset that still lists the member in use
// stays on it, token and all, wherever it now stands; one that drops it
// starts on the first member, and a report of the dropped member's
// failure does nothing.
func TestResetKeepsMemberInUse(t *testing.T) {
	var s Set
	s.Reset([]string{"a", "b"})
	_, tok := s.Current()
	if !s.Failed("a", tok) {
		t.Fatal("a fresh report did not move the set")
	}
	bm, btok := s.Current()
	s.Reset([]string{"b", "c", "a"})
	if m, tok := s.Current(); m != bm || tok != btok {
		t.Fatalf("Reset moved the set off %q/%d to %q/%d", bm, btok, m, tok)
	}
	s.Reset([]string{"c", "a"})
	if m, tok := s.Current(); m != "c" || tok == btok {
		t.Fatalf("Reset without %q: set on %q under token %d, want c under a new one", bm, m, tok)
	}
	if s.Failed(bm, btok) {
		t.Fatal("a report about a member no longer in use moved the set")
	}
}

// TestStaleTokenDoesNothing: a report made under a token that a move
// ended does not move the set again, even naming the member in use.
func TestStaleTokenDoesNothing(t *testing.T) {
	var s Set
	s.Reset([]string{"a", "b"})
	_, stale := s.Current()
	s.Failed("a", stale) // on b
	_, tok := s.Current()
	s.Failed("b", tok) // back on a, under a third token
	if s.Failed("a", stale) {
		t.Fatal("a stale token moved the set")
	}
	if m, _ := s.Current(); m != "a" {
		t.Fatalf("set on %q, want a", m)
	}
}
