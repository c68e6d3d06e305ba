// Package replica is the one failover policy of SNIPE's replica-set
// clients, over the redundant resource managers (paper §2.2, §3.5) and
// each replicated RC server group (§6): a client stays on the member in
// use until a call to it fails, then moves to the next member, once per
// failure however many callers see it. It never balances across members.
package replica

import (
	"slices"
	"sync"
)

// Token names one stay on the member in use; a move ends it.
type Token uint64

// Set is an ordered set of members and the member in use; the zero Set
// is empty. It is safe for concurrent use, and keeps the slices it is
// given: their owner must not modify them after.
type Set struct {
	mu      sync.Mutex
	members []string
	inUse   string
	tok     Token
}

// Reset replaces the members, which must not be empty. The set stays on
// the member in use, under the same token, if it is still listed;
// otherwise it starts on the first member under a new token.
func (s *Set) Reset(members []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.members = members
	if !slices.Contains(members, s.inUse) {
		s.inUse, s.tok = members[0], s.tok+1
	}
}

// Current returns the member in use and its token; "" before any Reset.
func (s *Set) Current() (string, Token) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inUse, s.tok
}

// Failed reports that member, handed out under tok, failed. The set
// moves to the next member only while tok holds, so one failure moves it
// once, also when member is the only one. It reports whether it moved.
func (s *Set) Failed(member string, tok Token) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tok != s.tok || member != s.inUse {
		return false
	}
	next := slices.Index(s.members, member) + 1
	s.inUse, s.tok = s.members[next%len(s.members)], s.tok+1
	return true
}
