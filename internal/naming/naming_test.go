package naming

import (
	"context"
	"testing"
	"time"

	"snipe/internal/comm"
	"snipe/internal/rcds"
	"snipe/internal/testutil"
)

func TestNameConstructors(t *testing.T) {
	if got := ProcessURN("h1", "worker-1"); got != "urn:snipe:process:h1:worker-1" {
		t.Fatalf("ProcessURN = %q", got)
	}
	if got := HostURL("h1"); got != "snipe://hosts/h1" {
		t.Fatalf("HostURL = %q", got)
	}
	if got := GroupURN("g"); got != "urn:snipe:group:g" {
		t.Fatalf("GroupURN = %q", got)
	}
	if got := FileURN("f"); got != "urn:snipe:file:f" {
		t.Fatalf("FileURN = %q", got)
	}
	if got := ServiceURN("s"); got != "urn:snipe:service:s" {
		t.Fatalf("ServiceURN = %q", got)
	}
}

func TestRegisterResolveUnregister(t *testing.T) {
	store := rcds.NewStore("s1")
	cat := StoreCatalog(store)
	r := NewResolver(cat)

	routes := []comm.Route{
		{Transport: "tcp", Addr: "127.0.0.1:1000"},
		{Transport: "rudp", Addr: "127.0.0.1:1001", NetName: "lan"},
	}
	if err := Register(cat, "urn:p1", routes); err != nil {
		t.Fatal(err)
	}
	got, err := r.Resolve("urn:p1")
	if err != nil || len(got) != 2 {
		t.Fatalf("Resolve = %v, %v", got, err)
	}
	if err := Unregister(cat, "urn:p1"); err != nil {
		t.Fatal(err)
	}
	if got, err = r.Resolve("urn:p1"); err != nil || len(got) != 0 {
		t.Fatalf("after Unregister: %v, %v", got, err)
	}
}

func TestWithdrawRoute(t *testing.T) {
	store := rcds.NewStore("s1")
	cat := StoreCatalog(store)
	r := NewResolver(cat)

	routes := []comm.Route{
		{Transport: "tcp", Addr: "127.0.0.1:1000", NetName: "eth"},
		{Transport: "tcp", Addr: "127.0.0.1:1001", NetName: "atm"},
	}
	if err := Register(cat, "urn:p1", routes); err != nil {
		t.Fatal(err)
	}
	if err := WithdrawRoute(cat, "urn:p1", routes[0]); err != nil {
		t.Fatal(err)
	}
	got, err := r.Resolve("urn:p1")
	if err != nil || len(got) != 1 || got[0] != routes[1] {
		t.Fatalf("after withdrawal: %v, %v", got, err)
	}
}

// TestRouteStampStore: over an in-process store the route stamp is the
// store's version, so it holds while nothing is written and any write
// changes it. A catalog with no change signal gives no stamp.
func TestRouteStampStore(t *testing.T) {
	cat := StoreCatalog(rcds.NewStore("s1"))
	r := NewResolver(cat)
	s0, ok := r.RouteStamp("urn:p1")
	if !ok {
		t.Fatal("no stamp over a store")
	}
	if _, err := r.Resolve("urn:p1"); err != nil {
		t.Fatal(err)
	}
	if s, _ := r.RouteStamp("urn:p1"); s != s0 {
		t.Fatalf("stamp moved from %d to %d with no write", s0, s)
	}
	cat.Set(HostURL("elsewhere"), rcds.AttrLoad, "1")
	if s, _ := r.RouteStamp("urn:p1"); s == s0 {
		t.Fatal("a write left the stamp unchanged")
	}
	gated := NewResolver(GatedCatalog(cat, func() error { return nil }))
	if _, ok := gated.RouteStamp("urn:p1"); ok {
		t.Fatal("a catalog with no change signal gave a stamp")
	}
}

// TestRouteStampClient: over a remote client the stamp is its read-cache
// epoch. It changes once another client's write reaches this client's
// watch, and there is none while the watch is down.
func TestRouteStampClient(t *testing.T) {
	srv := rcds.NewServer(rcds.NewStore("rc0"))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := rcds.NewClient([]string{srv.Addr()}, nil, rcds.WithReadCache())
	defer c.Close()
	writer := rcds.NewClient(c.Servers(), nil)
	defer writer.Close()
	r := NewResolver(ClientCatalog(c))
	const urn = "urn:p1"
	if err := writer.Set(context.Background(), HostURL("h1"), rcds.AttrLoad, "1"); err != nil {
		t.Fatal(err)
	}
	// The first read resolves the client's shard map; until then there
	// is no owning group to take the stamp of.
	if got, err := r.Resolve(urn); err != nil || len(got) != 0 {
		t.Fatalf("Resolve before Register: %v, %v", got, err)
	}
	var s0 uint64
	testutil.WaitFor(t, 5*time.Second, func() bool {
		var ok bool
		s0, ok = r.RouteStamp(urn)
		return ok
	}, "no stamp once the watch is up")

	if err := Register(ClientCatalog(writer), urn, []comm.Route{{Transport: "tcp", Addr: "a:1"}}); err != nil {
		t.Fatal(err)
	}
	testutil.WaitFor(t, 5*time.Second, func() bool {
		s, ok := r.RouteStamp(urn)
		return ok && s != s0
	}, "another client's write never changed the stamp")
	if got, err := r.Resolve(urn); err != nil || len(got) != 1 {
		t.Fatalf("Resolve after the stamp changed: %v, %v", got, err)
	}

	srv.Close()
	testutil.WaitFor(t, 5*time.Second, func() bool {
		_, ok := r.RouteStamp(urn)
		return !ok
	}, "a stamp while the watch is down")
}

func TestResolverToleratesForeignAddressFormats(t *testing.T) {
	store := rcds.NewStore("s1")
	cat := StoreCatalog(store)
	cat.Add("urn:p1", rcds.AttrCommAddr, "not-a-route")
	cat.Add("urn:p1", rcds.AttrCommAddr, "tcp://127.0.0.1:5")
	r := NewResolver(cat)
	got, err := r.Resolve("urn:p1")
	if err != nil || len(got) != 1 || got[0].Addr != "127.0.0.1:5" {
		t.Fatalf("Resolve = %v, %v", got, err)
	}
}

func TestResolverSatisfiesCommResolver(t *testing.T) {
	var _ comm.Resolver = NewResolver(StoreCatalog(rcds.NewStore("x")))
}
