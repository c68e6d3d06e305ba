package rcds

import (
	"context"
	"errors"
	"testing"
	"time"

	"snipe/internal/seckey"
)

type detRand struct{ state uint64 }

func (r *detRand) Read(p []byte) (int, error) {
	for i := range p {
		r.state = r.state*6364136223846793005 + 1442695040888963407
		p[i] = byte(r.state >> 56)
	}
	return len(p), nil
}

func TestSignedAssertionEndToEnd(t *testing.T) {
	servers := startReplicaGroup(t, 2, nil)
	c := NewClient(groupAddrs(servers), nil)
	defer c.Close()

	alice, err := seckey.NewPrincipal("urn:snipe:user:alice", &detRand{state: 1})
	if err != nil {
		t.Fatal(err)
	}
	mallory, _ := seckey.NewPrincipal("urn:snipe:user:mallory", &detRand{state: 2})

	if err := c.PublishKey(context.Background(), alice); err != nil {
		t.Fatal(err)
	}
	c.PublishKey(context.Background(), mallory)

	// Alice publishes a signed location; Mallory forges one claiming to
	// be Alice; an unsigned value is also present.
	if err := c.AddSignedBy(context.Background(), alice, "urn:snipe:file:data", AttrLocation, "https://good/data"); err != nil {
		t.Fatal(err)
	}
	forged := SignAssertionValue(mallory, "urn:snipe:file:data", AttrLocation, "https://evil/data")
	c.AddSigned(context.Background(), "urn:snipe:file:data", AttrLocation, "https://evil/data", alice.Name, forged)
	c.Add(context.Background(), "urn:snipe:file:data", AttrLocation, "https://unsigned/data")

	values, signers, err := c.VerifiedValues(context.Background(), "urn:snipe:file:data", AttrLocation)
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 1 || values[0] != "https://good/data" || signers[0] != alice.Name {
		t.Fatalf("verified values: %v by %v", values, signers)
	}
}

func TestVerifyAssertionDirect(t *testing.T) {
	alice, _ := seckey.NewPrincipal("alice", &detRand{state: 3})
	a := Assertion{URI: "u", Name: "n", Value: "v", Signer: "alice"}
	a.Signature = SignAssertionValue(alice, "u", "n", "v")
	if err := VerifyAssertion(&a, alice.Public()); err != nil {
		t.Fatal(err)
	}
	// Any field change breaks it.
	b := a
	b.Value = "tampered"
	if err := VerifyAssertion(&b, alice.Public()); !errors.Is(err, ErrUnverified) {
		t.Fatalf("tampered: %v", err)
	}
	c := a
	c.Signature = nil
	if err := VerifyAssertion(&c, alice.Public()); !errors.Is(err, ErrUnverified) {
		t.Fatalf("unsigned: %v", err)
	}
}

func TestSignedAssertionSurvivesReplication(t *testing.T) {
	servers := startReplicaGroup(t, 2, nil)
	c0 := NewClient([]string{servers[0].Addr()}, nil)
	defer c0.Close()
	alice, _ := seckey.NewPrincipal("urn:a", &detRand{state: 4})
	c0.PublishKey(context.Background(), alice)
	if err := c0.AddSignedBy(context.Background(), alice, "urn:doc", "hash", "abc123"); err != nil {
		t.Fatal(err)
	}
	// Read through the other replica: the signature replicated intact.
	c1 := NewClient([]string{servers[1].Addr()}, nil)
	defer c1.Close()
	waitValue(t, c1, "urn:doc", "hash", 5*time.Second)
	values, _, err := c1.VerifiedValues(context.Background(), "urn:doc", "hash")
	if err != nil || len(values) != 1 || values[0] != "abc123" {
		t.Fatalf("replicated signed value: %v %v", values, err)
	}
}
