package fbs

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

var (
	domOnce sync.Once
	dom     *Domain
	domErr  error
)

// testDomain builds one shared test domain (CA key generation is the
// slow part) on the fast TestGroup.
func testDomain(t testing.TB) *Domain {
	t.Helper()
	domOnce.Do(func() {
		dom, domErr = NewDomain("public-api-test", WithGroup(TestGroup))
	})
	if domErr != nil {
		t.Fatal(domErr)
	}
	return dom
}

func TestPublicAPIQuickstart(t *testing.T) {
	d := testDomain(t)
	net := NewNetwork(Impairments{})
	alice, err := d.NewEndpoint("alice", net)
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	bob, err := d.NewEndpoint("bob", net)
	if err != nil {
		t.Fatal(err)
	}
	defer bob.Close()

	want := []byte("hello, flows")
	if err := alice.SendTo("bob", want, true); err != nil {
		t.Fatal(err)
	}
	dg, err := bob.ReceiveValid()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dg.Payload, want) || dg.Source != "alice" {
		t.Fatalf("got %+v", dg)
	}
}

func TestPublicAPIOverLossyNetwork(t *testing.T) {
	d := testDomain(t)
	net := NewNetwork(Impairments{LossProb: 0.2, DupProb: 0.1, ReorderProb: 0.2, CorruptProb: 0.1, Seed: 99})
	a, err := d.NewEndpoint("lossy-a", net)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := d.NewEndpoint("lossy-b", net, func(c *Config) { c.EnableReplayCache = true })
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const n = 200
	for i := 0; i < n; i++ {
		if err := a.SendTo("lossy-b", []byte{byte(i)}, true); err != nil {
			t.Fatal(err)
		}
	}
	net.Flush()
	// Drain everything that survived; every accepted datagram must be
	// intact and unique (replay cache suppresses duplicates).
	received := make(map[byte]int)
	deadline := time.After(5 * time.Second)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			dg, err := b.Receive()
			if errors.Is(err, ErrClosed) {
				return
			}
			if err == nil {
				received[dg.Payload[0]]++
			}
		}
	}()
	time.Sleep(300 * time.Millisecond)
	b.Close()
	select {
	case <-done:
	case <-deadline:
		t.Fatal("receiver did not drain")
	}
	if len(received) == 0 {
		t.Fatal("nothing survived the lossy network")
	}
	for v, c := range received {
		if c != 1 {
			t.Fatalf("datagram %d accepted %d times despite replay cache", v, c)
		}
	}
	m := b.Snapshot()
	if m.Drops[DropBadMAC] == 0 {
		t.Error("corruption impairment never triggered a MAC rejection")
	}
	t.Logf("received %d/%d; metrics %+v", len(received), n, m)
}

func TestDomainRekeyFlow(t *testing.T) {
	d := testDomain(t)
	net := NewNetwork(Impairments{})
	a, err := d.NewEndpoint("rk-a", net)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	bID, err := d.NewPrincipal("rk-b")
	if err != nil {
		t.Fatal(err)
	}
	trB, err := net.Attach("rk-b", 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.NewEndpointOn(bID, trB)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.SendTo("rk-b", []byte("before rekey"), true); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReceiveValid(); err != nil {
		t.Fatal(err)
	}
	// b rekeys, re-enrolls, and drops its derived soft state (all of it
	// is recomputable, so this is always safe).
	if err := bID.Rekey(); err != nil {
		t.Fatal(err)
	}
	if err := d.Enroll(bID); err != nil {
		t.Fatal(err)
	}
	b.FlushKeys()
	// a still seals under cached (pre-rekey) flow keys; b now derives
	// keys from its new private value and must reject.
	if err := a.SendTo("rk-b", []byte("stale key"), true); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Receive(); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("stale-keyed datagram: err = %v, want ErrBadMAC", err)
	}
	// Once a also flushes, the pair re-converges on the new master key
	// with zero protocol messages — the zero-message keying property.
	a.FlushKeys()
	if err := a.SendTo("rk-b", []byte("after rekey"), true); err != nil {
		t.Fatal(err)
	}
	dg, err := b.ReceiveValid()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dg.Payload, []byte("after rekey")) {
		t.Fatal("post-rekey payload mismatch")
	}
}

func TestFlowKeyExported(t *testing.T) {
	var master [16]byte
	copy(master[:], "sixteen byte key")
	k1 := FlowKey(1, master, "s", "d")
	k2 := FlowKey(2, master, "s", "d")
	if k1 == k2 {
		t.Fatal("flow keys collide across sfls")
	}
}

func TestNewIdentityDefaultGroup(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-bit keygen in -short mode")
	}
	id, err := NewIdentity("full-size")
	if err != nil {
		t.Fatal(err)
	}
	if id.Group.Bits() != 1024 {
		t.Fatalf("default group is %d bits", id.Group.Bits())
	}
}

func TestDomainEndpointOptions(t *testing.T) {
	d := testDomain(t)
	net := NewNetwork(Impairments{})
	ep, err := d.NewEndpoint("opts", net, func(c *Config) {
		c.Policy = ThresholdPolicy{Threshold: time.Minute}
		c.CombinedFSTTFKC = true
		c.SinglePass = true
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if ep.Addr() != "opts" {
		t.Fatal("wrong address")
	}
}
