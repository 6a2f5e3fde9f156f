package core

import (
	"fmt"
	"testing"

	"fbs/internal/cert"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// Cache-pressure behaviour: one endpoint talking to many peers with
// deliberately tiny caches, swapped in for the constant-sized ones.
// Everything must still work — soft state means evictions cost
// recomputation, never correctness (Section 5.3).
func TestManyPeersTinyCaches(t *testing.T) {
	w := newWorld(t)
	net := transport.NewNetwork(transport.Impairments{})
	const peers = 24

	mkCfg := func(name principal.Address, tr transport.Transport) Config {
		return Config{
			Identity:  w.principal(t, name),
			Transport: tr,
			Directory: w.dir,
			Verifier:  w.ver,
			Clock:     w.clock,
		}
	}
	hubTr, err := net.Attach("hub", 4096)
	if err != nil {
		t.Fatal(err)
	}
	hub, err := NewEndpoint(mkCfg("hub", hubTr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hub.Close() })
	// Tiny caches: 4 entries each against 24 peers.
	hub.tfkc = NewDirectMapped[flowCacheKey, keySlot](4, flowCacheKey.hash)
	hub.rfkc = NewDirectMapped[flowCacheKey, keySlot](4, flowCacheKey.hash)
	hub.plane.ks.pvc = NewDirectMapped[principal.Address, *cert.Certificate](4, pvcHash)
	hub.plane.ks.mkc = NewDirectMapped[principal.Address, [16]byte](4, addrHash)

	eps := make([]*Endpoint, peers)
	for i := range eps {
		name := principal.Address(fmt.Sprintf("peer-%02d", i))
		tr, err := net.Attach(name, 256)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := NewEndpoint(mkCfg(name, tr))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		eps[i] = ep
	}
	// Three rounds of hub → everyone → hub.
	for round := 0; round < 3; round++ {
		for i, ep := range eps {
			msg := []byte{byte(round), byte(i)}
			if err := hub.Send(transport.Datagram{Source: "hub", Destination: ep.Addr(), Payload: msg}, true); err != nil {
				t.Fatalf("round %d to %s: %v", round, ep.Addr(), err)
			}
			got, err := ep.Receive()
			if err != nil {
				t.Fatal(err)
			}
			if got.Payload[0] != byte(round) || got.Payload[1] != byte(i) {
				t.Fatalf("round %d: wrong payload at %s", round, ep.Addr())
			}
			if err := ep.SendTo("hub", msg, true); err != nil {
				t.Fatal(err)
			}
			if _, err := hub.Receive(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The hub's caches are hammered: evictions must have happened (the
	// working set exceeds every cache), and yet nothing failed above.
	caches := hub.Snapshot().Caches
	pvc, mkc := caches[CachePVC].Stats, caches[CacheMKC].Stats
	if pvc.Evictions == 0 && mkc.Evictions == 0 {
		t.Error("no evictions despite 24 peers in 4-entry caches")
	}
	if tf := hub.Snapshot().Caches[CacheTFKC].Stats; tf.Evictions == 0 {
		t.Error("TFKC saw no evictions under pressure")
	}
	ks := hub.Snapshot().Keying
	// Recomputation happened (more exponentiations than peers proves
	// eviction-driven rework), but correctness never suffered.
	if ks.MasterKeyComputes <= peers {
		t.Errorf("MasterKeyComputes=%d for %d peers in a 4-slot MKC: no eviction-driven rework", ks.MasterKeyComputes, peers)
	}
}

// Setup-message economics (Section 2 vs Section 5): N short
// conversations to N distinct peers cost session-based schemes setup
// messages per conversation, and FBS none at all.
func TestSetupMessageCounts(t *testing.T) {
	w := newWorld(t)
	net := transport.NewNetwork(transport.Impairments{})
	const conversations = 10

	tr, err := net.Attach("counter", 1024)
	if err != nil {
		t.Fatal(err)
	}
	fbsEp, err := NewEndpoint(Config{
		Identity:  w.principal(t, "counter"),
		Transport: tr,
		Directory: w.dir,
		Verifier:  w.ver,
		Clock:     w.clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fbsEp.Close() })
	for i := 0; i < conversations; i++ {
		peer := principal.Address(fmt.Sprintf("convo-%02d", i))
		w.principal(t, peer)
		// Seal three datagrams of a short conversation.
		for j := 0; j < 3; j++ {
			if _, err := fbsEp.Seal(transport.Datagram{Source: "counter", Destination: peer, Payload: []byte("hi")}, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	// FBS sent zero protocol messages: the transport carried only what
	// we counted above (nothing — Seal does not transmit), and the key
	// machinery never emitted a datagram.
	if links := net.Links(); len(links) != 0 {
		t.Fatalf("FBS emitted protocol messages for %d conversations (%v), want none", conversations, links)
	}
	ks := fbsEp.Snapshot().Keying
	if ks.MasterKeyComputes != conversations {
		t.Fatalf("expected one exponentiation per new peer, got %d", ks.MasterKeyComputes)
	}
}
