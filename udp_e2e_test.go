package fbs_test

import (
	"bytes"
	"testing"

	"fbs/internal/transport"

	fbs "fbs"
)

// End-to-end over real UDP sockets on loopback: the same endpoints that
// run on the in-memory network run unchanged on the kernel's datagram
// service — FBS assumes nothing about the transport beyond Send/Receive.
func TestFBSOverRealUDP(t *testing.T) {
	domain, err := fbs.NewDomain("udp-e2e", fbs.WithGroup(fbs.TestGroup))
	if err != nil {
		t.Fatal(err)
	}
	ua, err := transport.NewUDPTransport("udp-alice", "127.0.0.1:0")
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	ub, err := transport.NewUDPTransport("udp-bob", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := ua.AddPeer("udp-bob", ub.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	if err := ub.AddPeer("udp-alice", ua.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	idA, err := domain.NewPrincipal("udp-alice")
	if err != nil {
		t.Fatal(err)
	}
	idB, err := domain.NewPrincipal("udp-bob")
	if err != nil {
		t.Fatal(err)
	}
	alice, err := domain.NewEndpointOn(idA, ua)
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	bob, err := domain.NewEndpointOn(idB, ub)
	if err != nil {
		t.Fatal(err)
	}
	defer bob.Close()

	for i := 0; i < 5; i++ {
		want := []byte{byte(i), 'u', 'd', 'p'}
		if err := alice.SendTo("udp-bob", want, true); err != nil {
			t.Fatal(err)
		}
		got, err := bob.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Payload, want) || got.Source != "udp-alice" {
			t.Fatalf("datagram %d: got %+v", i, got)
		}
	}
	// And the reverse direction (its own flow).
	if err := bob.SendTo("udp-alice", []byte("pong"), true); err != nil {
		t.Fatal(err)
	}
	got, err := alice.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "pong" {
		t.Fatalf("reverse payload %q", got.Payload)
	}
	// One flow each way, keys cached after the first datagram.
	if s := alice.Snapshot().Caches[fbs.CacheTFKC].Stats; s.Misses != 1 || s.Hits != 4 {
		t.Fatalf("alice TFKC = %+v", s)
	}
}
