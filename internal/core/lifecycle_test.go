package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"fbs/internal/cryptolib"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// closeCountTransport records Close calls for teardown-accounting
// tests.
type closeCountTransport struct{ closes atomic.Int32 }

func (t *closeCountTransport) Send(transport.Datagram) error { return nil }
func (t *closeCountTransport) Receive() (transport.Datagram, error) {
	return transport.Datagram{}, transport.ErrClosed
}
func (t *closeCountTransport) Close() error { t.closes.Add(1); return nil }

// lifecycleEndpoint builds a minimal endpoint on tr keyed as addr.
func lifecycleEndpoint(t *testing.T, w *testWorld, addr principal.Address, tr transport.Transport) *Endpoint {
	t.Helper()
	ep, err := NewEndpoint(Config{
		Identity:  w.principal(t, addr),
		Transport: tr,
		Directory: w.dir,
		Verifier:  w.ver,
		Clock:     w.clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	return ep
}

// TestShardGroupMidConstructionFailure pins the partial-teardown
// contract: when the shard factory fails partway, every shard already
// built is closed — its transport released exactly once — and the
// caller gets the wrapped factory error, not a leak.
func TestShardGroupMidConstructionFailure(t *testing.T) {
	w := newWorld(t)
	var built []*closeCountTransport
	boom := errors.New("boom")
	g, err := NewShardGroup(4, func(shard int) (Config, error) {
		if shard == 2 {
			return Config{}, boom
		}
		tr := &closeCountTransport{}
		built = append(built, tr)
		return Config{
			Identity:  w.principal(t, "shardfail"),
			Transport: tr,
			Directory: w.dir,
			Verifier:  w.ver,
			Clock:     w.clock,
		}, nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("NewShardGroup error = %v, want wrapped factory error", err)
	}
	if g != nil {
		t.Fatal("NewShardGroup returned a group alongside an error")
	}
	if len(built) != 2 {
		t.Fatalf("factory built %d transports before failing, want 2", len(built))
	}
	for i, tr := range built {
		if got := tr.closes.Load(); got != 1 {
			t.Errorf("built shard %d: transport closed %d times, want exactly 1", i, got)
		}
	}
}

// TestShardGroupCloseIdempotent pins that closing a group (and its
// endpoints) twice releases each transport exactly once and that the
// second Close reports nothing new.
func TestShardGroupCloseIdempotent(t *testing.T) {
	w := newWorld(t)
	var built []*closeCountTransport
	g, err := NewShardGroup(3, func(shard int) (Config, error) {
		tr := &closeCountTransport{}
		built = append(built, tr)
		return Config{
			Identity:  w.principal(t, "shardclose"),
			Transport: tr,
			Directory: w.dir,
			Verifier:  w.ver,
			Clock:     w.clock,
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := g.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	for i, tr := range built {
		if got := tr.closes.Load(); got != 1 {
			t.Errorf("shard %d: transport closed %d times, want exactly 1", i, got)
		}
	}
}

// TestHandoffSoftState pins the swap-warming contract: certificates
// always carry to the successor, master keys only when the successor
// keys for the same identity, and a warmed successor seals to a known
// peer with zero exponentiations.
func TestHandoffSoftState(t *testing.T) {
	w := newWorld(t)
	old := lifecycleEndpoint(t, w, "handoff-self", nullTransport{})
	w.principal(t, "handoff-peer")

	dg := transport.Datagram{Source: "handoff-self", Destination: "handoff-peer", Payload: []byte("warm")}
	if _, err := old.Seal(dg, true); err != nil {
		t.Fatal(err)
	}
	if !old.plane.ks.KnownPeer("handoff-peer") {
		t.Fatal("seal did not warm the old endpoint's MKC")
	}

	// Same identity: certs and master keys both carry; the successor
	// never computes an exponentiation for the known peer.
	succ := lifecycleEndpoint(t, w, "handoff-self", nullTransport{})
	hs := old.plane.handoff(succ.plane)
	if hs.Certs == 0 || hs.MasterKeys == 0 {
		t.Fatalf("same-identity handoff = %+v, want certs and master keys", hs)
	}
	if !succ.plane.ks.KnownPeer("handoff-peer") {
		t.Fatal("successor does not know the peer after handoff")
	}
	if _, err := succ.Seal(dg, true); err != nil {
		t.Fatal(err)
	}
	if ks := succ.Snapshot().Keying; ks.MasterKeyComputes != 0 {
		t.Fatalf("successor computed %d master keys after a warm handoff, want 0", ks.MasterKeyComputes)
	}

	// Rotated identity (same address, fresh private value): certs
	// carry, master keys must not.
	rotated, err := principal.NewIdentity("handoff-self", cryptolib.TestGroup)
	if err != nil {
		t.Fatal(err)
	}
	rotEP, err := NewEndpoint(Config{
		Identity:  rotated,
		Transport: nullTransport{},
		Directory: w.dir,
		Verifier:  w.ver,
		Clock:     w.clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rotEP.Close() })
	if sameIdentity(old.cfg.Identity, rotated) {
		t.Fatal("sameIdentity true across a private-value rotation")
	}
	hs = old.plane.handoff(rotEP.plane)
	if hs.Certs == 0 {
		t.Fatalf("rotated handoff carried no certs: %+v", hs)
	}
	if hs.MasterKeys != 0 {
		t.Fatalf("rotated handoff carried %d master keys, want 0", hs.MasterKeys)
	}
	if rotEP.plane.ks.KnownPeer("handoff-peer") {
		t.Fatal("rotated endpoint inherited a master key its private value cannot have produced")
	}
}

// TestFlushPeerEvictsOnlyThatPeer pins the hot-rotation seam: flushing
// one peer forgets exactly that peer's certificate, master key and
// flow keys, leaving other peers' soft state warm.
func TestFlushPeerEvictsOnlyThatPeer(t *testing.T) {
	w := newWorld(t)
	ep := lifecycleEndpoint(t, w, "flush-self", nullTransport{})
	peers := []*Endpoint{
		lifecycleEndpoint(t, w, "flush-p1", nullTransport{}),
		lifecycleEndpoint(t, w, "flush-p2", nullTransport{}),
	}

	// Both directions keyed with both peers; p1 also keeps a second
	// datagram of its flow, sealed under its first certificate.
	var stale transport.Datagram
	for i, p := range peers {
		if _, err := ep.Seal(transport.Datagram{Source: "flush-self", Destination: p.Addr(), Payload: []byte("x")}, true); err != nil {
			t.Fatal(err)
		}
		in, err := p.Seal(transport.Datagram{Source: p.Addr(), Destination: "flush-self", Payload: []byte("in")}, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ep.Open(in); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if stale, err = p.Seal(transport.Datagram{Source: p.Addr(), Destination: "flush-self", Payload: []byte("stale")}, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !ep.plane.ks.KnownPeer("flush-p1") || !ep.plane.ks.KnownPeer("flush-p2") {
		t.Fatal("seals did not warm both peers")
	}
	tfkcBefore, rfkcBefore := ep.tfkc.Occupancy(), ep.rfkc.Occupancy()

	// p1's certificate is reissued for a new key pair, and the flush is
	// how ep learns of it.
	reissued, err := principal.NewIdentity("flush-p1", cryptolib.TestGroup)
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.ca.Issue(reissued, w.clock.Now().Add(-time.Hour), w.clock.Now().Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	w.dir.Publish(c)
	ep.FlushPeer("flush-p1")
	if ep.plane.ks.KnownPeer("flush-p1") {
		t.Fatal("flushed peer still has a cached master key")
	}
	if !ep.plane.ks.KnownPeer("flush-p2") {
		t.Fatal("flush evicted an unrelated peer's master key")
	}
	if got := ep.tfkc.Occupancy(); got != tfkcBefore-1 {
		t.Fatalf("TFKC occupancy after flush = %d, want %d", got, tfkcBefore-1)
	}
	if got := ep.rfkc.Occupancy(); got != rfkcBefore-1 {
		t.Fatalf("RFKC occupancy after flush = %d, want %d", got, rfkcBefore-1)
	}
	// A flow key cached from the old certificate would still open it.
	before := ep.Snapshot().Keying
	if _, err := ep.Open(stale); DropReasonOf(err) != DropBadMAC {
		t.Fatalf("datagram sealed under the old certificate: err = %v, want %v", err, DropBadMAC)
	}

	// Re-keying the flushed peer works and costs one fresh computation,
	// made by the refusal above.
	if _, err := ep.Seal(transport.Datagram{Source: "flush-self", Destination: "flush-p1", Payload: []byte("y")}, true); err != nil {
		t.Fatal(err)
	}
	after := ep.Snapshot().Keying
	if after.MasterKeyComputes != before.MasterKeyComputes+1 {
		t.Fatalf("re-key after flush: computes %d → %d, want +1", before.MasterKeyComputes, after.MasterKeyComputes)
	}
}
