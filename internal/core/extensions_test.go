package core

import (
	"errors"
	"testing"
	"time"

	"fbs/internal/cert"
	"fbs/internal/cryptolib"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// TestRekeyPolicyPacketLimit checks the Section 5.2 key wear-out story:
// a policy can rekey a flow by minting a new sfl after a packet budget.
func TestRekeyPolicyPacketLimit(t *testing.T) {
	f := newFAMWithSeed(ThresholdPolicy{Threshold: time.Hour, MaxPackets: 3}, 64, 9)
	id := FlowID{Src: "a", Dst: "b", SrcPort: 77}
	var sfls []SFL
	now := famEpoch
	for i := 0; i < 7; i++ {
		sfl, _ := f.Classify(id, now, 100)
		sfls = append(sfls, sfl)
		now = now.Add(time.Second)
	}
	// Packets 0,1,2 in flow one; 3,4,5 in flow two; 6 in flow three.
	if sfls[0] != sfls[2] || sfls[3] != sfls[5] {
		t.Fatalf("flows fragmented wrongly: %v", sfls)
	}
	if sfls[2] == sfls[3] || sfls[5] == sfls[6] {
		t.Fatalf("wear-out limit did not rekey: %v", sfls)
	}
}

// TestRekeyEndToEnd: the wear-out rekey is invisible to the peer — the
// new flow keys itself with zero messages.
func TestRekeyEndToEnd(t *testing.T) {
	w := newWorld(t)
	a, b, _ := endpointPair(t, w, func(c *Config) {
		c.Policy = ThresholdPolicy{Threshold: time.Hour, MaxPackets: 2}
	})
	var sfls []SFL
	for i := 0; i < 6; i++ {
		if err := a.SendTo("bob", []byte("wear"), true); err != nil {
			t.Fatal(err)
		}
		dg, err := b.cfg.Transport.Receive()
		if err != nil {
			t.Fatal(err)
		}
		var h Header
		if _, err := h.Decode(dg.Payload); err != nil {
			t.Fatal(err)
		}
		sfls = append(sfls, h.SFL)
		if _, err := b.Open(dg); err != nil {
			t.Fatalf("datagram %d rejected after rekey: %v", i, err)
		}
	}
	distinct := map[SFL]bool{}
	for _, s := range sfls {
		distinct[s] = true
	}
	if len(distinct) != 3 {
		t.Fatalf("expected 3 flows over 6 datagrams with MaxPackets=2, got %d (%v)", len(distinct), sfls)
	}
}

func TestAlgorithmRestrictions(t *testing.T) {
	w := newWorld(t)
	a, _, net := endpointPair(t, w, nil) // sender: keyed-MD5, DES
	strictRaw, err := net.Attach("strict", 64)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := NewEndpoint(Config{
		Identity:      w.principal(t, "strict"),
		Transport:     strictRaw,
		Directory:     w.dir,
		Verifier:      w.ver,
		Clock:         w.clock,
		AcceptCiphers: []CipherID{Cipher3DES},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { strict.Close() })

	sealed, err := a.Seal(transport.Datagram{Source: "alice", Destination: "strict", Payload: []byte("x")}, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := strict.Open(sealed); !errors.Is(err, ErrAlgorithmRejected) {
		t.Fatalf("err = %v, want ErrAlgorithmRejected", err)
	}
	if strict.Snapshot().Drops[DropAlgorithm] != 1 {
		t.Fatal("algorithm rejection not counted")
	}
	// A matching sender passes.
	okRaw, err := net.Attach("conformant", 64)
	if err != nil {
		t.Fatal(err)
	}
	conformant, err := NewEndpoint(Config{
		Identity:  w.principal(t, "conformant"),
		Transport: okRaw,
		Directory: w.dir,
		Verifier:  w.ver,
		Clock:     w.clock,
		MAC:       cryptolib.MACHMACMD5,
		Cipher:    Cipher3DES,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conformant.Close() })
	sealed, err = conformant.Seal(transport.Datagram{Source: "conformant", Destination: "strict", Payload: []byte("y")}, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := strict.Open(sealed); err != nil {
		t.Fatalf("conformant datagram rejected: %v", err)
	}
	// Plaintext (MAC-only) datagrams ignore the cipher restriction.
	sealed, err = conformant.Seal(transport.Datagram{Source: "conformant", Destination: "strict", Payload: []byte("z")}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := strict.Open(sealed); err != nil {
		t.Fatalf("MAC-only datagram rejected: %v", err)
	}
}

func TestStartSweeper(t *testing.T) {
	w := newWorld(t)
	a, _, _ := endpointPair(t, w, func(c *Config) {
		c.Policy = ThresholdPolicy{Threshold: time.Minute}
	})
	if err := a.SendTo("bob", []byte("x"), false); err != nil {
		t.Fatal(err)
	}
	if a.Snapshot().ActiveFlows != 1 {
		t.Fatal("no active flow recorded")
	}
	// Expire the flow in simulated time, then let the background
	// sweeper collect it.
	w.clock.Advance(2 * time.Minute)
	stop := a.StartSweeper(5 * time.Millisecond)
	defer stop()
	deadline := time.After(2 * time.Second)
	for a.Snapshot().ActiveFlows != 0 {
		select {
		case <-deadline:
			t.Fatal("sweeper never expired the flow")
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	stop()
	stop() // idempotent
	w.clock.Advance(-2 * time.Minute)
}

// TestEndpointWithNetworkDirectory wires the full Figure 5 fetch path:
// a PVC miss goes to a directory server over the same datagram network,
// through the secure flow bypass.
func TestEndpointWithNetworkDirectory(t *testing.T) {
	w := newWorld(t)
	net := transport.NewNetwork(transport.Impairments{})

	// The directory server holds the published certificates.
	serverTr, err := net.Attach("cert-server", 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { serverTr.Close() })
	go cert.NewDirectoryServer(serverTr, w.dir).Serve()

	mkEndpoint := func(name principal.Address) *Endpoint {
		// Each endpoint gets its own directory-client transport
		// attachment, distinct from its FBS transport.
		dirTr, err := net.Attach(name+"-dirclient", 64)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dirTr.Close() })
		netdir := cert.NewNetworkDirectory(dirTr, "cert-server")
		tr, err := net.Attach(name, 64)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := NewEndpoint(Config{
			Identity:  w.principal(t, name),
			Transport: tr,
			Directory: netdir,
			Verifier:  w.ver,
			Clock:     w.clock,
			Bypass: func(peer principal.Address) bool {
				return peer == "cert-server"
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	a := mkEndpoint("nd-alice")
	b := mkEndpoint("nd-bob")
	if err := a.SendTo("nd-bob", []byte("keyed via the network directory"), true); err != nil {
		t.Fatal(err)
	}
	got, err := b.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "keyed via the network directory" {
		t.Fatalf("payload %q", got.Payload)
	}
	// The fetch happened over the wire exactly once per side.
	ks := a.Snapshot().Keying
	if ks.CertFetches != 1 {
		t.Fatalf("sender cert fetches = %d, want 1", ks.CertFetches)
	}
}

// Footnote 7: the flow key caches index on S as well as (sfl, D) because
// principals may be multi-homed. Model a host with two addresses sharing
// one private value: flows from its two addresses must key differently
// and coexist in the receiver's RFKC.
func TestMultiHomedPrincipal(t *testing.T) {
	w := newWorld(t)
	net := transport.NewNetwork(transport.Impairments{})
	// One private value, two enrolled addresses.
	base := w.principal(t, "mh-base")
	_ = base
	priv, err := cryptolib.TestGroup.GeneratePrivate()
	if err != nil {
		t.Fatal(err)
	}
	var eps [2]*Endpoint
	for i, addr := range []principal.Address{"mh-if0", "mh-if1"} {
		id, err := principal.NewIdentityWithPrivate(addr, cryptolib.TestGroup, priv)
		if err != nil {
			t.Fatal(err)
		}
		c, err := w.ca.Issue(id, w.clock.Now().Add(-time.Hour), w.clock.Now().Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		w.dir.Publish(c)
		tr, err := net.Attach(addr, 64)
		if err != nil {
			t.Fatal(err)
		}
		ep, err := NewEndpoint(Config{
			Identity: id, Transport: tr, Directory: w.dir, Verifier: w.ver, Clock: w.clock,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		eps[i] = ep
	}
	trB, err := net.Attach("mh-bob", 64)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := NewEndpoint(Config{
		Identity: w.principal(t, "mh-bob"), Transport: trB,
		Directory: w.dir, Verifier: w.ver, Clock: w.clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bob.Close() })

	// Both interfaces speak to bob; both must verify independently.
	s0, err := eps[0].Seal(transport.Datagram{Source: "mh-if0", Destination: "mh-bob", Payload: []byte("via if0")}, true)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := eps[1].Seal(transport.Datagram{Source: "mh-if1", Destination: "mh-bob", Payload: []byte("via if1")}, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Open(s0); err != nil {
		t.Fatalf("if0 rejected: %v", err)
	}
	if _, err := bob.Open(s1); err != nil {
		t.Fatalf("if1 rejected: %v", err)
	}
	// Even with an identical sfl, the two interfaces' flow keys differ
	// (S is part of the derivation).
	var h0, h1 Header
	h0.Decode(s0.Payload)
	h1.Decode(s1.Payload)
	master, err := eps[0].plane.ks.MasterKey("mh-bob")
	if err != nil {
		t.Fatal(err)
	}
	k0 := FlowKey(cryptolib.HashMD5, h0.SFL, master, "mh-if0", "mh-bob")
	k1 := FlowKey(cryptolib.HashMD5, h0.SFL, master, "mh-if1", "mh-bob")
	if k0 == k1 {
		t.Fatal("multi-homed interfaces share a flow key for the same sfl")
	}
	// And the RFKC holds both without conflict (different S → different
	// cache keys).
	if s := bob.Snapshot().Caches[CacheRFKC].Stats; s.Installs < 2 {
		t.Fatalf("RFKC installed %d keys, want 2", s.Installs)
	}
}

// The true "FBS NOP" configuration of Figure 8: MAC and encryption
// nullified, everything else (FAM, sfl, caches, header) running. It
// measures the protocol's non-cryptographic overhead and provides no
// security — the test pins both facts.
func TestNOPConfiguration(t *testing.T) {
	w := newWorld(t)
	a, b, _ := endpointPair(t, w, func(c *Config) { c.MAC = cryptolib.MACNull })
	if err := a.SendTo("bob", []byte("nop datagram"), false); err != nil {
		t.Fatal(err)
	}
	got, err := b.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "nop datagram" {
		t.Fatalf("payload %q", got.Payload)
	}
	// All protocol machinery ran...
	if a.Snapshot().FAM.FlowsCreated != 1 {
		t.Fatal("NOP skipped flow association")
	}
	// ...but there is no protection: corruption passes.
	sealed, _ := a.Seal(transport.Datagram{Source: "alice", Destination: "bob", Payload: []byte("tamper me")}, false)
	sealed.Payload[len(sealed.Payload)-1] ^= 0xFF
	if _, err := b.Open(sealed); err != nil {
		t.Fatalf("NOP mode rejected a datagram (it must accept everything): %v", err)
	}
}
