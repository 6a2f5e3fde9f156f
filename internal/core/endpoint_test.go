package core

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"fbs/internal/cryptolib"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// endpointPair builds two connected endpoints over a fault-free network.
func endpointPair(t testing.TB, w *testWorld, mutate func(*Config)) (*Endpoint, *Endpoint, *transport.Network) {
	t.Helper()
	net := transport.NewNetwork(transport.Impairments{})
	mk := func(addr principal.Address) *Endpoint {
		tr, err := net.Attach(addr, 1024)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Identity:   w.principal(t, addr),
			Transport:  tr,
			Directory:  w.dir,
			Verifier:   w.ver,
			Clock:      w.clock,
			Confounder: cryptolib.NewLCGSeeded(uint64(len(addr)) + 77),
		}
		if mutate != nil {
			mutate(&cfg)
		}
		ep, err := NewEndpoint(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	return mk("alice"), mk("bob"), net
}

func TestEndpointRoundTripPlain(t *testing.T) {
	w := newWorld(t)
	a, b, _ := endpointPair(t, w, nil)
	want := []byte("authenticated but not encrypted")
	if err := a.SendTo("bob", want, false); err != nil {
		t.Fatal(err)
	}
	got, err := b.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, want) || got.Source != "alice" {
		t.Fatalf("got %+v", got)
	}
	// Without the secret flag the payload rides in the clear.
	sealed, err := a.Seal(transport.Datagram{Destination: "bob", Payload: want}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(sealed.Payload, want) {
		t.Fatal("plain-mode payload not visible on the wire")
	}
}

func TestEndpointRoundTripSecret(t *testing.T) {
	w := newWorld(t)
	a, b, _ := endpointPair(t, w, nil)
	want := []byte("the confidential payload body")
	if err := a.SendTo("bob", want, true); err != nil {
		t.Fatal(err)
	}
	got, err := b.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, want) {
		t.Fatalf("payload = %q", got.Payload)
	}
	// Encrypted payloads must not appear on the wire.
	sealed, _ := a.Seal(transport.Datagram{Destination: "bob", Payload: want}, true)
	if bytes.Contains(sealed.Payload, want) {
		t.Fatal("secret payload visible on the wire")
	}
	if b.Snapshot().Received != 1 {
		t.Fatal("receive not counted")
	}
}

// Property: Open(Seal(P)) == P for arbitrary payloads in all four
// cipher-mode combinations and both secrecy settings.
func TestSealOpenProperty(t *testing.T) {
	w := newWorld(t)
	for _, mode := range []cryptolib.Mode{cryptolib.ECB, cryptolib.CBC, cryptolib.CFB, cryptolib.OFB} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			a, b, _ := endpointPair(t, w, func(c *Config) { c.Mode = mode })
			f := func(payload []byte, secret bool) bool {
				sealed, err := a.Seal(transport.Datagram{Source: "alice", Destination: "bob", Payload: payload}, secret)
				if err != nil {
					return false
				}
				got, err := b.Open(sealed)
				if err != nil {
					return false
				}
				return bytes.Equal(got.Payload, payload)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: any single-bit corruption of a sealed datagram is rejected.
func TestCorruptionRejected(t *testing.T) {
	w := newWorld(t)
	a, b, _ := endpointPair(t, w, nil)
	payload := []byte("a payload long enough to span several DES blocks....")
	sealed, err := a.Seal(transport.Datagram{Source: "alice", Destination: "bob", Payload: payload}, true)
	if err != nil {
		t.Fatal(err)
	}
	// Warm bob's key caches so rejection is purely cryptographic.
	if _, err := b.Open(sealed); err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < len(sealed.Payload)*8; bit++ {
		tampered := sealed.Clone()
		tampered.Payload[bit/8] ^= 1 << (bit % 8)
		got, err := b.Open(tampered)
		if err == nil && bytes.Equal(got.Payload, payload) {
			// Flipping a bit and still decoding the identical payload
			// would be a forgery; anything else that slips through
			// must still have failed authentication.
			t.Fatalf("bit flip at %d accepted and payload unchanged", bit)
		}
		if err == nil {
			t.Fatalf("bit flip at %d accepted (payload %q)", bit, got.Payload)
		}
	}
}

func TestStaleTimestampRejected(t *testing.T) {
	w := newWorld(t)
	a, b, _ := endpointPair(t, w, nil)
	sealed, err := a.Seal(transport.Datagram{Source: "alice", Destination: "bob", Payload: []byte("x")}, false)
	if err != nil {
		t.Fatal(err)
	}
	// Replay the datagram after the freshness window has passed.
	w.clock.Advance(21 * time.Minute) // window is 10 min
	_, err = b.Open(sealed)
	if !errors.Is(err, ErrStale) {
		t.Fatalf("err = %v, want ErrStale", err)
	}
	if b.Snapshot().Drops[DropStale] != 1 {
		t.Fatal("stale rejection not counted")
	}
	w.clock.Advance(-21 * time.Minute)
}

func TestFutureTimestampRejected(t *testing.T) {
	w := newWorld(t)
	a, b, _ := endpointPair(t, w, nil)
	// Alice's clock runs 30 minutes ahead: beyond the +-10 min window.
	w.clock.Advance(30 * time.Minute)
	sealed, err := a.Seal(transport.Datagram{Source: "alice", Destination: "bob", Payload: []byte("x")}, false)
	if err != nil {
		t.Fatal(err)
	}
	w.clock.Advance(-30 * time.Minute)
	if _, err := b.Open(sealed); !errors.Is(err, ErrStale) {
		t.Fatalf("err = %v, want ErrStale", err)
	}
}

func TestReplayWithinWindow(t *testing.T) {
	w := newWorld(t)
	// Without the replay cache (the paper's stateless design), an
	// in-window replay is accepted — the documented exposure.
	a, b, _ := endpointPair(t, w, nil)
	sealed, _ := a.Seal(transport.Datagram{Source: "alice", Destination: "bob", Payload: []byte("x")}, false)
	if _, err := b.Open(sealed); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Open(sealed); err != nil {
		t.Fatalf("paper-faithful endpoint rejected in-window replay: %v", err)
	}
	// With the extension enabled, the duplicate is caught.
	a2, b2, _ := endpointPair2(t, w, func(c *Config) { c.EnableReplayCache = true })
	sealed2, _ := a2.Seal(transport.Datagram{Source: "alice2", Destination: "bob2", Payload: []byte("x")}, false)
	if _, err := b2.Open(sealed2); err != nil {
		t.Fatal(err)
	}
	if _, err := b2.Open(sealed2); !errors.Is(err, ErrReplay) {
		t.Fatalf("err = %v, want ErrReplay", err)
	}
	if b2.Snapshot().Drops[DropReplay] != 1 {
		t.Fatal("replay rejection not counted")
	}
}

// TestReplayBudgetSurfacesThroughOpen pins the receive-path contract of
// the refuse-the-newcomer policy: when the state budget leaves no room
// to record a datagram's replay signature, Open drops it under
// ErrReplayBudget/DropReplayBudget — it neither accepts the datagram
// unrecorded (an in-window replay hole) nor displaces a resident
// signature to make room (the same hole, shifted onto the victim).
func TestReplayBudgetSurfacesThroughOpen(t *testing.T) {
	w := newWorld(t)
	a, b, _ := endpointPair(t, w, func(c *Config) {
		c.EnableReplayCache = true
		// Room for keying state (certs, master key, flow key) plus only a
		// handful of replay signatures.
		c.StateBudget = NewBudget(0, 2048)
	})
	seal := func() transport.Datagram {
		sealed, err := a.Seal(transport.Datagram{Source: "alice", Destination: "bob", Payload: []byte("x")}, false)
		if err != nil {
			t.Fatal(err)
		}
		return sealed
	}
	first := seal()
	if _, err := b.Open(first); err != nil {
		t.Fatalf("first open: %v", err)
	}
	var refused error
	for i := 0; i < 64 && refused == nil; i++ {
		if _, err := b.Open(seal()); err != nil {
			refused = err
		}
	}
	if !errors.Is(refused, ErrReplayBudget) {
		t.Fatalf("saturated budget returned %v, want ErrReplayBudget", refused)
	}
	if b.Snapshot().Drops[DropReplayBudget] == 0 {
		t.Error("DropReplayBudget never counted")
	}
	if b.Snapshot().Replay.Refusals == 0 {
		t.Error("replay cache reports no refusals")
	}
	// The resident entry survived the pressure: replaying the first
	// (accepted) datagram is still detected as a duplicate.
	if _, err := b.Open(first); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay of accepted datagram returned %v, want ErrReplay", err)
	}
}

// endpointPair2 is endpointPair with distinct principal names, for tests
// needing two independent pairs in one world.
func endpointPair2(t testing.TB, w *testWorld, mutate func(*Config)) (*Endpoint, *Endpoint, *transport.Network) {
	t.Helper()
	net := transport.NewNetwork(transport.Impairments{})
	mk := func(addr principal.Address) *Endpoint {
		tr, err := net.Attach(addr, 1024)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Identity:  w.principal(t, addr),
			Transport: tr,
			Directory: w.dir,
			Verifier:  w.ver,
			Clock:     w.clock,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		ep, err := NewEndpoint(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	return mk("alice2"), mk("bob2"), net
}

func TestWrongDestinationRejected(t *testing.T) {
	w := newWorld(t)
	a, b, _ := endpointPair(t, w, nil)
	sealed, _ := a.Seal(transport.Datagram{Source: "alice", Destination: "bob", Payload: []byte("x")}, false)
	sealed.Destination = "mallory"
	if _, err := b.Open(sealed); !errors.Is(err, ErrNotForUs) {
		t.Fatalf("err = %v, want ErrNotForUs", err)
	}
}

func TestMalformedRejected(t *testing.T) {
	w := newWorld(t)
	_, b, _ := endpointPair(t, w, nil)
	_, err := b.Open(transport.Datagram{Source: "alice", Destination: "bob", Payload: []byte("short")})
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

// A datagram cut from one flow and pasted into another must fail: the MAC
// keys differ per flow. This is the cut-and-paste attack of Section 2.2
// that plain host-pair keying suffers from.
func TestCutAndPasteAcrossFlowsRejected(t *testing.T) {
	w := newWorld(t)
	selector := func(dg transport.Datagram) FlowID {
		// Flow per first payload byte: crude stand-in for per-port flows.
		id := DefaultSelector(dg)
		if len(dg.Payload) > 0 {
			id.Aux = uint64(dg.Payload[0])
		}
		return id
	}
	a, b, _ := endpointPair(t, w, func(c *Config) { c.Selector = selector })
	s1, err := a.Seal(transport.Datagram{Source: "alice", Destination: "bob", Payload: []byte("1-flow-one-secret")}, true)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := a.Seal(transport.Datagram{Source: "alice", Destination: "bob", Payload: []byte("2-flow-two-secret")}, true)
	if err != nil {
		t.Fatal(err)
	}
	// Graft flow 1's encrypted body onto flow 2's header.
	var h1, h2 Header
	h1.Decode(s1.Payload)
	h2.Decode(s2.Payload)
	if h1.SFL == h2.SFL {
		t.Fatal("selector failed to split flows")
	}
	franken := s2.Clone()
	franken.Payload = append(franken.Payload[:HeaderSize], s1.Payload[HeaderSize:]...)
	if _, err := b.Open(franken); err == nil {
		t.Fatal("cut-and-paste across flows accepted")
	}
}

// Compromise of one flow key must not expose other flows: keys for
// different sfls are unrelated (Section 6.1).
func TestFlowKeyIsolation(t *testing.T) {
	var master [16]byte
	copy(master[:], "master-key-bytes")
	k1 := FlowKey(cryptolib.HashMD5, 100, master, "s", "d")
	k2 := FlowKey(cryptolib.HashMD5, 101, master, "s", "d")
	if k1 == k2 {
		t.Fatal("adjacent sfls produced equal flow keys")
	}
	// Hamming distance should be substantial (avalanche).
	diff := 0
	for i := range k1 {
		x := k1[i] ^ k2[i]
		for x != 0 {
			diff += int(x & 1)
			x >>= 1
		}
	}
	if diff < 32 {
		t.Fatalf("only %d differing bits between adjacent flow keys", diff)
	}
}

func TestKeyCachingAcrossDatagrams(t *testing.T) {
	w := newWorld(t)
	a, b, _ := endpointPair(t, w, nil)
	const n = 50
	for i := 0; i < n; i++ {
		if err := a.SendTo("bob", []byte("burst"), true); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Receive(); err != nil {
			t.Fatal(err)
		}
	}
	// One flow: one TFKC miss then hits; one upcall; one exponentiation.
	if s := a.Snapshot().Caches[CacheTFKC].Stats; s.Misses != 1 || s.Hits != n-1 {
		t.Fatalf("TFKC stats = %+v", s)
	}
	if s := b.Snapshot().Caches[CacheRFKC].Stats; s.Misses != 1 || s.Hits != n-1 {
		t.Fatalf("RFKC stats = %+v", s)
	}
	ksStats := a.Snapshot().Keying
	if ksStats.MasterKeyComputes != 1 {
		t.Fatalf("MasterKeyComputes = %d, want 1", ksStats.MasterKeyComputes)
	}
}

func TestRekeyViaNewFlow(t *testing.T) {
	// Changing the sfl rekeys the flow (Section 5.2's rekeying story):
	// after the threshold expires a flow, the new flow's traffic uses a
	// different key.
	w := newWorld(t)
	a, _, _ := endpointPair(t, w, func(c *Config) {
		c.Policy = ThresholdPolicy{Threshold: time.Minute}
	})
	s1, _ := a.Seal(transport.Datagram{Source: "alice", Destination: "bob", Payload: []byte("x")}, false)
	w.clock.Advance(2 * time.Minute)
	s2, _ := a.Seal(transport.Datagram{Source: "alice", Destination: "bob", Payload: []byte("x")}, false)
	w.clock.Advance(-2 * time.Minute)
	var h1, h2 Header
	h1.Decode(s1.Payload)
	h2.Decode(s2.Payload)
	if h1.SFL == h2.SFL {
		t.Fatal("flow not rekeyed after threshold expiry")
	}
}

func TestBypass(t *testing.T) {
	w := newWorld(t)
	a, b, _ := endpointPair(t, w, func(c *Config) {
		c.Bypass = func(p principal.Address) bool { return p == "ca-server" }
	})
	// Traffic to the bypass peer is not FBS-processed.
	dg := transport.Datagram{Source: "alice", Destination: "ca-server", Payload: []byte("cert request")}
	sealed, err := a.Seal(dg, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sealed.Payload, dg.Payload) {
		t.Fatal("bypass traffic was modified")
	}
	if a.Snapshot().BypassedSent != 1 {
		t.Fatal("bypass not counted")
	}
	// Receive side: traffic from the bypass peer passes through raw.
	in := transport.Datagram{Source: "ca-server", Destination: "bob", Payload: []byte("cert reply")}
	got, err := b.Open(in)
	if err != nil || !bytes.Equal(got.Payload, in.Payload) {
		t.Fatalf("bypass receive failed: %v", err)
	}
}

func TestNewEndpointValidation(t *testing.T) {
	w := newWorld(t)
	tr, _, _, _ := transport.Pair("x", "y")
	if _, err := NewEndpoint(Config{Transport: tr, Verifier: w.ver}); err == nil {
		t.Error("missing identity accepted")
	}
	if _, err := NewEndpoint(Config{Identity: w.principal(t, "x"), Verifier: w.ver}); err == nil {
		t.Error("missing transport accepted")
	}
	if _, err := NewEndpoint(Config{Identity: w.principal(t, "x"), Transport: tr}); err == nil {
		t.Error("missing verifier accepted")
	}
}

func TestReceiveSkipsGarbage(t *testing.T) {
	w := newWorld(t)
	a, b, net := endpointPair(t, w, nil)
	// Inject garbage, then a valid datagram.
	garbage, _ := net.Attach("mallory", 16)
	garbage.Send(transport.Datagram{Destination: "bob", Payload: []byte("junk")})
	if err := a.SendTo("bob", []byte("real"), true); err != nil {
		t.Fatal(err)
	}
	got, err := b.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, []byte("real")) {
		t.Fatalf("got %q", got.Payload)
	}
	if b.Snapshot().Drops[DropMalformed] != 1 {
		t.Fatal("garbage not counted")
	}
}

// TestReceiveSkipsRefusals: Receive counts a refused datagram and
// returns the next one that passes every check.
func TestReceiveSkipsRefusals(t *testing.T) {
	w := newWorld(t)
	a, b, net := endpointPair(t, w, nil)
	sealed, err := a.Seal(transport.Datagram{Destination: "bob", Payload: []byte("tampered")}, false)
	if err != nil {
		t.Fatal(err)
	}
	sealed.Payload[len(sealed.Payload)-1] ^= 1
	mallory, _ := net.Attach("mallory", 16)
	if err := mallory.Send(sealed); err != nil {
		t.Fatal(err)
	}
	if err := a.SendTo("bob", []byte("good"), false); err != nil {
		t.Fatal(err)
	}
	got, err := b.Receive()
	if err != nil || string(got.Payload) != "good" {
		t.Fatalf("Receive = %q, %v; want \"good\"", got.Payload, err)
	}
	if n := b.Snapshot().Drops[DropBadMAC]; n != 1 {
		t.Fatalf("Drops[DropBadMAC] = %d, want 1", n)
	}
}

// errTransport fails every Receive with err.
type errTransport struct{ err error }

func (errTransport) Send(transport.Datagram) error          { return nil }
func (t errTransport) Receive() (transport.Datagram, error) { return transport.Datagram{}, t.err }
func (errTransport) Close() error                           { return nil }

// TestReceiveReturnsTransportErrors: a transport error that is not
// ErrClosed (a UDP errno, say) ends Receive instead of being retried.
func TestReceiveReturnsTransportErrors(t *testing.T) {
	w := newWorld(t)
	boom := errors.New("recvmsg: connection refused")
	ep, err := NewEndpoint(Config{
		Identity: w.principal(t, "errs"), Transport: errTransport{boom},
		Directory: w.dir, Verifier: w.ver, Clock: w.clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	done := make(chan error, 1)
	go func() {
		_, err := ep.Receive()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("Receive = %v, want %v", err, boom)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Receive did not return the transport's error within 2 s")
	}
}

func TestEndpointDuplexUsesTwoFlows(t *testing.T) {
	// Flows are unidirectional (Section 5.2): a duplex exchange uses one
	// flow in each direction with distinct sfls.
	w := newWorld(t)
	a, b, _ := endpointPair(t, w, nil)
	sAB, err := a.Seal(transport.Datagram{Source: "alice", Destination: "bob", Payload: []byte("ping")}, false)
	if err != nil {
		t.Fatal(err)
	}
	sBA, err := b.Seal(transport.Datagram{Source: "bob", Destination: "alice", Payload: []byte("pong")}, false)
	if err != nil {
		t.Fatal(err)
	}
	var hAB, hBA Header
	hAB.Decode(sAB.Payload)
	hBA.Decode(sBA.Payload)
	if hAB.SFL == hBA.SFL {
		t.Fatal("the two directions shared an sfl")
	}
}

// TestOpenAliasesInput pins Open's zero-copy contract (the Section 5.3
// data-touching concern): an accepted cleartext body is not copied — it
// is the tail of the datagram the caller handed in, whether or not a
// pre-filter echo envelope had to be stripped from the front — and
// getting there allocates nothing, the envelope's cookie check included.
func TestOpenAliasesInput(t *testing.T) {
	w := newWorld(t)
	a, b, _ := endpointPair(t, w, func(c *Config) {
		c.Cipher = CipherAES128GCM
		c.Prefilter = PrefilterConfig{Enable: true, SecretSeed: []byte("alias-seed")}
	})
	want := []byte("cleartext body, authenticated in place")
	sealed, err := a.Seal(transport.Datagram{Source: "alice", Destination: "bob", Payload: want}, false)
	if err != nil {
		t.Fatal(err)
	}
	echo := appendCookieFrame(nil, CookieKindEcho, b.pf.mint("alice", w.clock.Now()))
	for name, wire := range map[string][]byte{
		"bare":      sealed.Payload,
		"enveloped": append(echo, sealed.Payload...),
	} {
		dg := transport.Datagram{Source: "alice", Destination: "bob", Payload: wire}
		var got transport.Datagram
		allocs := testing.AllocsPerRun(100, func() {
			if got, err = b.Open(dg); err != nil {
				t.Fatal(err)
			}
		})
		if !bytes.Equal(got.Payload, want) {
			t.Fatalf("%s: body = %q", name, got.Payload)
		}
		tail := wire[len(wire)-len(want):]
		if &got.Payload[0] != &tail[0] {
			t.Errorf("%s: accepted cleartext body was copied out of the input", name)
		}
		if allocs != 0 {
			t.Errorf("%s: Open allocates %v times per cleartext datagram, want 0", name, allocs)
		}
	}
	if got := b.Snapshot().Prefilter.EchoAccepted; got == 0 {
		t.Error("the enveloped datagram never reached the cookie check")
	}
}
