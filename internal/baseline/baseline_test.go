package baseline

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"fbs/internal/cert"
	"fbs/internal/core"
	"fbs/internal/cryptolib"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

type world struct {
	ca  *cert.Authority
	dir *cert.StaticDirectory
	ver *cert.Verifier
	clk *core.SimClock
}

var (
	blCAOnce sync.Once
	blCA     *cert.Authority
)

func newWorld(t testing.TB) *world {
	t.Helper()
	blCAOnce.Do(func() {
		ca, err := cert.NewAuthority("bl-root", 512)
		if err != nil {
			t.Fatal(err)
		}
		blCA = ca
	})
	return &world{
		ca:  blCA,
		dir: cert.NewStaticDirectory(),
		ver: &cert.Verifier{CAKey: blCA.PublicKey(), CA: "bl-root"},
		clk: core.NewSimClock(time.Date(2026, 7, 4, 10, 0, 0, 0, time.UTC)),
	}
}

func (w *world) keyService(t testing.TB, addr principal.Address) *core.KeyService {
	t.Helper()
	id, err := principal.NewIdentity(addr, cryptolib.TestGroup)
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.ca.Issue(id, w.clk.Now().Add(-time.Hour), w.clk.Now().Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	w.dir.Publish(c)
	return core.NewKeyService(id, w.dir, w.ver, w.clk, core.KeyServiceConfig{})
}

func roundTrip(t *testing.T, a, b Sealer, secret bool) {
	t.Helper()
	want := []byte("baseline round trip payload with some length to it")
	dg := transport.Datagram{Source: "a", Destination: "b", Payload: want}
	sealed, err := a.Seal(dg, secret)
	if err != nil {
		t.Fatalf("%s: seal: %v", a.Name(), err)
	}
	if secret && bytes.Contains(sealed.Payload, want) {
		t.Fatalf("%s: secret payload visible on wire", a.Name())
	}
	got, err := b.Open(sealed)
	if err != nil {
		t.Fatalf("%s: open: %v", a.Name(), err)
	}
	if !bytes.Equal(got.Payload, want) {
		t.Fatalf("%s: payload mismatch", a.Name())
	}
	// Corruption must be rejected (except GENERIC, which has no
	// protection by construction).
	if _, isGeneric := a.(Generic); !isGeneric {
		bad := sealed.Clone()
		bad.Payload[len(bad.Payload)/2] ^= 0x10
		if _, err := b.Open(bad); err == nil {
			t.Fatalf("%s: corrupted datagram accepted", a.Name())
		}
	}
}

func TestGenericPassThrough(t *testing.T) {
	roundTrip(t, Generic{}, Generic{}, false)
	if (Generic{}).Name() != "GENERIC" {
		t.Fatal("wrong name")
	}
}

func TestHostPairRoundTrip(t *testing.T) {
	w := newWorld(t)
	a := NewHostPair(w.keyService(t, "a"), w.clk)
	b := NewHostPair(w.keyService(t, "b"), w.clk)
	roundTrip(t, a, b, true)
	roundTrip(t, a, b, false)
}

func TestHostPairStale(t *testing.T) {
	w := newWorld(t)
	a := NewHostPair(w.keyService(t, "a"), w.clk)
	b := NewHostPair(w.keyService(t, "b"), w.clk)
	sealed, _ := a.Seal(transport.Datagram{Source: "a", Destination: "b", Payload: []byte("x")}, false)
	w.clk.Advance(30 * time.Minute)
	if _, err := b.Open(sealed); !errors.Is(err, core.ErrStale) {
		t.Fatalf("err = %v, want ErrStale", err)
	}
}

// TestHostPairCutAndPaste demonstrates the Section 2.2 attack: because
// every datagram between a host pair is protected under one key, an
// attacker can splice the header of one datagram onto the (encrypted)
// body of another and the result still verifies... for schemes that MAC
// ciphertext. Our host-pair scheme MACs plaintext, so splicing is caught
// — but REPLAYING an old datagram wholesale into a different application
// context succeeds, which is the practical form of the attack. The
// comparison point: under FBS the replayed datagram would only ever
// decrypt within its own flow.
func TestHostPairReplayAcrossContexts(t *testing.T) {
	w := newWorld(t)
	a := NewHostPair(w.keyService(t, "a"), w.clk)
	b := NewHostPair(w.keyService(t, "b"), w.clk)
	// "Context one": a sends a secret to b's application 1.
	sealed, _ := a.Seal(transport.Datagram{Source: "a", Destination: "b", Payload: []byte("for app 1 only")}, true)
	// The attacker records it and replays it unchanged; b decrypts it
	// happily — host-pair keying has no notion of flow to scope it to.
	got, err := b.Open(sealed)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := b.Open(sealed)
	if err != nil {
		t.Fatalf("host-pair: replay rejected (unexpectedly strong): %v", err)
	}
	if !bytes.Equal(got.Payload, got2.Payload) {
		t.Fatal("replay decrypted differently")
	}
}

func TestSKIPRoundTrip(t *testing.T) {
	w := newWorld(t)
	a, err := NewSKIP(w.keyService(t, "a"), w.clk, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSKIP(w.keyService(t, "b"), w.clk, nil)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, a, b, true)
	roundTrip(t, a, b, false)
	if a.Stats().KeyGenerations < 2 {
		t.Fatal("per-datagram keys not counted")
	}
}

func TestSKIPPerDatagramKeysDiffer(t *testing.T) {
	w := newWorld(t)
	a, _ := NewSKIP(w.keyService(t, "a"), w.clk, nil)
	w.keyService(t, "b") // publish b's certificate
	dg := transport.Datagram{Source: "a", Destination: "b", Payload: []byte("same payload")}
	s1, err := a.Seal(dg, true)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := a.Seal(dg, true)
	if err != nil {
		t.Fatal(err)
	}
	// Wrapped keys (bytes 9:25) must differ between datagrams.
	if bytes.Equal(s1.Payload[9:25], s2.Payload[9:25]) {
		t.Fatal("two datagrams carried the same wrapped key")
	}
}

func TestSKIPWrapUnwrap(t *testing.T) {
	var master, kp [16]byte
	copy(master[:], "master-key-0123!")
	copy(kp[:], "per-datagram-key")
	wrapped, err := wrapKey(master, kp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := unwrapKey(master, wrapped[:])
	if err != nil {
		t.Fatal(err)
	}
	if back != kp {
		t.Fatal("wrap/unwrap mismatch")
	}
	if wrapped == kp {
		t.Fatal("wrapping is the identity")
	}
}

func TestSessionRequiresHandshake(t *testing.T) {
	a := NewSession("a", cryptolib.TestGroup, nil)
	if _, err := a.Seal(transport.Datagram{Source: "a", Destination: "b", Payload: []byte("x")}, false); err == nil {
		t.Fatal("seal without handshake succeeded — datagram semantics would be preserved, which session keying cannot do")
	}
}

func TestSessionRoundTrip(t *testing.T) {
	a := NewSession("a", cryptolib.TestGroup, nil)
	b := NewSession("b", cryptolib.TestGroup, nil)
	if err := a.Handshake(b); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, a, b, true)
	roundTrip(t, a, b, false)
	if a.Stats().SetupMessages != 1 || b.Stats().SetupMessages != 1 {
		t.Fatalf("setup messages: a=%d b=%d", a.Stats().SetupMessages, b.Stats().SetupMessages)
	}
}

func TestSessionSequenceReplay(t *testing.T) {
	a := NewSession("a", cryptolib.TestGroup, nil)
	b := NewSession("b", cryptolib.TestGroup, nil)
	if err := a.Handshake(b); err != nil {
		t.Fatal(err)
	}
	dg := transport.Datagram{Source: "a", Destination: "b", Payload: []byte("once")}
	sealed, _ := a.Seal(dg, true)
	if _, err := b.Open(sealed); err != nil {
		t.Fatal(err)
	}
	// Hard state buys exact replay protection — the paper's trade-off.
	if _, err := b.Open(sealed); !errors.Is(err, core.ErrReplay) {
		t.Fatalf("replay: err = %v, want ErrReplay", err)
	}
	// Out-of-order but fresh datagrams still pass.
	s1, _ := a.Seal(dg, true)
	s2, _ := a.Seal(dg, true)
	if _, err := b.Open(s2); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Open(s1); err != nil {
		t.Fatalf("out-of-order rejected: %v", err)
	}
}

// crash discards all of s's session state. Subsequent Seals fail until a
// new handshake — the "hard state" failure mode FBS avoids.
func crash(s *Session) {
	s.sendSess = make(map[principal.Address]*sessionState)
	s.recvSess = make(map[uint64]*sessionState)
}

func TestSessionDropStateBreaksTraffic(t *testing.T) {
	a := NewSession("a", cryptolib.TestGroup, nil)
	b := NewSession("b", cryptolib.TestGroup, nil)
	a.Handshake(b)
	sealed, _ := a.Seal(transport.Datagram{Source: "a", Destination: "b", Payload: []byte("x")}, false)
	crash(b)
	if _, err := b.Open(sealed); err == nil {
		t.Fatal("datagram opened after state loss — hard state would be soft")
	}
	if _, err := a.Seal(transport.Datagram{Source: "a", Destination: "b", Payload: []byte("y")}, false); err != nil {
		t.Fatal("sender state should survive (only receiver dropped)")
	}
	crash(a)
	if _, err := a.Seal(transport.Datagram{Source: "a", Destination: "b", Payload: []byte("y")}, false); err == nil {
		t.Fatal("seal succeeded after sender state loss")
	}
}
