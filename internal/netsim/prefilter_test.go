package netsim

import (
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

// capTransport captures everything an endpoint sends so a test can
// direct-drive the wire: deliver, lose, corrupt or replay each frame by
// hand. Receive is never used — datagrams are injected with Open.
type capTransport struct {
	mu   sync.Mutex
	sent []transport.Datagram
}

func (c *capTransport) Send(dg transport.Datagram) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sent = append(c.sent, dg.Clone())
	return nil
}

func (c *capTransport) Receive() (transport.Datagram, error) {
	return transport.Datagram{}, transport.ErrClosed
}

func (c *capTransport) Close() error { return nil }

// take drains the capture buffer.
func (c *capTransport) take() []transport.Datagram {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.sent
	c.sent = nil
	return out
}

// takeOne drains the buffer and requires exactly one captured frame.
func (c *capTransport) takeOne(t *testing.T, what string) transport.Datagram {
	t.Helper()
	frames := c.take()
	if len(frames) != 1 {
		t.Fatalf("%s: captured %d frames, want 1", what, len(frames))
	}
	return frames[0]
}

// pfWorld is the certificate universe for the direct-drive tests.
type pfWorld struct {
	dir   *cert.StaticDirectory
	ver   *cert.Verifier
	clock *core.SimClock
	ids   map[principal.Address]*principal.Identity
}

func newPFWorld(t *testing.T, addrs ...principal.Address) *pfWorld {
	t.Helper()
	ca, err := cert.NewAuthority("pf-root", 512)
	if err != nil {
		t.Fatal(err)
	}
	w := &pfWorld{
		dir:   cert.NewStaticDirectory(),
		ver:   &cert.Verifier{CAKey: ca.PublicKey(), CA: "pf-root"},
		clock: core.NewSimClock(time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC)),
		ids:   make(map[principal.Address]*principal.Identity),
	}
	for _, addr := range addrs {
		id, err := principal.NewIdentity(addr, cryptolib.TestGroup)
		if err != nil {
			t.Fatal(err)
		}
		c, err := ca.Issue(id, w.clock.Now().Add(-time.Hour), w.clock.Now().Add(24*time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		w.dir.Publish(c)
		w.ids[addr] = id
	}
	return w
}

func (w *pfWorld) endpoint(t *testing.T, addr principal.Address, tr transport.Transport, mutate func(*core.Config)) *core.Endpoint {
	t.Helper()
	cfg := core.Config{
		Identity:  w.ids[addr],
		Transport: tr,
		Directory: w.dir,
		Verifier:  w.ver,
		Clock:     w.clock,
		MAC:       cryptolib.MACPrefixMD5,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	ep, err := core.NewEndpoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	return ep
}

// TestPrefilterCookieChaos walks the cookie handshake through every
// chaos case in one scripted exchange: a lost challenge, a corrupted
// challenge whose bad cookie the sender then echoes, the rate-capped
// re-challenge that heals it, the successful echo, a replayed echo, and
// an echo replayed from the wrong source address. The sender never
// inspects cookie contents (they are opaque), so the corruption case
// proves the receiver — not sender-side vigilance — is what rejects a
// damaged cookie, and the re-challenge is what keeps that sender from
// echoing it forever.
func TestPrefilterCookieChaos(t *testing.T) {
	const (
		aliceAddr principal.Address = "pf-alice"
		bobAddr   principal.Address = "pf-bob"
		eveAddr   principal.Address = "pf-eve"
	)
	w := newPFWorld(t, aliceAddr, bobAddr, eveAddr)
	aliceTr, bobTr := &capTransport{}, &capTransport{}
	alice := w.endpoint(t, aliceAddr, aliceTr, func(c *core.Config) {
		c.Prefilter = core.PrefilterConfig{Enable: true}
	})
	bob := w.endpoint(t, bobAddr, bobTr, func(c *core.Config) {
		c.EnableReplayCache = true
		c.Prefilter = core.PrefilterConfig{
			Enable:     true,
			ForceLevel: core.PrefilterChallenge,
			SecretSeed: []byte("chaos-cookie-secret"),
		}
	})
	payload := []byte("payload-under-challenge")
	send := func(what string) transport.Datagram {
		t.Helper()
		if err := alice.SendTo(bobAddr, payload, false); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return aliceTr.takeOne(t, what)
	}

	// First contact: refused with a challenge. The challenge is LOST.
	w1 := send("first contact")
	if _, err := bob.Open(w1); !errors.Is(err, core.ErrChallenged) {
		t.Fatalf("first contact: err = %v, want ErrChallenged", err)
	}
	bobTr.takeOne(t, "challenge #1") // dropped on the floor

	// Retry: challenged again (the sender learned nothing). This
	// challenge arrives CORRUPTED — one MAC bit flipped in flight.
	w2 := send("retry after loss")
	if _, err := bob.Open(w2); !errors.Is(err, core.ErrChallenged) {
		t.Fatalf("retry: err = %v, want ErrChallenged", err)
	}
	c2 := bobTr.takeOne(t, "challenge #2")
	c2.Payload[core.CookieFrameLen-1] ^= 0x01
	if _, err := alice.Open(c2); !errors.Is(err, core.ErrChallengeAbsorbed) {
		t.Fatalf("corrupted challenge: err = %v, want ErrChallengeAbsorbed", err)
	}

	// The sender, holding a corrupted cookie it cannot detect, echoes
	// it. The receiver rejects the echo AND re-challenges, so the
	// sender can heal instead of echoing garbage forever.
	w3 := send("echo of corrupted cookie")
	if w3.Payload[0] != core.CookieMagic || w3.Payload[1] != core.CookieKindEcho {
		t.Fatal("retry after absorbing a challenge was not echo-wrapped")
	}
	if _, err := bob.Open(w3); !errors.Is(err, core.ErrBadCookie) {
		t.Fatalf("corrupted echo: err = %v, want ErrBadCookie", err)
	}
	c3 := bobTr.takeOne(t, "re-challenge")
	if c3.Payload[1] != core.CookieKindChallenge {
		t.Fatal("bad echo did not provoke a fresh challenge")
	}
	if _, err := alice.Open(c3); !errors.Is(err, core.ErrChallengeAbsorbed) {
		t.Fatal("re-challenge not absorbed")
	}

	// The healed echo is accepted; everything downstream (keying, MAC,
	// replay recording) ran on the unwrapped datagram.
	w4 := send("healed echo")
	got, err := bob.Open(w4)
	if err != nil {
		t.Fatalf("healed echo refused: %v", err)
	}
	if string(got.Payload) != string(payload) {
		t.Fatalf("recovered payload %q", got.Payload)
	}
	bobTr.take() // keying emitted nothing, but stay drained

	// REPLAY: the same echo again. A valid cookie proves return
	// routability, not freshness — the replay cache still fires.
	if _, err := bob.Open(w4.Clone()); !errors.Is(err, core.ErrReplay) {
		t.Fatalf("replayed echo: err = %v, want ErrReplay", err)
	}

	// WRONG SOURCE: the cookie binds the challenged address, so the
	// same wire bytes claimed by another source are refused.
	stolen := w4.Clone()
	stolen.Source = eveAddr
	if _, err := bob.Open(stolen); !errors.Is(err, core.ErrBadCookie) {
		t.Fatalf("stolen echo: err = %v, want ErrBadCookie", err)
	}

	ps := bob.Snapshot().Prefilter
	if ps.Challenged != 4 { // two first-contact, two bad-echo re-challenges
		t.Errorf("Challenged = %d, want 4", ps.Challenged)
	}
	if ps.EchoAccepted != 2 { // the healed echo and its replay
		t.Errorf("EchoAccepted = %d, want 2", ps.EchoAccepted)
	}
	if ps.EchoRejected != 2 { // corrupted cookie, stolen echo
		t.Errorf("EchoRejected = %d, want 2", ps.EchoRejected)
	}
	if ps.HeaderParses != 2 { // only the healed echo and its replay got parsed
		t.Errorf("HeaderParses = %d, want 2", ps.HeaderParses)
	}
	drops := bob.Snapshot().Drops
	if drops[core.DropChallenged] != 2 || drops[core.DropBadCookie] != 2 || drops[core.DropReplay] != 1 {
		t.Errorf("drops: challenged=%d badcookie=%d replay=%d",
			drops[core.DropChallenged], drops[core.DropBadCookie], drops[core.DropReplay])
	}
	as := alice.Snapshot().Prefilter
	if as.CookiesLearned != 2 || as.CookiesAttached != 2 {
		t.Errorf("sender jar: learned=%d attached=%d, want 2/2", as.CookiesLearned, as.CookiesAttached)
	}
}

// TestPrefilterCrashRestartSecretResume proves the cookie secret is as
// stateless as the rest of the soft state: a receiver restarted from
// the same SecretSeed re-derives the rotating secret chain and honours
// cookies it minted before the crash — the returning sender is not even
// re-challenged. A restart under a different seed refuses the stale
// cookie but heals through a fresh challenge, which is the safe failure
// mode.
func TestPrefilterCrashRestartSecretResume(t *testing.T) {
	const (
		aliceAddr principal.Address = "pf-alice"
		bobAddr   principal.Address = "pf-bob"
	)
	seed := []byte("pf-restart-secret")
	w := newPFWorld(t, aliceAddr, bobAddr)
	aliceTr := &capTransport{}
	alice := w.endpoint(t, aliceAddr, aliceTr, func(c *core.Config) {
		c.Prefilter = core.PrefilterConfig{Enable: true}
	})
	newBob := func(secretSeed []byte) (*core.Endpoint, *capTransport) {
		tr := &capTransport{}
		return w.endpoint(t, bobAddr, tr, func(c *core.Config) {
			c.Prefilter = core.PrefilterConfig{
				Enable:     true,
				ForceLevel: core.PrefilterChallenge,
				SecretSeed: secretSeed,
			}
		}), tr
	}
	send := func(what string) transport.Datagram {
		t.Helper()
		if err := alice.SendTo(bobAddr, []byte("restart-payload"), false); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return aliceTr.takeOne(t, what)
	}

	// Incarnation one: challenge, echo, accept.
	bob1, bob1Tr := newBob(seed)
	if _, err := bob1.Open(send("first contact")); !errors.Is(err, core.ErrChallenged) {
		t.Fatalf("first contact: %v", err)
	}
	if _, err := alice.Open(bob1Tr.takeOne(t, "challenge")); !errors.Is(err, core.ErrChallengeAbsorbed) {
		t.Fatal("challenge not absorbed")
	}
	if _, err := bob1.Open(send("echo")); err != nil {
		t.Fatalf("pre-crash echo refused: %v", err)
	}

	// The crash: everything bob1 knew dies with it. The clock moves,
	// but stays inside the cookie TTL and the epoch acceptance window.
	bob1.Close()
	w.clock.Advance(10 * time.Second)

	// Incarnation two, same seed: the sender's jarred cookie verifies
	// against the re-derived secret. No re-challenge, fresh keying.
	bob2, bob2Tr := newBob(seed)
	if _, err := bob2.Open(send("post-restart echo")); err != nil {
		t.Fatalf("restarted receiver refused a pre-crash cookie: %v", err)
	}
	if frames := bob2Tr.take(); len(frames) != 0 {
		t.Fatalf("restarted receiver emitted %d frames; the returning sender should not be re-challenged", len(frames))
	}
	ps := bob2.Snapshot().Prefilter
	if ps.EchoAccepted != 1 || ps.Challenged != 0 {
		t.Fatalf("restart stats: echo accepted=%d challenged=%d", ps.EchoAccepted, ps.Challenged)
	}
	ks := bob2.Snapshot().Keying
	if ks.MasterKeyComputes != 1 {
		t.Fatalf("restarted receiver computed %d master keys, want 1 (cold caches, fresh DH)", ks.MasterKeyComputes)
	}

	// Incarnation three, different seed: the pre-crash cookie no longer
	// verifies, and the refusal comes with a fresh challenge — the safe
	// failure mode, one extra round trip.
	bob3, bob3Tr := newBob([]byte("some-other-secret"))
	if _, err := bob3.Open(send("echo at wrong-seed restart")); !errors.Is(err, core.ErrBadCookie) {
		t.Fatalf("wrong-seed restart: err = %v, want ErrBadCookie", err)
	}
	rc := bob3Tr.takeOne(t, "re-challenge")
	if rc.Payload[1] != core.CookieKindChallenge {
		t.Fatal("wrong-seed restart did not re-challenge")
	}
	if _, err := alice.Open(rc); !errors.Is(err, core.ErrChallengeAbsorbed) {
		t.Fatal("re-challenge not absorbed")
	}
	if _, err := bob3.Open(send("healed echo")); err != nil {
		t.Fatalf("healed echo after wrong-seed restart refused: %v", err)
	}
}
