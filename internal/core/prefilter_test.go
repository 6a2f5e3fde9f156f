package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"fbs/internal/dudect"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// pfEpoch starts on an exact epoch boundary (Unix time divisible by the
// 64 s epoch) so the rollover tests can position themselves
// just before and after a secret rotation.
var pfEpoch = time.Unix(1_767_225_600, 0).UTC()

func newTestPrefilter(t testing.TB, cfg PrefilterConfig) *prefilter {
	t.Helper()
	p, err := newPrefilter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCookieFrameRoundTrip(t *testing.T) {
	ck := cookie{epoch: 0xDEADBEEF, stamp: 0x12345678}
	for i := range ck.mac {
		ck.mac[i] = byte(0xA0 + i)
	}
	for _, kind := range []byte{CookieKindChallenge, CookieKindEcho} {
		frame := appendCookieFrame(nil, kind, ck)
		if len(frame) != CookieFrameLen {
			t.Fatalf("frame length = %d, want %d", len(frame), CookieFrameLen)
		}
		gotKind, got, ok := parseCookieFrame(frame)
		if !ok || gotKind != kind || got != ck {
			t.Fatalf("round trip: ok=%v kind=%#x cookie=%+v", ok, gotKind, got)
		}
		// An echo envelope is the frame plus a sealed datagram; the parse
		// must ignore the trailing bytes.
		if _, got, ok := parseCookieFrame(append(append([]byte{}, frame...), "sealed"...)); !ok || got != ck {
			t.Fatal("frame with trailing datagram did not parse")
		}
	}
	frame := appendCookieFrame(nil, CookieKindChallenge, ck)
	for n := 0; n < CookieFrameLen; n++ {
		if _, _, ok := parseCookieFrame(frame[:n]); ok {
			t.Fatalf("truncated frame of %d bytes parsed", n)
		}
	}
	for _, tc := range []struct {
		name string
		at   int
		v    byte
	}{
		{"bad magic", 0, 0x00},
		{"bad kind", 1, 0x55},
		{"bad version", 2, CookieVersion + 1},
	} {
		bad := append([]byte{}, frame...)
		bad[tc.at] = tc.v
		if _, _, ok := parseCookieFrame(bad); ok {
			t.Errorf("%s parsed", tc.name)
		}
	}
}

func TestCookieVerify(t *testing.T) {
	p := newTestPrefilter(t, PrefilterConfig{Enable: true, SecretSeed: []byte("verify-seed")})
	const addr principal.Address = "cookie-peer"
	now := pfEpoch.Add(63 * time.Second) // one second before rotation

	ck := p.mint(addr, now)
	if !p.verifyCookie(addr, ck, now) {
		t.Fatal("freshly minted cookie rejected")
	}
	// Epoch rollover: one epoch later the cookie still verifies under
	// the previous secret; two epochs later it does not.
	if !p.verifyCookie(addr, ck, now.Add(2*time.Second)) {
		t.Error("cookie rejected immediately after epoch rotation")
	}
	if p.verifyCookie(addr, ck, now.Add(66*time.Second)) {
		t.Error("cookie survived two epoch rotations")
	}
	// Tampering and address binding.
	bent := ck
	bent.mac[5] ^= 0x40
	if p.verifyCookie(addr, bent, now) {
		t.Error("tampered MAC verified")
	}
	if p.verifyCookie("someone-else", ck, now) {
		t.Error("cookie verified for an address it does not bind")
	}
}

// TestCookieSecretDeterminism is the crash-restart property at the unit
// level: a prefilter rebuilt from the same seed re-derives the same
// rotating secret and honours cookies minted before the crash; a
// different (or absent) seed does not.
func TestCookieSecretDeterminism(t *testing.T) {
	seed := []byte("restart-seed")
	p1 := newTestPrefilter(t, PrefilterConfig{Enable: true, SecretSeed: seed})
	p2 := newTestPrefilter(t, PrefilterConfig{Enable: true, SecretSeed: seed})
	const addr principal.Address = "survivor"
	now := pfEpoch.Add(10 * time.Second)

	ck := p1.mint(addr, now)
	if p2.mint(addr, now) != ck {
		t.Fatal("same seed minted different cookies")
	}
	if !p2.verifyCookie(addr, ck, now) {
		t.Fatal("restarted prefilter rejected its predecessor's cookie")
	}
	other := newTestPrefilter(t, PrefilterConfig{Enable: true, SecretSeed: []byte("other-seed")})
	if other.verifyCookie(addr, ck, now) {
		t.Fatal("different seed accepted a foreign cookie")
	}
	// Empty seed draws a random root: two instances must not agree.
	r1 := newTestPrefilter(t, PrefilterConfig{Enable: true})
	r2 := newTestPrefilter(t, PrefilterConfig{Enable: true})
	if r2.verifyCookie(addr, r1.mint(addr, now), now) {
		t.Fatal("random-root prefilters agreed on a cookie; the root is not random")
	}
}

func TestCookieJarBoundedStalestOut(t *testing.T) {
	p := newTestPrefilter(t, PrefilterConfig{Enable: true, SecretSeed: []byte("jar")})
	now := pfEpoch
	ttl := cookieTTL

	p.jar.learn("peer-a", p.mint("peer-a", now), now)
	p.jar.learn("peer-b", p.mint("peer-b", now), now.Add(time.Second))
	for i := 0; i < jarCap-2; i++ {
		peer := principal.Address(fmt.Sprintf("fill-%d", i))
		p.jar.learn(peer, p.mint(peer, now), now.Add(2*time.Second))
	}
	// Re-learning an existing peer must not evict anybody.
	p.jar.learn("peer-a", p.mint("peer-a", now), now.Add(2*time.Second))
	if len(p.jar.entries) != jarCap {
		t.Fatalf("jar holds %d entries, want %d", len(p.jar.entries), jarCap)
	}
	// At capacity the stalest entry (peer-b now) makes room.
	p.jar.learn("peer-c", p.mint("peer-c", now), now.Add(3*time.Second))
	if len(p.jar.entries) != jarCap {
		t.Fatalf("jar holds %d entries past capacity, want %d", len(p.jar.entries), jarCap)
	}
	if _, ok := p.jar.lookup("peer-b", now.Add(3*time.Second)); ok {
		t.Error("stalest entry survived eviction")
	}
	if _, ok := p.jar.lookup("peer-a", now.Add(3*time.Second)); !ok {
		t.Error("freshened entry was evicted")
	}
	if _, ok := p.jar.lookup("peer-c", now.Add(3*time.Second)); !ok {
		t.Error("newly learned entry missing")
	}
	// TTL expiry deletes on lookup.
	if _, ok := p.jar.lookup("peer-c", now.Add(3*time.Second).Add(ttl+time.Second)); ok {
		t.Error("expired cookie served from the jar")
	}
	if _, stillThere := p.jar.entries["peer-c"]; stillThere {
		t.Error("expired entry not deleted")
	}
}

func TestSketchScorePenalizeDecay(t *testing.T) {
	p := newTestPrefilter(t, PrefilterConfig{Enable: true})
	for i := 0; i < sketchShedAt; i++ {
		p.penalize("hot-pref")
	}
	if got := p.score("hot-pref"); got != sketchShedAt {
		t.Fatalf("score after %d charges = %d", sketchShedAt, got)
	}
	if got := p.score("cold-pref"); got != 0 {
		t.Fatalf("unrelated prefix scored %d", got)
	}
	// The sketchDecayEvery-th observation triggers the halving sweep.
	for i := 0; i < sketchDecayEvery-sketchShedAt-1; i++ {
		p.penalize("other-pref")
	}
	if p.sketchDecays.Load() != 0 {
		t.Fatalf("decayed after %d charges", sketchDecayEvery-1)
	}
	p.penalize("other-pref")
	if p.sketchDecays.Load() != 1 {
		t.Fatalf("decays = %d, want 1", p.sketchDecays.Load())
	}
	if got := p.score("hot-pref"); got != sketchShedAt/2 {
		t.Errorf("hot prefix score after decay = %d, want %d", got, sketchShedAt/2)
	}
	if got, want := p.score("other-pref"), uint32(sketchDecayEvery-sketchShedAt)/2; got != want {
		t.Errorf("other prefix score after decay = %d, want %d", got, want)
	}
}

// TestPrefilterLadderHysteresis drives the adaptive ladder's evaluation
// cadence directly: a streak of two hot windows (admission sheds) climbs
// one rung, a streak of four cold ones descends one, and a single sample
// in either direction moves nothing.
func TestPrefilterLadderHysteresis(t *testing.T) {
	w := newWorld(t)
	_, b, _ := endpointPair(t, w, func(c *Config) {
		c.Prefilter = PrefilterConfig{Enable: true}
	})
	p := b.pf
	window := func(hot bool) {
		if hot { // an eighth of the window shed: the hot mark
			for i := 0; i < prefilterEvalEvery/8; i++ {
				b.metrics.drop(DropKeyingOverload)
			}
		}
		for i := 0; i < prefilterEvalEvery; i++ {
			p.tick(b)
		}
	}
	if p.levelNow() != PrefilterOff {
		t.Fatal("ladder did not rest at off")
	}
	window(true)
	if p.levelNow() != PrefilterOff {
		t.Fatal("a single hot window escalated; hysteresis missing")
	}
	window(true)
	if p.levelNow() != PrefilterSketch {
		t.Fatalf("after two hot windows level = %v, want sketch", p.levelNow())
	}
	window(true)
	window(true)
	if p.levelNow() != PrefilterChallenge {
		t.Fatalf("after four hot windows level = %v, want challenge", p.levelNow())
	}
	// Further pressure cannot climb past the top rung.
	window(true)
	window(true)
	if p.levelNow() != PrefilterChallenge || p.escalations.Load() != 2 {
		t.Fatalf("top rung: level %v, escalations %d", p.levelNow(), p.escalations.Load())
	}
	// Quiet: three cold windows hold, a streak of four descends.
	for i := 0; i < 3; i++ {
		window(false)
	}
	if p.levelNow() != PrefilterChallenge {
		t.Fatal("three cold windows de-escalated; hysteresis missing")
	}
	window(false)
	if p.levelNow() != PrefilterSketch {
		t.Fatalf("after four cold windows level = %v, want sketch", p.levelNow())
	}
	for i := 0; i < 4; i++ {
		window(false)
	}
	if p.levelNow() != PrefilterOff || p.deescalations.Load() != 2 {
		t.Fatalf("stand-down: level %v, deescalations %d", p.levelNow(), p.deescalations.Load())
	}
}

// TestPrefilterForceLevelStatic pins the ladder and checks the adaptive
// machinery never moves it.
func TestPrefilterForceLevelStatic(t *testing.T) {
	w := newWorld(t)
	_, b, _ := endpointPair(t, w, func(c *Config) {
		c.Prefilter = PrefilterConfig{Enable: true, ForceLevel: PrefilterSketch}
	})
	for i := 0; i < 8*prefilterEvalEvery; i++ {
		b.metrics.drop(DropKeyingOverload)
		b.pf.tick(b)
	}
	if b.pf.levelNow() != PrefilterSketch {
		t.Fatalf("forced level moved to %v", b.pf.levelNow())
	}
	if b.pf.escalations.Load() != 0 {
		t.Fatal("forced ladder recorded an escalation")
	}
}

func TestPrefilterConfigValidation(t *testing.T) {
	if _, err := newPrefilter(PrefilterConfig{ForceLevel: PrefilterChallenge + 1}); err == nil {
		t.Fatal("out-of-range ForceLevel accepted")
	}
	if _, err := newPrefilter(PrefilterConfig{ForceLevel: -1}); err == nil {
		t.Fatal("negative ForceLevel accepted")
	}
	if _, err := NewEndpoint(Config{Prefilter: PrefilterConfig{Enable: true, ForceLevel: 99}}); err == nil {
		t.Fatal("NewEndpoint accepted an invalid prefilter config")
	}
}

// TestPrefilterPrefixLenExceedsAddress: a source address shorter than
// sketchPrefixLen is its own whole prefix — no slice panic, and the
// sketch still scores, penalizes and sheds that source.
func TestPrefilterPrefixLenExceedsAddress(t *testing.T) {
	p := newTestPrefilter(t, PrefilterConfig{Enable: true})
	const addr principal.Address = "tiny"
	if len(addr) >= sketchPrefixLen {
		t.Fatalf("address %q is not shorter than the %d-byte prefix", addr, sketchPrefixLen)
	}
	prefix := p.prefixOf(addr)
	if prefix != string(addr) {
		t.Fatalf("prefix of short address = %q, want whole address", prefix)
	}
	for i := 0; i < sketchShedAt; i++ {
		p.penalize(prefix)
	}
	if got := p.score(prefix); got < sketchShedAt {
		t.Fatalf("score after %d penalties = %d, want >= %d (shed threshold)", sketchShedAt, got, sketchShedAt)
	}
}

// TestCookieBruteForceBound holds the cookie to the brute-force bound on
// stateless forwarding (Alzahrani et al., PAPERS.md): a forger who never
// saw a challenge guesses a cookieMACLen-byte MAC blind and expects
// 2^(8·cookieMACLen−1) guesses before one passes. That must exceed the
// datagrams a 10^8 datagram/s listener receives in one cookie TTL, the
// longest that any one cookie is accepted.
func TestCookieBruteForceBound(t *testing.T) {
	const listenerRate = 1e8 // datagrams per second
	guesses := math.Ldexp(1, 8*cookieMACLen-1)
	window := listenerRate * cookieTTL.Seconds()
	if guesses <= window {
		t.Fatalf("a %d-byte cookie MAC expects %.3g blind guesses, no more than the %.3g datagrams a 10^8/s listener receives in one %v TTL",
			cookieMACLen, guesses, window, cookieTTL)
	}
	t.Logf("expected blind guesses 2^%d ≈ %.3g; datagrams in one %v TTL at 10^8/s: %.3g", 8*cookieMACLen-1, guesses, cookieTTL, window)
}

// FuzzCookie hunts for panics and codec asymmetries in the cookie frame
// parser: any input that parses must re-encode to an identical frame
// prefix, and verification of arbitrary decoded cookies must never
// accept one this prefilter did not mint.
func FuzzCookie(f *testing.F) {
	p, err := newPrefilter(PrefilterConfig{Enable: true, SecretSeed: []byte("fuzz-seed")})
	if err != nil {
		f.Fatal(err)
	}
	now := pfEpoch.Add(30 * time.Second)
	const addr principal.Address = "fuzz-peer"
	// Seeds: a genuine challenge, a genuine echo with trailing payload,
	// an epoch-rollover cookie, and structural near-misses.
	f.Add(appendCookieFrame(nil, CookieKindChallenge, p.mint(addr, now)))
	f.Add(append(appendCookieFrame(nil, CookieKindEcho, p.mint(addr, now)), 0x01, 0x02, 0x03))
	f.Add(appendCookieFrame(nil, CookieKindChallenge, p.mint(addr, pfEpoch.Add(-time.Second))))
	f.Add([]byte{CookieMagic, CookieKindEcho, CookieVersion})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, ck, ok := parseCookieFrame(data)
		if !ok {
			// Unparseable input must also be invisible to the endpoint's
			// dispatch: either too short or not a cookie frame at all.
			if len(data) >= CookieFrameLen && data[0] == CookieMagic &&
				data[2] == CookieVersion &&
				(data[1] == CookieKindChallenge || data[1] == CookieKindEcho) {
				t.Fatalf("well-formed frame refused: % x", data[:CookieFrameLen])
			}
			return
		}
		// Round trip: re-encoding the decoded cookie reproduces the frame
		// prefix byte for byte.
		re := appendCookieFrame(nil, kind, ck)
		if !bytes.Equal(re, data[:CookieFrameLen]) {
			t.Fatalf("codec asymmetry:\n in  % x\n out % x", data[:CookieFrameLen], re)
		}
		// Forgery resistance: a fuzzer-built cookie only verifies if it
		// IS the cookie this prefilter mints for that epoch and stamp.
		if p.verifyCookie(addr, ck, now) {
			want := cookie{epoch: ck.epoch, stamp: ck.stamp}
			want.mac = p.cookieMAC(addr, want)
			if want.mac != ck.mac {
				t.Fatalf("verified cookie with a MAC the prefilter would not mint: %+v", ck)
			}
		}
	})
}

// TestAdmissionGateBackwardClock steps the clock backwards and checks
// the token bucket stays sane: it must not interpret the negative
// elapsed time as a drain (or a huge refill).
func TestAdmissionGateBackwardClock(t *testing.T) {
	clock := NewSimClock(famEpoch)
	g := newAdmissionGate(AdmissionConfig{UpcallRate: 10, UpcallBurst: 4}, clock)
	// Drain two tokens of the burst of four.
	for i := 0; i < 2; i++ {
		if err := g.Admit(); err != nil {
			t.Fatal(err)
		}
	}
	// The clock steps back a minute (NTP correction mid-flood).
	clock.Advance(-time.Minute)
	// The bucket refills from the stepped-back time, never drains on the
	// negative elapsed: two tokens remain.
	for i := 0; i < 2; i++ {
		if err := g.Admit(); err != nil {
			t.Fatalf("backward step drained the bucket: %v", err)
		}
	}
	if err := g.Admit(); !errors.Is(err, ErrKeyingOverload) {
		t.Fatalf("bucket should be empty after 4 admits with no forward time: %v", err)
	}
	// Forward progress from the stepped-back time refills normally.
	clock.Advance(200 * time.Millisecond)
	if err := g.Admit(); err != nil {
		t.Fatalf("refill after recovery failed: %v", err)
	}
	s := g.Stats()
	if s.Admitted != 5 || s.ShedOverload != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestVerifyCookieConstantTime holds verifyCookie's constant-time
// compare to a measurement (dudect, as cryptolib's TestConstantTime, whose
// control shows the instrument's power): an echoed cookie whose MAC is
// wrong in its first byte takes the same time to refuse as one wrong in
// its last.
func TestVerifyCookieConstantTime(t *testing.T) {
	dudect.SkipUntimed(t)
	p := newTestPrefilter(t, PrefilterConfig{Enable: true, SecretSeed: []byte("ct")})
	const addr, n = principal.Address("ct-peer"), 200000
	now := pfEpoch.Add(5 * time.Second)
	ck := p.mint(addr, now)
	var cks [2][]cookie
	for range n {
		for c, at := range [2]int{0, cookieMACLen - 1} {
			wrong := ck
			wrong.mac[at] ^= 1
			cks[c] = append(cks[c], wrong)
		}
	}
	r := dudect.Measure(n, 1, func(c, i int) { p.verifyCookie(addr, cks[c][i], now) })
	t.Logf("verifyCookie: %v", r)
	if r.Leaks() {
		t.Errorf("verifyCookie: %v: its time depends on where the MAC is wrong", r)
	}
}

// TestWrappedSendAllocs: a sender holding a challenger's cookie echoes it
// on every send, in an envelope built in the send's own wire buffer, so
// in the steady state a wrapped send allocates nothing an unwrapped one
// does not.
func TestWrappedSendAllocs(t *testing.T) {
	w := newWorld(t)
	a, b, _ := endpointPair(t, w, func(c *Config) {
		c.Cipher = CipherAES128GCM
		c.Prefilter = PrefilterConfig{Enable: true, SecretSeed: []byte("wrap-seed")}
	})
	dg := transport.Datagram{Source: "alice", Destination: "bob", Payload: make([]byte, 64)}
	send := func() {
		if err := a.Send(dg, false); err != nil {
			t.Fatal(err)
		}
	}
	send()
	plain := testing.AllocsPerRun(100, send)
	now := w.clock.Now()
	a.pf.jar.learn("bob", b.pf.mint("alice", now), now)
	attached := a.Snapshot().Prefilter.CookiesAttached
	wrapped := testing.AllocsPerRun(100, send) - plain
	if a.Snapshot().Prefilter.CookiesAttached-attached < 100 {
		t.Fatal("the sends did not carry the cookie")
	}
	if wrapped > 0 {
		t.Errorf("a wrapped send allocates %.1f more per op than an unwrapped one, want 0", wrapped)
	}
}
