package core

import (
	crand "crypto/rand"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fbs/internal/cryptolib"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// This file is the edge pre-filter: the receive path's first line of
// defense, sitting in front of the header parse, the caches, and the
// keying admission gate. The admission gate (admission.go) bounds how
// much *keying work* a spoofed-source flood can buy; this layer bounds
// how much *any* work an offered forgery can buy, by refusing traffic
// before the endpoint even parses it. It has two mechanisms and a
// ladder that decides when they run:
//
//   - A per-prefix counting sketch: a fixed-size array of counters
//     indexed by CRC hashes of the source-address prefix. Every drop
//     that smells like forgery (bad MAC, admission shed, bad cookie,
//     challenged, prefilter) charges the source's prefix; once a
//     prefix's score crosses the threshold, its datagrams are refused
//     (DropPrefilter) before the header parse. Periodic halving decay
//     forgives a prefix that goes quiet. The sketch is zero-allocation
//     and lock-free: two atomic loads to score, two atomic adds to
//     charge.
//
//   - A stateless cookie challenge: at the ladder's top level an
//     unknown peer's datagram is not admitted to keying; the endpoint
//     instead emits a small challenge frame carrying an HMAC cookie
//     over (source address, rotating secret epoch, coarse timestamp)
//     and retains nothing — the cookie IS the state, held by the
//     sender. A legitimate sender's stack absorbs the challenge into
//     its cookie jar and wraps its retries in an echo envelope; the
//     receiver verifies the echo with one keyed-hash check, which
//     proves return routability (a spoofed source never saw the
//     cookie) and bypasses nothing else — budget, admission and suite
//     policy still apply to the unwrapped datagram.
//
// The ladder (off → sketch → sketch+challenge) is driven by the same
// pressure signals the overload plane already produces: the admission
// gate's shed rate, the state budget's pressure band, and the keying
// gate depth. Escalation and de-escalation both require a streak of
// consistent evaluations (hysteresis), so a single hot sample cannot
// flap the level. A mirrored implementation lives in internal/refmodel
// so the differential harness can hold the two byte-identical.

// PrefilterLevel is a rung of the degradation ladder.
type PrefilterLevel int32

const (
	// PrefilterOff disables both mechanisms (the adaptive resting
	// state).
	PrefilterOff PrefilterLevel = iota
	// PrefilterSketch enables per-prefix sketch shedding only.
	PrefilterSketch
	// PrefilterChallenge enables the sketch plus the cookie challenge
	// for unknown peers.
	PrefilterChallenge
)

// String returns the canonical level name.
func (l PrefilterLevel) String() string {
	switch l {
	case PrefilterOff:
		return "off"
	case PrefilterSketch:
		return "sketch"
	case PrefilterChallenge:
		return "challenge"
	default:
		return "unknown"
	}
}

// Cookie control-frame wire format, exported so harnesses (netsim, the
// UDP demo) can recognise and corrupt frames without reaching into the
// codec. A challenge frame is exactly CookieFrameLen bytes; an echo
// envelope is the same 27-byte prefix followed by the sealed datagram
// it answers for. The magic byte is deliberately distinct from
// HeaderVersion, so a control frame can never parse as a datagram
// header and vice versa.
const (
	// CookieMagic is the first byte of every cookie control frame.
	CookieMagic byte = 0xFB
	// CookieKindChallenge marks a receiver-to-sender challenge frame.
	CookieKindChallenge byte = 0xC7
	// CookieKindEcho marks a sender-to-receiver echo envelope.
	CookieKindEcho byte = 0xEC
	// CookieVersion is the control-frame format version.
	CookieVersion byte = 1
	// CookieFrameLen is the length of a challenge frame and the
	// envelope overhead of an echo: magic, kind, version, epoch (u32),
	// stamp (u32), MAC (16 bytes).
	CookieFrameLen = 3 + 4 + 4 + cookieMACLen
)

const cookieMACLen = 16

// cookie is the decoded form of the HMAC cookie a challenge carries
// and an echo returns.
type cookie struct {
	epoch uint32
	stamp uint32
	mac   [cookieMACLen]byte
}

// appendCookieFrame encodes a control frame of the given kind.
func appendCookieFrame(dst []byte, kind byte, ck cookie) []byte {
	dst = append(dst, CookieMagic, kind, CookieVersion)
	var be [8]byte
	binary.BigEndian.PutUint32(be[0:4], ck.epoch)
	binary.BigEndian.PutUint32(be[4:8], ck.stamp)
	dst = append(dst, be[:]...)
	return append(dst, ck.mac[:]...)
}

// parseCookieFrame decodes a control frame prefix. ok is false when the
// bytes are not a well-formed frame of a known kind and version.
func parseCookieFrame(wire []byte) (kind byte, ck cookie, ok bool) {
	if len(wire) < CookieFrameLen || wire[0] != CookieMagic || wire[2] != CookieVersion {
		return 0, cookie{}, false
	}
	kind = wire[1]
	if kind != CookieKindChallenge && kind != CookieKindEcho {
		return 0, cookie{}, false
	}
	ck.epoch = binary.BigEndian.Uint32(wire[3:7])
	ck.stamp = binary.BigEndian.Uint32(wire[7:11])
	copy(ck.mac[:], wire[11:CookieFrameLen])
	return kind, ck, true
}

// PrefilterConfig configures the edge pre-filter. The zero value
// disables it entirely; Enable alone gets the fully adaptive ladder.
// The cookie epoch, cookie TTL, sketch prefix, shed threshold and decay
// period are constants (below), the same for every endpoint.
type PrefilterConfig struct {
	// Enable turns the pre-filter machinery on. Off, the endpoint has
	// no jar, no sketch, and zero per-datagram overhead.
	Enable bool
	// ForceLevel pins the ladder at a fixed level instead of adapting
	// to pressure. PrefilterOff (the zero value) means adaptive. The
	// differential harness pins both implementations to the same level
	// because the reference model has no pressure signals to adapt to.
	ForceLevel PrefilterLevel
	// SecretSeed, when non-empty, derives the rotating cookie secret
	// deterministically, so a restarted endpoint (same seed, same
	// clock) honours cookies it minted before the crash — the secret
	// is itself stateless. Empty draws a random root: cookies die with
	// the process, which is also safe (senders just get re-challenged).
	SecretSeed []byte
}

// The cookie's clock. Epochs and stamps count whole seconds.
// TestCookieBruteForceBound holds cookieMACLen and cookieTTL to the
// brute-force bound: a blind forger's expected guesses outnumber what a
// 10^8 datagram/s listener receives in one TTL.
const (
	// epochSeconds is the secret rotation period. A cookie is accepted
	// under the current or immediately previous epoch's secret.
	epochSeconds = 64
	// cookieTTL bounds the age of a cookie in the sender's jar: two
	// epochs, the rotation grace, past which verifyCookie's epoch check
	// refuses it too.
	cookieTTL = 2 * epochSeconds * time.Second
)

// The ladder's cadence and the pre-filter's fixed bounds.
const (
	// prefilterEvalEvery re-evaluates the adaptive ladder every this
	// many received datagrams; the challenge rate cap window resets on
	// the same cadence. EXPERIMENTS.md's first-contact fairness row
	// measures the adaptive ladder at this cadence.
	prefilterEvalEvery = 256
	// prefilterHotEvals and prefilterColdEvals are the hysteresis
	// streaks: consecutive hot evaluations required to climb one rung,
	// and consecutive cold ones to descend — quick to engage, slow to
	// stand down.
	prefilterHotEvals  = 2
	prefilterColdEvals = 4
	// challengeBurst caps challenge frames at a quarter of an eval
	// window's datagrams; beyond it a challenged datagram is refused with
	// no frame sent (counted ChallengeSuppressed).
	challengeBurst = prefilterEvalEvery / 4
	// jarCap bounds the sender-side cookie jar at one cookie per TFKC
	// slot; at capacity the stalest entry is evicted.
	jarCap = flowKeyCacheSize
)

// PrefilterStats is a snapshot of pre-filter activity, exported through
// Snapshot and the fbs_prefilter_* metric families.
type PrefilterStats struct {
	// Level is the ladder's current rung (0 off, 1 sketch, 2
	// sketch+challenge).
	Level int
	// Escalations / Deescalations count ladder transitions.
	Escalations   uint64
	Deescalations uint64
	// SketchSheds counts datagrams refused by the sketch before the
	// header parse (the DropPrefilter bucket).
	SketchSheds uint64
	// Challenged counts challenge frames actually emitted;
	// ChallengeSuppressed counts refusals past the per-window rate cap
	// where no frame was sent.
	Challenged          uint64
	ChallengeSuppressed uint64
	// EchoAccepted / EchoRejected count echo-envelope verifications.
	EchoAccepted uint64
	EchoRejected uint64
	// CookiesLearned counts challenge frames absorbed into the
	// sender-side jar; CookiesAttached counts outgoing datagrams
	// wrapped in an echo envelope.
	CookiesLearned  uint64
	CookiesAttached uint64
	// HeaderParses counts datagrams that reached the header decode —
	// the work counter that proves pre-parse shedding: datagrams shed
	// by the sketch never increment it.
	HeaderParses uint64
	// SketchDecays counts halving sweeps over the sketch.
	SketchDecays uint64
	// Epoch is the current secret epoch.
	Epoch uint32
}

// Sketch geometry: two rows of 1024 counters each, scored as the
// minimum across rows (a count-min sketch). Fixed at compile time so
// the whole structure is one flat 8 KiB array with no pointers. A
// source's prefix is its first sketchPrefixLen address bytes; a prefix
// scoring sketchShedAt is shed, and every sketchDecayEvery charges
// halve every bucket, forgiving prefixes that go quiet.
// EXPERIMENTS.md's first-contact fairness row measures these values.
const (
	sketchRows       = 2
	sketchCols       = 1024
	sketchPrefixLen  = 8
	sketchShedAt     = 32
	sketchDecayEvery = 1024
)

// sketchSalts give each row an independent hash; the refmodel mirror
// restates these values.
var sketchSalts = [sketchRows]uint32{0x9e3779b9, 0x85ebca6b}

// sketchSlot hashes a prefix into row's bucket index. CRC over the
// string so scoring a datagram never converts the address to a byte
// slice (which would allocate on the pre-parse hot path).
func sketchSlot(row int, prefix string) uint32 {
	return cryptolib.CRC32UpdateString(sketchSalts[row], prefix) % sketchCols
}

// prefilter is the per-endpoint pre-filter state.
type prefilter struct {
	cfg  PrefilterConfig
	root [cookieMACLen]byte // cookie secret root; epochs derive from it

	// Ladder state. lvl is the adaptive level (ignored when
	// ForceLevel pins it); seen drives the eval cadence; the streak
	// counters live under evalMu, held only by the elected evaluator.
	lvl          atomic.Int32
	seen         atomic.Uint64
	evalMu       sync.Mutex
	hotStreak    int
	coldStreak   int
	lastShedRead uint64 // admission sheds at the previous evaluation

	// Sketch state.
	buckets [sketchRows * sketchCols]atomic.Uint32
	obs     atomic.Uint64

	// Sender-side cookie jar.
	jar cookieJar

	// Challenge rate cap for the current eval window.
	challengeWin atomic.Uint32

	// Counters (see PrefilterStats).
	escalations         atomic.Uint64
	deescalations       atomic.Uint64
	sketchSheds         atomic.Uint64
	challenged          atomic.Uint64
	challengeSuppressed atomic.Uint64
	echoAccepted        atomic.Uint64
	echoRejected        atomic.Uint64
	cookiesLearned      atomic.Uint64
	cookiesAttached     atomic.Uint64
	headerParses        atomic.Uint64
	sketchDecays        atomic.Uint64
}

// newPrefilter validates the config and derives the secret root.
func newPrefilter(cfg PrefilterConfig) (*prefilter, error) {
	if cfg.ForceLevel < PrefilterOff || cfg.ForceLevel > PrefilterChallenge {
		return nil, fmt.Errorf("core: Prefilter.ForceLevel %d out of range", cfg.ForceLevel)
	}
	p := &prefilter{cfg: cfg}
	if len(cfg.SecretSeed) > 0 {
		copy(p.root[:], cryptolib.Digest(cryptolib.HashMD5, []byte("fbs-prefilter-root"), cfg.SecretSeed))
	} else if _, err := crand.Read(p.root[:]); err != nil {
		return nil, fmt.Errorf("core: prefilter secret: %w", err)
	}
	return p, nil
}

// stats snapshots the counters (nil-safe).
func (p *prefilter) stats(now time.Time) PrefilterStats {
	if p == nil {
		return PrefilterStats{}
	}
	return PrefilterStats{
		Level:               int(p.levelNow()),
		Escalations:         p.escalations.Load(),
		Deescalations:       p.deescalations.Load(),
		SketchSheds:         p.sketchSheds.Load(),
		Challenged:          p.challenged.Load(),
		ChallengeSuppressed: p.challengeSuppressed.Load(),
		EchoAccepted:        p.echoAccepted.Load(),
		EchoRejected:        p.echoRejected.Load(),
		CookiesLearned:      p.cookiesLearned.Load(),
		CookiesAttached:     p.cookiesAttached.Load(),
		HeaderParses:        p.headerParses.Load(),
		SketchDecays:        p.sketchDecays.Load(),
		Epoch:               p.epochAt(now),
	}
}

// levelNow returns the effective ladder level.
func (p *prefilter) levelNow() PrefilterLevel {
	if p.cfg.ForceLevel != PrefilterOff {
		return p.cfg.ForceLevel
	}
	return PrefilterLevel(p.lvl.Load())
}

// prefixOf slices the sketch prefix out of an address (no allocation:
// a string slice shares the backing bytes).
func (p *prefilter) prefixOf(addr principal.Address) string {
	s := string(addr)
	if len(s) > sketchPrefixLen {
		return s[:sketchPrefixLen]
	}
	return s
}

// score returns the prefix's count-min score.
func (p *prefilter) score(prefix string) uint32 {
	s := p.buckets[sketchSlot(0, prefix)].Load()
	if v := p.buckets[sketchCols+int(sketchSlot(1, prefix))].Load(); v < s {
		s = v
	}
	return s
}

// penalize charges one forgery-attributable drop against the prefix
// and runs the halving decay when the observation count comes due.
func (p *prefilter) penalize(prefix string) {
	p.buckets[sketchSlot(0, prefix)].Add(1)
	p.buckets[sketchCols+int(sketchSlot(1, prefix))].Add(1)
	if p.obs.Add(1)%sketchDecayEvery == 0 {
		for i := range p.buckets {
			// A racing Add between Load and Store can be forgotten; the
			// sketch is an estimator and the loss only errs toward
			// forgiveness.
			p.buckets[i].Store(p.buckets[i].Load() / 2)
		}
		p.sketchDecays.Add(1)
	}
}

// Secret epochs. The per-epoch secret is an HMAC chain off the root,
// so it is never stored: any epoch's secret can be rederived, which is
// what lets a crashed endpoint (deterministic seed) resume honouring
// its own cookies.

func (p *prefilter) epochAt(now time.Time) uint32 {
	return uint32(now.Unix() / epochSeconds)
}

func (p *prefilter) secretFor(epoch uint32) [cookieMACLen]byte {
	var eb [4]byte
	binary.BigEndian.PutUint32(eb[:], epoch)
	var out [cookieMACLen]byte
	copy(out[:], cryptolib.MACHMACMD5.Compute(p.root[:], eb[:]))
	return out
}

// cookieMAC binds a cookie to the challenged source address.
func (p *prefilter) cookieMAC(addr principal.Address, ck cookie) [cookieMACLen]byte {
	key := p.secretFor(ck.epoch)
	var sb [4]byte
	binary.BigEndian.PutUint32(sb[:], ck.stamp)
	var out [cookieMACLen]byte
	copy(out[:], cryptolib.MACHMACMD5.Compute(key[:], addr.Bytes(), sb[:]))
	return out
}

// mint creates a cookie for addr under the current epoch.
func (p *prefilter) mint(addr principal.Address, now time.Time) cookie {
	ck := cookie{epoch: p.epochAt(now), stamp: uint32(now.Unix())}
	ck.mac = p.cookieMAC(addr, ck)
	return ck
}

// verifyCookie checks an echoed cookie: current-or-previous epoch, MAC
// binding the claimed source, compared in constant time. The epoch
// check bounds the stamp's age as well: mint stamps within the epoch it
// names and the MAC binds both, so a cookie that passes is under
// cookieTTL old.
func (p *prefilter) verifyCookie(addr principal.Address, ck cookie, now time.Time) bool {
	cur := p.epochAt(now)
	if ck.epoch != cur && ck.epoch+1 != cur {
		return false
	}
	want := p.cookieMAC(addr, ck)
	return subtle.ConstantTimeCompare(want[:], ck.mac[:]) == 1
}

// cookieJar is the sender-side store of cookies received in challenge
// frames, keyed by the challenging peer. Bounded; stalest-out.
type cookieJar struct {
	mu      sync.Mutex
	entries map[principal.Address]jarEntry
}

type jarEntry struct {
	ck      cookie
	learned time.Time
}

func (j *cookieJar) learn(peer principal.Address, ck cookie, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.entries == nil {
		j.entries = make(map[principal.Address]jarEntry)
	}
	if _, exists := j.entries[peer]; !exists && len(j.entries) >= jarCap {
		var stalest principal.Address
		var oldest time.Time
		first := true
		for k, v := range j.entries {
			if first || v.learned.Before(oldest) {
				stalest, oldest, first = k, v.learned, false
			}
		}
		delete(j.entries, stalest)
	}
	j.entries[peer] = jarEntry{ck: ck, learned: now}
}

func (j *cookieJar) lookup(peer principal.Address, now time.Time) (cookie, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.entries[peer]
	if !ok {
		return cookie{}, false
	}
	if now.Sub(e.learned) > cookieTTL {
		delete(j.entries, peer)
		return cookie{}, false
	}
	return e.ck, true
}

// tick advances the eval cadence: every prefilterEvalEvery received
// datagrams one caller is elected (TryLock) to reset the challenge window
// and, in adaptive mode, re-evaluate the ladder against the endpoint's
// pressure signals with hysteresis.
func (p *prefilter) tick(e *Endpoint) {
	n := p.seen.Add(1)
	if n%prefilterEvalEvery != 0 {
		return
	}
	if !p.evalMu.TryLock() {
		return
	}
	defer p.evalMu.Unlock()
	p.challengeWin.Store(0)
	if p.cfg.ForceLevel != PrefilterOff {
		return
	}
	if p.hotSignal(e) {
		p.coldStreak = 0
		p.hotStreak++
		if p.hotStreak >= prefilterHotEvals {
			p.hotStreak = 0
			if cur := p.lvl.Load(); cur < int32(PrefilterChallenge) {
				p.lvl.Store(cur + 1)
				p.escalations.Add(1)
			}
		}
		return
	}
	p.hotStreak = 0
	p.coldStreak++
	if p.coldStreak >= prefilterColdEvals {
		p.coldStreak = 0
		if cur := p.lvl.Load(); cur > int32(PrefilterOff) {
			p.lvl.Store(cur - 1)
			p.deescalations.Add(1)
		}
	}
}

// prefilterHotGateDepth is the keying-gate depth (in-flight upcalls)
// that counts as pressure on its own.
const prefilterHotGateDepth = 8

// hotSignal reads the overload plane: the admission shed rate over the
// last eval window (hot above 1/8 of the window's datagrams), the
// state budget's pressure band, and the keying gate depth. Caller
// holds evalMu.
func (p *prefilter) hotSignal(e *Endpoint) bool {
	sheds := e.metrics.drops[DropKeyingOverload].Load()
	delta := sheds - p.lastShedRead
	p.lastShedRead = sheds
	if delta*8 >= prefilterEvalEvery {
		return true
	}
	if e.cfg.StateBudget.Level() != BudgetNormal {
		return true
	}
	if e.gate.Stats().Depth >= prefilterHotGateDepth {
		return true
	}
	return false
}

// emitChallenge sends a challenge frame to src (best-effort, never
// counted as endpoint Sent — it is control traffic), subject to the
// per-window rate cap.
func (p *prefilter) emitChallenge(e *Endpoint, src principal.Address, now time.Time, tc *traceCtx) {
	if p.challengeWin.Add(1) > challengeBurst {
		p.challengeSuppressed.Add(1)
		return
	}
	ck := p.mint(src, now)
	frame := appendCookieFrame(make([]byte, 0, CookieFrameLen), CookieKindChallenge, ck)
	_ = e.cfg.Transport.Send(transport.Datagram{Source: e.Addr(), Destination: src, Payload: frame})
	p.challenged.Add(1)
	if tc.active() {
		tc.span(Span{Kind: SpanChallenge, Start: now, Attr: uint64(ck.epoch)})
	}
}

// prefilterInbound is the receive path's pre-parse stage, called after
// the addressing check and before the header decode. It strips a
// verified echo envelope from dg.Payload, or returns a refusal's verdict
// and bare sentinel for the walk to account (refuse):
//
//   - a challenge frame addressed to us is absorbed into the jar and
//     reported as ErrChallengeAbsorbed (control traffic, DropNone);
//   - an echo envelope is verified — valid strips the envelope and
//     proceeds (return routability proven, so the sketch and challenge
//     are bypassed; everything downstream still applies), invalid is
//     DropBadCookie;
//   - at PrefilterSketch and above, a source prefix scoring past the
//     threshold is shed (DropPrefilter) before any parse work;
//   - at PrefilterChallenge, an unknown peer without an envelope is
//     refused (DropChallenged) and a challenge is emitted in its
//     place.
func (e *Endpoint) prefilterInbound(dg *transport.Datagram, tc *traceCtx) (DropReason, error) {
	p := e.pf
	p.tick(e)
	now := e.cfg.Clock.Now()
	wire := dg.Payload
	if len(wire) >= CookieFrameLen && wire[0] == CookieMagic {
		if kind, ck, ok := parseCookieFrame(wire); ok {
			switch kind {
			case CookieKindChallenge:
				if len(wire) == CookieFrameLen {
					p.jar.learn(dg.Source, ck, now)
					p.cookiesLearned.Add(1)
					if tc.active() {
						tc.span(Span{Kind: SpanCookie, Start: now, Attr: uint64(ck.epoch)})
					}
					return DropNone, ErrChallengeAbsorbed
				}
				// A challenge frame with trailing bytes is not ours;
				// fall through and let the header parse refuse it.
			case CookieKindEcho:
				if !p.verifyCookie(dg.Source, ck, now) {
					p.echoRejected.Add(1)
					// Re-challenge (rate-capped): a sender whose jarred
					// cookie was corrupted in flight would otherwise echo
					// it forever; a fresh challenge lets it re-learn.
					if p.levelNow() >= PrefilterChallenge {
						p.emitChallenge(e, dg.Source, now, tc)
					}
					if tc.active() {
						tc.span(Span{Kind: SpanPrefilter, Drop: DropBadCookie, Start: now, Attr: uint64(ck.epoch)})
					}
					return DropBadCookie, ErrBadCookie
				}
				p.echoAccepted.Add(1)
				dg.Payload = wire[CookieFrameLen:]
				if tc.active() {
					tc.span(Span{Kind: SpanPrefilter, Start: now, Attr: uint64(ck.epoch)})
				}
				return DropNone, nil
			}
		}
	}
	lvl := p.levelNow()
	if lvl >= PrefilterSketch {
		if score := p.score(p.prefixOf(dg.Source)); score >= sketchShedAt {
			p.sketchSheds.Add(1)
			if tc.active() {
				tc.span(Span{Kind: SpanPrefilter, Drop: DropPrefilter, Start: now, Attr: uint64(score)})
			}
			return DropPrefilter, ErrPrefilter
		}
	}
	if lvl >= PrefilterChallenge && !e.plane.ks.KnownPeer(dg.Source) {
		p.emitChallenge(e, dg.Source, now, tc)
		if tc.active() {
			tc.span(Span{Kind: SpanPrefilter, Drop: DropChallenged, Start: now})
		}
		return DropChallenged, ErrChallenged
	}
	return DropNone, nil
}

// prefilterCharges reports whether a refusal for reason charges the
// source's sketch prefix: the forgery-shaped ones. Stale, malformed and
// budget drops are not — clock skew, damage and legitimate overload
// cause them, and a lossy link must not heat an honest prefix.
func prefilterCharges(reason DropReason) bool {
	switch reason {
	case DropBadMAC, DropKeyingOverload, DropBadCookie, DropChallenged, DropPrefilter:
		return true
	}
	return false
}

// prefilterWrap wraps an outgoing sealed datagram in an echo envelope
// when the jar holds a fresh cookie from the destination. Applied
// after Seal, so golden vectors and the sealed wire image are
// untouched — the envelope is transport framing, stripped before the
// peer's parse.
func (e *Endpoint) prefilterWrap(payload []byte, dst principal.Address) []byte {
	p := e.pf
	ck, ok := p.jar.lookup(dst, e.cfg.Clock.Now())
	if !ok {
		return payload
	}
	out := make([]byte, 0, CookieFrameLen+len(payload))
	out = appendCookieFrame(out, CookieKindEcho, ck)
	out = append(out, payload...)
	p.cookiesAttached.Add(1)
	return out
}
