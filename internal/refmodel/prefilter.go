package refmodel

// Reference restatement of the edge pre-filter (core's prefilter.go):
// the cookie control-frame codec, the rotating-secret HMAC cookie, the
// per-prefix counting sketch and the forced-level ladder are all
// written out again here from the design, not by calling core's
// helpers, so a bug in either implementation surfaces as a divergence
// in the differential harness. The reference has no pressure signals
// (no admission gate, no state budget), so only a pinned ladder level
// is meaningful — which is exactly how the differential harness runs
// core's side too (ForceLevel).
//
// What is deliberately shared with core: the error sentinels and drop
// taxonomy (so both sides classify refusals identically through
// core.DropReasonOf) and the PrefilterLevel enum. What is restated:
// frame layout, magic/kind/version bytes, epoch arithmetic, the
// secret chain, the cookie MAC input, the sketch geometry, row salts,
// hashing, scoring and decay.

import (
	"crypto/md5"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"time"

	"fbs/internal/core"
	"fbs/internal/cryptolib"
	"fbs/internal/principal"
)

// Cookie control-frame layout, restated: magic, kind, version, epoch
// (u32 BE), stamp (u32 BE), 16-byte MAC. A challenge is exactly this
// frame; an echo is this frame followed by the sealed datagram.
const (
	pfMagic         byte = 0xFB
	pfKindChallenge byte = 0xC7
	pfKindEcho      byte = 0xEC
	pfVersion       byte = 1
	pfMACLen             = 16
	pfFrameLen           = 3 + 4 + 4 + pfMACLen
)

// Sketch geometry and tuning (prefix length, shed score, decay period)
// and the cookie's epoch, in seconds, restated from core.
const (
	pfSketchRows = 2
	pfSketchCols = 1024
	pfPrefixLen  = 8
	pfShedAt     = 32
	pfDecayEvery = 1024
	pfEpochSecs  = 64
)

var pfSketchSalts = [pfSketchRows]uint32{0x9e3779b9, 0x85ebca6b}

// PrefilterConfig mirrors the subset of core.PrefilterConfig a
// reference endpoint can honour.
type PrefilterConfig struct {
	// Enable turns the pre-filter on.
	Enable bool
	// Level pins the ladder (the reference cannot adapt). Off with
	// Enable set means the cookie codec still runs (frames are
	// absorbed, echoes verified) but nothing is shed or challenged,
	// matching core at the same rung.
	Level core.PrefilterLevel
	// SecretSeed derives the rotating cookie secret deterministically;
	// empty draws a random root.
	SecretSeed []byte
}

// pfCookie is a decoded cookie.
type pfCookie struct {
	epoch uint32
	stamp uint32
	mac   [pfMACLen]byte
}

// refPrefilter is the reference pre-filter state; the endpoint's one
// mutex covers all of it.
type refPrefilter struct {
	cfg     PrefilterConfig
	root    [pfMACLen]byte
	buckets [pfSketchRows][pfSketchCols]uint32
	obs     uint64
	jar     map[principal.Address]pfCookie
	learned uint64
	decays  uint64
}

// newRefPrefilter derives the secret root with core's chain: root =
// MD5("fbs-prefilter-root" | seed).
func newRefPrefilter(cfg PrefilterConfig) (*refPrefilter, error) {
	if cfg.Level < core.PrefilterOff || cfg.Level > core.PrefilterChallenge {
		return nil, fmt.Errorf("refmodel: prefilter level %d out of range", cfg.Level)
	}
	p := &refPrefilter{cfg: cfg, jar: make(map[principal.Address]pfCookie)}
	if len(cfg.SecretSeed) > 0 {
		in := make([]byte, 0, len("fbs-prefilter-root")+len(cfg.SecretSeed))
		in = append(in, "fbs-prefilter-root"...)
		in = append(in, cfg.SecretSeed...)
		p.root = md5.Sum(in)
	} else if _, err := crand.Read(p.root[:]); err != nil {
		return nil, fmt.Errorf("refmodel: prefilter secret: %w", err)
	}
	return p, nil
}

// pfPrefix reduces an address to its sketch prefix.
func (p *refPrefilter) pfPrefix(src principal.Address) string {
	s := string(src)
	if len(s) > pfPrefixLen {
		s = s[:pfPrefixLen]
	}
	return s
}

// pfSlot hashes a prefix into a row's bucket, restating core's
// salt-seeded CRC: the row salt is the initial CRC state.
func pfSlot(row int, prefix string) uint32 {
	return cryptolib.CRC32UpdateString(pfSketchSalts[row], prefix) % pfSketchCols
}

// score is the count-min estimate for a prefix.
func (p *refPrefilter) score(prefix string) uint32 {
	s := p.buckets[0][pfSlot(0, prefix)]
	if v := p.buckets[1][pfSlot(1, prefix)]; v < s {
		s = v
	}
	return s
}

// penalize charges a forgery-attributable drop against a prefix and
// runs the halving decay on the same cadence as core.
func (p *refPrefilter) penalize(prefix string) {
	p.buckets[0][pfSlot(0, prefix)]++
	p.buckets[1][pfSlot(1, prefix)]++
	p.obs++
	if p.obs%pfDecayEvery == 0 {
		for r := range p.buckets {
			for c := range p.buckets[r] {
				p.buckets[r][c] /= 2
			}
		}
		p.decays++
	}
}

// epochAt and secretFor restate the rotating secret chain: epoch =
// unix / interval, secret_e = HMAC-MD5(root, epoch).
func (p *refPrefilter) epochAt(now time.Time) uint32 {
	return uint32(now.Unix() / pfEpochSecs)
}

func (p *refPrefilter) secretFor(epoch uint32) [pfMACLen]byte {
	var eb [4]byte
	binary.BigEndian.PutUint32(eb[:], epoch)
	var out [pfMACLen]byte
	copy(out[:], cryptolib.MACHMACMD5.Compute(p.root[:], eb[:]))
	return out
}

// cookieMAC restates the cookie binding: HMAC-MD5(secret_e, addr |
// stamp).
func (p *refPrefilter) cookieMAC(src principal.Address, ck pfCookie) [pfMACLen]byte {
	key := p.secretFor(ck.epoch)
	var sb [4]byte
	binary.BigEndian.PutUint32(sb[:], ck.stamp)
	var out [pfMACLen]byte
	copy(out[:], cryptolib.MACHMACMD5.Compute(key[:], []byte(src), sb[:]))
	return out
}

// verifyCookie restates acceptance: current-or-previous epoch, MAC
// binding the claimed source (which bounds the stamp's age too).
func (p *refPrefilter) verifyCookie(src principal.Address, ck pfCookie, now time.Time) bool {
	cur := p.epochAt(now)
	if ck.epoch != cur && ck.epoch+1 != cur {
		return false
	}
	return p.cookieMAC(src, ck) == ck.mac
}

// pfParseFrame decodes a control-frame prefix; ok is false unless the
// bytes are a well-formed frame of a known kind and version.
func pfParseFrame(wire []byte) (kind byte, ck pfCookie, ok bool) {
	if len(wire) < pfFrameLen || wire[0] != pfMagic || wire[2] != pfVersion {
		return 0, pfCookie{}, false
	}
	kind = wire[1]
	if kind != pfKindChallenge && kind != pfKindEcho {
		return 0, pfCookie{}, false
	}
	ck.epoch = binary.BigEndian.Uint32(wire[3:7])
	ck.stamp = binary.BigEndian.Uint32(wire[7:11])
	copy(ck.mac[:], wire[11:pfFrameLen])
	return kind, ck, true
}

// pfInbound is the reference pre-parse stage, mirroring the pre-filter
// order of core's Endpoint.decide exactly: cookie frames first (absorb or
// verify-and-strip), then the sketch, then the unknown-peer challenge.
// Returns the (possibly envelope-stripped) wire, or the refusal error.
// Caller holds e.mu.
func (e *Endpoint) pfInbound(src principal.Address, wire []byte) ([]byte, error) {
	p := e.pf
	now := e.cfg.Clock.Now()
	if len(wire) >= pfFrameLen && wire[0] == pfMagic {
		if kind, ck, ok := pfParseFrame(wire); ok {
			switch kind {
			case pfKindChallenge:
				if len(wire) == pfFrameLen {
					p.jar[src] = ck
					p.learned++
					return nil, fmt.Errorf("%w: from %q", core.ErrChallengeAbsorbed, src)
				}
				// Trailing bytes: not a control frame of ours; fall
				// through to the header parse, same as core.
			case pfKindEcho:
				if !p.verifyCookie(src, ck, now) {
					p.penalize(p.pfPrefix(src))
					e.drops[core.DropBadCookie]++
					return nil, fmt.Errorf("%w: from %q", core.ErrBadCookie, src)
				}
				// Return routability proven: strip the envelope and skip
				// the sketch and challenge for this datagram.
				return wire[pfFrameLen:], nil
			}
		}
	}
	if p.cfg.Level >= core.PrefilterSketch {
		prefix := p.pfPrefix(src)
		if p.score(prefix) >= pfShedAt {
			p.penalize(prefix)
			e.drops[core.DropPrefilter]++
			return nil, fmt.Errorf("%w: prefix %q", core.ErrPrefilter, prefix)
		}
	}
	if p.cfg.Level >= core.PrefilterChallenge {
		if _, known := e.masters[src]; !known {
			// The reference emits no frame (it has no transport); the
			// refusal verdict is what the differential harness compares.
			p.penalize(p.pfPrefix(src))
			e.drops[core.DropChallenged]++
			return nil, fmt.Errorf("%w: %q", core.ErrChallenged, src)
		}
	}
	return wire, nil
}

// pfPenalize feeds the sketch from downstream forgery-indicating
// drops: the downstream half of core's prefilterCharges reason set. Its
// other charged reasons (bad cookie, challenged, prefilter) are charged
// inline in pfInbound.
func (e *Endpoint) pfPenalize(src principal.Address, reason core.DropReason) {
	if e.pf == nil {
		return
	}
	switch reason {
	case core.DropBadMAC, core.DropKeyingOverload:
		e.pf.penalize(e.pf.pfPrefix(src))
	}
}

// CookiesLearned reports how many challenge frames the reference
// absorbed (its analogue of PrefilterStats.CookiesLearned).
func (e *Endpoint) CookiesLearned() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pf == nil {
		return 0
	}
	return e.pf.learned
}

// SketchDecays reports how many halving sweeps the reference sketch ran
// (its analogue of PrefilterStats.SketchDecays).
func (e *Endpoint) SketchDecays() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pf == nil {
		return 0
	}
	return e.pf.decays
}
