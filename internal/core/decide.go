package core

import (
	"time"

	"fbs/internal/transport"
)

// The receive walk's stages before keying. The security flow header is
// entirely in clear, so each verdict they reach is a function of clear
// bytes, the chunk's clock reading and read-only endpoint state: decide
// computes it, account does its side effects (DESIGN.md, "Refusals").

// pfAction is what the edge pre-filter made of a datagram.
type pfAction uint8

const (
	pfNone   pfAction = iota // nothing: no pre-filter, or it let the datagram by
	pfAbsorb                 // a challenge frame, for the sender-side jar
	pfStrip                  // a verified echo: the header follows the envelope
	pfRefuse                 // a bad cookie, a sketch shed or a challenge
)

// verdict is decide's result: the reason and bare sentinel (DropNone on
// a pass and on an absorbed challenge frame, which is not a drop), what
// account needs to act without deciding again, and on a pass the
// decoded header and its suite. decide sets drop, err and pf every
// time and the rest only where they mean something, so a walk reuses
// one verdict without clearing it.
type verdict struct {
	drop  DropReason
	err   error
	pf    pfAction
	lvl   PrefilterLevel // the rung the pre-filter read
	ck    cookie         // an absorbed challenge frame's cookie
	attr  uint64         // the pre-filter span's: cookie epoch or sketch score
	h     Header
	suite Suite
}

// pass reports whether the datagram goes on to keying.
func (v *verdict) pass() bool { return v.drop == DropNone && v.pf != pfAbsorb }

// decide writes into v the verdict on dg at now before keying, in the
// walk's order: addressing (R1); the edge pre-filter (R1b), where a
// challenge frame is absorbed, an echo verified (valid strips the
// envelope and bypasses the sketch and the challenge), a hot prefix shed
// and an unknown peer challenged; the header decode (R2); the algorithm
// policy (R2b); freshness (R3-4). It moves no counter, cache entry,
// bucket or jar entry; its one write is the cookie secret's epoch memo.
func (e *Endpoint) decide(dg *transport.Datagram, now time.Time, v *verdict) {
	v.drop, v.err, v.pf = DropNone, nil, pfNone
	if dg.Destination != e.Addr() {
		v.drop, v.err, v.h.SFL = DropNotForUs, ErrNotForUs, 0
		return
	}
	wire := dg.Payload
	if p := e.pf; p != nil {
		v.lvl = p.levelNow()
		// A challenge frame with trailing bytes is not ours; the header
		// decode refuses it.
		switch kind, ck, ok := parseCookieFrame(wire); {
		case !ok:
		case kind == CookieKindChallenge && len(wire) == CookieFrameLen:
			v.pf, v.ck, v.attr, v.err = pfAbsorb, ck, uint64(ck.epoch), ErrChallengeAbsorbed
			return
		case kind == CookieKindEcho && !p.verifyCookie(dg.Source, ck, now):
			v.pf, v.drop, v.err, v.attr = pfRefuse, DropBadCookie, ErrBadCookie, uint64(ck.epoch)
			return
		case kind == CookieKindEcho:
			v.pf, v.attr, wire = pfStrip, uint64(ck.epoch), wire[CookieFrameLen:]
		}
		if v.pf != pfStrip && v.lvl >= PrefilterSketch {
			if score := p.score(p.prefixOf(dg.Source)); score >= sketchShedAt {
				v.pf, v.drop, v.err, v.attr = pfRefuse, DropPrefilter, ErrPrefilter, uint64(score)
				return
			}
		}
		if v.pf != pfStrip && v.lvl >= PrefilterChallenge && !e.plane.ks.KnownPeer(dg.Source) {
			v.pf, v.drop, v.err, v.attr = pfRefuse, DropChallenged, ErrChallenged, 0
			return
		}
	}
	var err error
	if _, err = v.h.Decode(wire); err != nil {
		v.drop, v.err, v.h.SFL = DropMalformed, err, 0
	} else if v.suite, err = e.checkAlg(&v.h); err != nil {
		v.drop, v.err = DropAlgorithm, err
	} else if !v.h.Timestamp.Fresh(now, e.cfg.FreshnessWindow) {
		v.drop, v.err = DropStale, ErrStale
	}
}

// account does what v implies for dg, in the walk's order: the
// pre-filter's counters, spans, jar and challenge frame; the envelope's
// strip (dg.Payload is rewritten in place); the header-parse count; and
// the parse span begun at t0. It reports whether dg goes on to keying;
// where it does not, the walk's refuse does the drop count and the
// sketch charge.
func (e *Endpoint) account(dg *transport.Datagram, v *verdict, now, t0 time.Time, tc *traceCtx) bool {
	p := e.pf
	switch v.pf {
	case pfAbsorb:
		p.jar.learn(dg.Source, v.ck, now)
		p.cookiesLearned.Add(1)
		if tc.active() {
			tc.span(Span{Kind: SpanCookie, Start: now, Attr: v.attr})
		}
		return false
	case pfRefuse:
		switch v.drop {
		case DropBadCookie:
			p.echoRejected.Add(1)
			// Re-challenge (rate-capped): a sender whose jarred cookie was
			// corrupted in flight would otherwise echo it forever; a fresh
			// challenge lets it re-learn.
			if v.lvl >= PrefilterChallenge {
				p.emitChallenge(e, dg.Source, now, tc)
			}
		case DropPrefilter:
			p.sketchSheds.Add(1)
		case DropChallenged:
			p.emitChallenge(e, dg.Source, now, tc)
		}
		if tc.active() {
			tc.span(Span{Kind: SpanPrefilter, Drop: v.drop, Start: now, Attr: v.attr})
		}
		return false
	case pfStrip:
		p.echoAccepted.Add(1)
		dg.Payload = dg.Payload[CookieFrameLen:]
		if tc.active() {
			tc.span(Span{Kind: SpanPrefilter, Start: now, Attr: v.attr})
		}
	}
	if p != nil && v.drop != DropNotForUs {
		p.headerParses.Add(1)
	}
	if tc.active() {
		sp := Span{Kind: SpanParse, Drop: v.drop, SFL: v.h.SFL, Start: t0, Dur: time.Since(t0)}
		if v.drop == DropNone && v.h.Secret() {
			sp.Flags = FlagSecretBody
		}
		tc.span(sp)
	}
	return v.drop == DropNone
}
