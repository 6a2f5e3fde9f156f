package core

import (
	"time"

	"fbs/internal/transport"
)

// This file defines the endpoint's instrumentation surface: the span is
// the only thing core emits about a watched datagram. A sampled datagram
// carries a TraceID through seal, transport, the link fault model, and
// the peer's open path, and every stage it crosses emits a Span against
// that ID — so one record answers both "where did THIS datagram spend
// its time, and why was it dropped" and, folded by a consumer, "what
// does the pipeline cost on average". The core package stays free of any
// collector dependency — internal/obs provides the standard
// implementation (a span ring plus per-stage histograms fed from it).
//
// The gate discipline: a nil Config.Tracer costs one nil check per
// datagram; an attached tracer whose StartTrace returns 0 costs the hot
// path exactly that call (an atomic load or two) and no allocations —
// the invariant BenchmarkSealOpenAllocs enforces.

// TraceID aliases the transport-level trace identifier so spans and
// datagram metadata share one type. Zero means "not traced".
type TraceID = transport.TraceID

// SpanKind identifies which pipeline step a span timed. Seal-side and
// open-side spans share kinds where the work is symmetric (SpanFlowKey,
// SpanCrypto); Span.Seal tells the sides apart.
type SpanKind uint8

const (
	// SpanSeal is the send-side root: the whole Seal call. Attr is the
	// application payload length.
	SpanSeal SpanKind = iota
	// SpanClassify is flow classification in the flow state table,
	// including suite pinning and the AEAD sequence draw.
	SpanClassify
	// SpanFlowKey is flow-key retrieval or derivation on either side
	// (TFKC/RFKC probe, MKD upcall, admission verdict). Flags carry the
	// keying annotations.
	SpanFlowKey
	// SpanCrypto is the suite's body transform: MAC+encrypt on seal,
	// decrypt+verify (or the AEAD open) on open.
	SpanCrypto
	// SpanTransportSend times the underlying transport's Send call.
	SpanTransportSend
	// SpanLink is emitted by netsim's adversary, from the in-memory
	// network's fault decisions, for a traced datagram in transit:
	// loss, corruption, duplication, injection.
	// Dur is the modelled transit delay; Attr is model-specific (the
	// flipped bit index for corruption, the adversary kind for
	// injection).
	SpanLink
	// SpanOpen is the receive-side root: the whole Open call, with the
	// deliver-or-drop verdict in Drop. Attr is the wire payload length.
	SpanOpen
	// SpanParse covers receive-side admission before keying: addressing,
	// header decode, algorithm policy, and the freshness check.
	SpanParse
	// SpanReplay is the replay-cache probe (only on accept paths that
	// reach it).
	SpanReplay
	// SpanPrefilter is the edge pre-filter verdict on a received
	// datagram before the header parse: a sketch shed, a cookie-echo
	// verification (pass or DropBadCookie), or a refusal at the
	// challenge level. Attr is the sketch score when the sketch decided.
	SpanPrefilter
	// SpanChallenge is the emission of a stateless cookie challenge to
	// an unknown peer (receive side, but emitted for the outbound
	// control frame). Attr is the secret epoch the cookie was minted
	// under.
	SpanChallenge
	// SpanCookie is the sender-side absorption of a challenge frame
	// into the cookie jar. Attr is the cookie's secret epoch.
	SpanCookie
	// SpanMAC is a separate MAC traversal inside the suite's transform:
	// computation on seal, verification on open, or an AEAD suite's tag
	// over a cleartext body. It nests inside the SpanCrypto that follows
	// it.
	SpanMAC
	// SpanCipher is the encryption (seal) or decryption (open) pass
	// inside the suite's transform, padding included. An AEAD sealed
	// box is one fused pass: it is charged here and emits no SpanMAC,
	// since there is no separate MAC traversal to time.
	SpanCipher

	// NumSpanKinds sizes per-kind arrays.
	NumSpanKinds = int(iota)
)

var spanKindNames = [NumSpanKinds]string{
	SpanSeal:          "seal",
	SpanClassify:      "classify",
	SpanFlowKey:       "flowkey",
	SpanCrypto:        "crypto",
	SpanTransportSend: "transport_send",
	SpanLink:          "link",
	SpanOpen:          "open",
	SpanParse:         "parse",
	SpanReplay:        "replay",
	SpanPrefilter:     "prefilter",
	SpanChallenge:     "challenge",
	SpanCookie:        "cookie",
	SpanMAC:           "mac",
	SpanCipher:        "cipher",
}

// String returns the canonical label for the span kind.
func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return "unknown"
}

// SpanFlags annotate a span with the boolean verdicts of the step it
// timed: cache tiers on the keying path, degradation modes, admission
// outcomes, and link-model events.
type SpanFlags uint32

const (
	// FlagKeyHit: the flow key came from the TFKC/RFKC (or the combined
	// FST entry) without an upcall.
	FlagKeyHit SpanFlags = 1 << iota
	// FlagKeyMKCHit: the upcall was served by the master key cache.
	FlagKeyMKCHit
	// FlagKeyComputed: a Diffie-Hellman exponentiation was performed.
	FlagKeyComputed
	// FlagKeyCoalesced: this miss joined an MKD upcall already in
	// flight for the same peer (the key plane's one single-flight).
	FlagKeyCoalesced
	// FlagAdmitted: an unknown peer passed the keying admission gate.
	FlagAdmitted
	// FlagAdmitRefused: the admission gate refused the keying attempt.
	FlagAdmitRefused
	// FlagBudgetRefused: the state budget's hard limit refused the work.
	FlagBudgetRefused
	// FlagSecretBody: the body was (to be) encrypted.
	FlagSecretBody
	// FlagLinkLost: the link model dropped the datagram.
	FlagLinkLost
	// FlagLinkCorrupt: the link model flipped a bit.
	FlagLinkCorrupt
	// FlagLinkDup: the link model delivered an extra copy.
	FlagLinkDup
	// FlagLinkInjected: the datagram was crafted or replayed by the
	// adversary, not sent by the legitimate sender.
	FlagLinkInjected
)

// spanFlagNames maps each flag bit to its canonical label, in bit
// order.
var spanFlagNames = []string{
	"key_hit",
	"mkc_hit",
	"computed",
	"coalesced",
	"admitted",
	"admit_refused",
	"budget_refused",
	"secret",
	"lost",
	"corrupt",
	"dup",
	"injected",
}

// Names expands the flag set into its canonical labels.
func (f SpanFlags) Names() []string {
	if f == 0 {
		return nil
	}
	var out []string
	for i, name := range spanFlagNames {
		if f&(1<<uint(i)) != 0 {
			out = append(out, name)
		}
	}
	return out
}

// Span is one timed step of a traced datagram's journey. Spans are
// emitted by value and sized to scalars so recording one never
// allocates; collectors that need wall-clock alignment across
// processes use Start, collectors that only order within one process
// may rely on emission order.
type Span struct {
	// Trace is the datagram's trace ID (never zero in an emitted span).
	Trace TraceID
	// Kind is the pipeline step this span timed.
	Kind SpanKind
	// Seal is true for send-side spans, false for receive-side; link
	// spans report false.
	Seal bool
	// Drop is the step's verdict: DropNone unless this step refused the
	// datagram.
	Drop DropReason
	// Flags carry the step's boolean annotations.
	Flags SpanFlags
	// SFL is the flow label, when known at this step.
	SFL SFL
	// Start is when the step began.
	Start time.Time
	// Dur is how long the step took (for SpanLink: the modelled
	// transit delay).
	Dur time.Duration
	// Attr is a kind-specific scalar — payload length for root spans,
	// model detail for SpanLink.
	Attr uint64
}

// Tracer receives per-datagram spans from an endpoint (and, in
// simulations, from link fault models). Implementations must be safe
// for concurrent use and must not allocate in StartTrace, which runs
// on every sealed datagram.
type Tracer interface {
	// StartTrace is the sampling gate: it returns a fresh nonzero trace
	// ID to trace this datagram, or 0 to skip it. Returning 0 must be
	// cheap (an atomic load or two) because the seal path consults it
	// unconditionally.
	StartTrace() TraceID
	// Span delivers one span of a traced datagram. Calls may arrive
	// from many goroutines and, for one trace, from both endpoints of
	// a connection.
	Span(s Span)
}

// traceCtx threads the active tracer, this datagram's trace ID and the
// side of the pipeline it is on through the stages. A nil *traceCtx
// means "not traced" — every helper is nil-safe, so the un-traced path
// never branches more than once per emission site.
type traceCtx struct {
	tr   Tracer
	id   TraceID
	seal bool
}

// active reports whether spans should be emitted.
func (t *traceCtx) active() bool { return t != nil && t.id != 0 }

// span stamps the trace ID and the side, and emits. Callers must have
// checked active().
func (t *traceCtx) span(s Span) {
	s.Trace = t.id
	s.Seal = t.seal
	t.tr.Span(s)
}

// start reads the wall clock for a step about to begin, if the datagram
// is traced.
func (t *traceCtx) start() (now time.Time) {
	if t.active() {
		now = time.Now()
	}
	return now
}

// keyed emits the span of the flow-key stage begun at t0, on either
// side: which tier served the key, the keying plane's annotations and
// the stage's verdict. Callers check active() first.
func (t *traceCtx) keyed(t0 time.Time, sfl SFL, hit bool, note SpanFlags, drop DropReason) {
	sp := Span{Kind: SpanFlowKey, Drop: drop, SFL: sfl, Start: t0, Dur: time.Since(t0),
		Flags: note}
	if hit {
		sp.Flags |= FlagKeyHit
	}
	t.span(sp)
}

// pass emits the span of one MAC or cipher pass inside a suite's
// transform (SpanMAC, SpanCipher), begun at t0.
func (t *traceCtx) pass(kind SpanKind, sfl SFL, t0 time.Time) {
	if t.active() {
		t.span(Span{Kind: kind, SFL: sfl, Start: t0, Dur: time.Since(t0)})
	}
}

// crypto emits the span of the suite's whole body transform begun at t0
// over n body bytes. Callers check active() first.
func (t *traceCtx) crypto(t0 time.Time, sfl SFL, secret bool, n int, drop DropReason) {
	sp := Span{Kind: SpanCrypto, Drop: drop, SFL: sfl, Start: t0, Dur: time.Since(t0), Attr: uint64(n)}
	if secret {
		sp.Flags = FlagSecretBody
	}
	t.span(sp)
}

// finish closes a traced run of one: the whole call's duration and
// verdict go into root, the side's root span, which is emitted last.
// Callers check active() first.
func (t *traceCtx) finish(root Span, drop DropReason) {
	root.Dur = time.Since(root.Start)
	root.Drop = drop
	t.span(root)
}
