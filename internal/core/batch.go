package core

import (
	"fmt"
	"sync"
	"time"

	"fbs/internal/cryptolib"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// The run engine: the one implementation of the protocol stages.
// sealRun is FBSSend (Figure 4, S1–S9) and openRun is FBSReceive
// (R1–R11), each written once over a run of datagrams; every Seal*,
// Open*, Send* and Receive* entry point, single or batched, ends up in
// one of them through one door per direction, sealWalk or openWalk,
// which cut a call's datagrams into runs. A single-datagram call is a
// run of one, so the golden wire vectors, the 0 allocs/op bound and the
// refmodel differential harness pin the same code the batch entry
// points execute, and a batch of N is observationally a loop of N
// single calls: identical bytes, identical per-DropReason counters,
// identical FAM accounting.
//
// What a run amortises — and what it deliberately does not change:
//
//   - FAM: one stripe lock per run of same-flow datagrams, with the
//     policy's Match re-checked per datagram under the held lock, so
//     wear-out rekeying (MaxPackets/MaxBytes) splits a run exactly
//     where a loop of single calls would.
//   - Nonces: a run's sequence numbers are reserved consecutively in
//     that one acquisition — the per-flow AEAD nonce counter advances
//     by the run length at once.
//   - Keys: one TFKC/RFKC resolution per flow run; the receive side
//     memoises the previous datagram's (sfl, src) → K_f within a call.
//   - Replay: verdicts for a chunk are computed stripe-grouped — one
//     lock per stripe touched. Identical signatures share a stripe and
//     stay in run order, so intra-batch duplicates are classified
//     exactly as per-datagram checks would classify them.
//   - Observation: the tracing gate still rolls once per datagram, in
//     order. A datagram whose gate fires is cut out of its neighbours'
//     run and goes through the same stages as a run of one carrying its
//     trace context, so its spans are per datagram, as ever; only the
//     quiet majority shares a run. A quiet run, whatever its length,
//     carries a nil context: it reads no clock and emits nothing.

// batchChunk bounds how many datagrams one run processes per stripe
// acquisition (and sizes the batch engine's stack-allocated scratch:
// per-datagram sizes, confounders, deferred replay signatures). Longer
// batches are processed in chunks of this size, which keeps the
// amortisation while bounding lock hold times and stack frames.
const batchChunk = 64

// NumBatchBuckets is the number of log2 size classes in the batch-call
// histograms: 1, 2-3, 4-7, 8-15, 16-31, 32-63, 64-127, 128+.
const NumBatchBuckets = 8

// batchBucket maps a batch size to its size class.
func batchBucket(n int) int {
	b := 0
	for n > 1 && b < NumBatchBuckets-1 {
		n >>= 1
		b++
	}
	return b
}

// batchBucketLabels spells the size classes for metric exposition.
var batchBucketLabels = [NumBatchBuckets]string{
	"1", "2-3", "4-7", "8-15", "16-31", "32-63", "64-127", "128+",
}

// BatchBucketLabel names size class i (see NumBatchBuckets).
func BatchBucketLabel(i int) string { return batchBucketLabels[i] }

// BatchStats reports batch API usage: how many SealBatch/OpenBatch
// calls arrived per size class and how many datagrams they carried.
// Single-datagram calls are not counted — the histograms describe
// explicit batch use, which is what the fbs_batch_* metric families
// expose.
type BatchStats struct {
	SealCalls     [NumBatchBuckets]uint64
	OpenCalls     [NumBatchBuckets]uint64
	SealDatagrams uint64
	OpenDatagrams uint64
}

// BatchResult reports one datagram's outcome within a SealBatch or
// OpenBatch call.
type BatchResult struct {
	// Off and Len locate this datagram's output bytes — the sealed wire
	// datagram for SealBatch, the recovered plaintext body for OpenBatch
	// — within the buffer the call returns. A refused datagram has Len
	// == 0 and a non-nil Err; the buffer may retain bytes no result
	// references (a datagram rejected after decryption leaves its staged
	// plaintext as dead space, exactly as the single-datagram append
	// path does in its caller-discarded buffer).
	Off, Len int
	// Err is the sentinel error the single-datagram path would have
	// returned for this datagram, so DropReasonOf(Err) recovers the
	// exact DropReason. Nil on success.
	Err error
	// Trace is the datagram's trace ID when its observation gate fired,
	// on either side, else 0. SendBatch stamps a seal's on the wire
	// datagram, as Send does, so the receiver continues the trace.
	Trace TraceID
}

// SealBatch performs FBS send processing on a batch of datagrams,
// appending each sealed datagram to dst and recording per-datagram
// outcomes in res (which must have at least len(dgs) slots). Datagrams
// are processed in order; consecutive datagrams that classify into the
// same flow form a run and share one FAM stripe acquisition, one
// nonce-counter reservation and one flow-key resolution. It returns the
// extended buffer and how many datagrams sealed successfully. Every
// datagram is accounted exactly as Seal would account it: same drop
// reasons, same counters, same wire bytes.
func (e *Endpoint) SealBatch(dst []byte, dgs []transport.Datagram, secret bool, res []BatchResult) ([]byte, int) {
	if len(res) < len(dgs) {
		panic("core: SealBatch requires len(res) >= len(dgs)")
	}
	return e.sealWalk(dst, dgs, nil, secret, res, true)
}

// sealWalk is the one door into sealRun: SealBatch and, through sealOne,
// every single-datagram seal come here, and only here are the drain gate
// taken, Source defaulted, Bypass applied and the observation gate
// rolled. id is the flow a single door chose; nil takes each datagram's
// flow from the Selector. batch marks an explicit SealBatch call, the
// only kind the fbs_batch_* histograms count. A datagram whose gate
// fires is a run of one under its root SpanSeal, and its result carries
// the trace ID.
func (e *Endpoint) sealWalk(dst []byte, dgs []transport.Datagram, id *FlowID, secret bool, res []BatchResult, batch bool) ([]byte, int) {
	if len(dgs) == 0 {
		return dst, 0
	}
	if err := e.beginOp(); err != nil {
		for i := range dgs {
			res[i] = BatchResult{Err: err}
		}
		return dst, 0
	}
	defer e.endOp()
	if batch {
		e.metrics.sealBatchCalls[batchBucket(len(dgs))].Add(1)
		e.metrics.sealBatchDatagrams.Add(uint64(len(dgs)))
	}
	for i := range dgs {
		if dgs[i].Source == "" {
			dgs[i].Source = e.Addr()
		}
	}
	sealed := 0
	// pend carries the gate decision that fired on the datagram which
	// terminated the previous run, so every datagram's gate is drawn
	// exactly once, in order.
	var pend *traceCtx
	for i := 0; i < len(dgs); {
		tc := pend
		pend = nil
		if tc == nil {
			if e.cfg.Bypass != nil && e.cfg.Bypass(dgs[i].Destination) {
				e.metrics.bypassedSent.Add(1)
				off := len(dst)
				dst = append(dst, dgs[i].Payload...)
				res[i] = BatchResult{Off: off, Len: len(dst) - off}
				sealed++
				i++
				continue
			}
			tc = e.traceGate(0, true)
		}
		var flow FlowID
		if id != nil {
			flow = *id
		} else {
			flow = e.cfg.Selector(dgs[i])
		}
		// Extend a quiet run: consecutive, non-bypassed datagrams of the
		// same flow whose gate stays quiet. The bypass and the flow are
		// checked before the gate, so neither a bypassed datagram nor a
		// flow change consumes the next draw.
		j := i + 1
		for !tc.active() && j < len(dgs) &&
			(e.cfg.Bypass == nil || !e.cfg.Bypass(dgs[j].Destination)) &&
			(id != nil || e.cfg.Selector(dgs[j]) == flow) {
			if pend = e.traceGate(0, true); pend != nil {
				break
			}
			j++
		}
		var root Span
		if tc.active() {
			root = Span{Kind: SpanSeal, Start: time.Now(), Attr: uint64(len(dgs[i].Payload))}
			if secret {
				root.Flags = FlagSecretBody
			}
		}
		var n int
		dst, n = e.sealRun(dst, dgs[i:j], flow, secret, res[i:j], tc)
		if tc.active() {
			tc.finish(root, res[i].Err)
			res[i].Trace = tc.id
		}
		sealed += n
		i = j
	}
	return dst, sealed
}

// traceGate is the one observation gate, rolled once per datagram on either
// side: nil with no tracer attached, otherwise one interface call unless
// the datagram arrived carrying a trace ID. An incoming ID (set by a
// tracing sender over a metadata-preserving transport) is always
// continued so one trace spans both endpoints; otherwise the tracer may
// start a local trace, which is how datagrams no sender traced —
// adversary injections in particular — still get a receive-side trace
// ending in their DropReason. A nil result is a quiet datagram.
func (e *Endpoint) traceGate(incoming TraceID, seal bool) *traceCtx {
	tr := e.cfg.Tracer
	if tr == nil {
		return nil
	}
	if incoming == 0 {
		if incoming = tr.StartTrace(); incoming == 0 {
			return nil
		}
	}
	return &traceCtx{tr: tr, id: incoming, seal: seal}
}

// sealRun is FBSSend (Figure 4) over a run of datagrams that share one
// flow: one batched classify per chunk (reserving the run's consecutive
// sequence numbers under a single stripe acquisition), one suite
// resolution, one flow-key resolution and one confounder-generator
// borrow, then a per-datagram header encode + body transform.
// Per-datagram results are recorded into res; the return values are the
// extended buffer and the number sealed. tc is nil unless the run is one
// traced datagram.
func (e *Endpoint) sealRun(dst []byte, dgs []transport.Datagram, id FlowID, secret bool, res []BatchResult, tc *traceCtx) ([]byte, int) {
	sealed := 0
	suite := e.suite
	for len(dgs) > 0 {
		chunk := len(dgs)
		if chunk > batchChunk {
			chunk = batchChunk
		}
		var sizes [batchChunk]int
		for k := 0; k < chunk; k++ {
			sizes[k] = len(dgs[k].Payload)
		}
		now := e.cfg.Clock.Now()
		t := tc.start()
		// (S1) classify the run into a flow. The flow entry hands back the
		// run's sequence numbers within the flow, the AEAD nonce counter.
		sfl, firstSeq, n, slot, ok := e.fam.classifyBatch(id, now, sizes[:chunk])
		if !ok {
			// At the budget hard limit a datagram needing a fresh flow entry
			// is shed; existing flows are untouched. The refusal sheds
			// exactly one datagram — a loop of single calls re-checks the
			// budget for each — then retries the remainder as a fresh run.
			e.metrics.drop(DropStateBudget)
			e.maybeRelievePressure(now)
			if tc.active() {
				tc.span(Span{Kind: SpanClassify, Drop: DropStateBudget,
					Flags: FlagBudgetRefused, Start: t, Dur: time.Since(t)})
			}
			res[0] = BatchResult{Off: len(dst), Err: fmt.Errorf("%w: flow to %q", ErrStateBudget, dgs[0].Destination)}
			dgs, res = dgs[1:], res[1:]
			continue
		}
		if tc.active() {
			tc.span(Span{Kind: SpanClassify, SFL: sfl, Start: t, Dur: time.Since(t)})
			t = time.Now()
		}
		// (S2-3) obtain the flow key (cached per Figure 6).
		kf, keyHit, note, err := e.transmitFlowKey(sfl, slot, dgs[0].Source, dgs[0].Destination)
		if tc.active() {
			drop := DropNone
			if err != nil {
				drop = DropKeying
			}
			tc.keyed(t, sfl, keyHit, note, drop)
		}
		if err != nil {
			// The run shares one key resolution; each datagram is still
			// dropped and counted individually, as a loop would drop it.
			for k := 0; k < n; k++ {
				e.metrics.drop(DropKeying)
				res[k] = BatchResult{Off: len(dst), Err: fmt.Errorf("%w: flow to %q: %w", ErrKeying, dgs[k].Destination, err)}
			}
			dgs, res = dgs[n:], res[n:]
			continue
		}
		// (S4-5) confounder and timestamp. The wire algorithm bytes are the
		// suite's mapping of the configured MAC/mode (legacy suites pass
		// them through; AEAD suites force MACAEAD and a zero mode nibble).
		//
		// Legacy suites draw a statistically random confounder (the paper's
		// per-datagram freshness material and IV seed). AEAD suites must NOT:
		// their confounder field feeds the nonce, and an AEAD nonce has to be
		// unique under the flow key, not merely random — 32 random bits
		// birthday-collide around 2^16 datagrams, well inside a bulk flow's
		// minute. The flow's datagram counter is unique by construction:
		// under one K_f (one sfl) the nonce counter|timestamp|sfl can only
		// repeat if 2^32 datagrams are sealed within a single timestamp
		// minute. Rekeying (a new sfl, so a new K_f) restarts the counter
		// safely, and a restarted endpoint randomises its sfl seed, so a
		// crash never resumes an old (key, counter) pair.
		wireMAC, wireMode := suite.WireAlg(e.cfg.MAC, e.cfg.Mode)
		aead := suite.AEAD()
		var confs [batchChunk]uint32
		if !aead {
			e.conf.drawRun(confs[:n])
		}
		ts := TimestampOf(now)
		for k := 0; k < n; k++ {
			conf := uint32(firstSeq + uint64(k))
			if !aead {
				conf = confs[k]
			}
			h := Header{
				Version:    HeaderVersion,
				MAC:        wireMAC,
				Cipher:     suite.ID(),
				Mode:       wireMode,
				SFL:        sfl,
				Confounder: conf,
				Timestamp:  ts,
			}
			if secret {
				h.Flags |= FlagSecret
			}
			// (S7, hoisted) encode the header with a zero MAC value; the MAC —
			// or AEAD tag — is patched in at macValueOffset once the body has
			// been traversed, so the body can be protected in place after the
			// header without a staging buffer.
			hdrOff := len(dst)
			encoded := h.Encode(dst)
			// (S6, S8-9) the suite owns the body transform and MAC/tag patch.
			t = tc.start()
			out, err := suite.SealAppend(encoded, hdrOff, h, kf, dgs[k].Payload, e.cfg.SinglePass, tc)
			if tc.active() {
				tc.crypto(t, sfl, secret, len(dgs[k].Payload), DropReasonOf(err))
			}
			if err != nil {
				res[k] = BatchResult{Off: hdrOff, Err: err}
				continue
			}
			e.metrics.sealsBySuite[suite.ID()].Add(1)
			res[k] = BatchResult{Off: hdrOff, Len: len(out) - hdrOff}
			dst = out
			sealed++
		}
		dgs, res = dgs[n:], res[n:]
	}
	return dst, sealed
}

// OpenBatch performs FBS receive processing on a batch of datagrams,
// appending each recovered plaintext body to dst and recording
// per-datagram outcomes in res (at least len(dgs) slots). Consecutive
// datagrams of one flow share a key resolution, and replay-window
// verdicts are computed stripe-grouped per chunk. It returns the
// extended buffer and how many datagrams were accepted. Every datagram
// is accounted exactly as OpenAppend would account it: same drop
// reasons, same counters, same recovered bytes.
func (e *Endpoint) OpenBatch(dst []byte, dgs []transport.Datagram, res []BatchResult) ([]byte, int) {
	if len(res) < len(dgs) {
		panic("core: OpenBatch requires len(res) >= len(dgs)")
	}
	return e.openWalk(dst, dgs, res, nil, true)
}

// openWalk is the one door into openRun, the receive-side twin of
// sealWalk: OpenBatch and, through openOne, every single-datagram open
// come here. alias is set only by Open, whose run of one hands its
// accepted body over in *alias (see deliver); batch marks an explicit
// OpenBatch call. Unlike seal, open needs no per-flow grouping — the key
// memo inside openRun amortises repeated flows on its own — so a quiet
// run is every consecutive non-bypassed datagram whose gate stays quiet.
func (e *Endpoint) openWalk(dst []byte, dgs []transport.Datagram, res []BatchResult, alias *[]byte, batch bool) ([]byte, int) {
	if len(dgs) == 0 {
		return dst, 0
	}
	if err := e.beginOp(); err != nil {
		for i := range dgs {
			res[i] = BatchResult{Err: err}
		}
		return dst, 0
	}
	defer e.endOp()
	if batch {
		e.metrics.openBatchCalls[batchBucket(len(dgs))].Add(1)
		e.metrics.openBatchDatagrams.Add(uint64(len(dgs)))
	}
	opened := 0
	var pend *traceCtx // as in sealWalk
	for i := 0; i < len(dgs); {
		tc := pend
		pend = nil
		if tc == nil {
			if e.cfg.Bypass != nil && e.cfg.Bypass(dgs[i].Source) {
				e.metrics.bypassedReceived.Add(1)
				off := len(dst)
				if alias != nil {
					*alias = dgs[i].Payload
				} else {
					dst = append(dst, dgs[i].Payload...)
				}
				res[i] = BatchResult{Off: off, Len: len(dgs[i].Payload)}
				opened++
				i++
				continue
			}
			tc = e.traceGate(dgs[i].Trace, false)
		}
		j := i + 1
		for !tc.active() && j < len(dgs) && (e.cfg.Bypass == nil || !e.cfg.Bypass(dgs[j].Source)) {
			if pend = e.traceGate(dgs[j].Trace, false); pend != nil {
				break
			}
			j++
		}
		var root Span
		if tc.active() {
			root = Span{Kind: SpanOpen, Start: time.Now(), Attr: uint64(len(dgs[i].Payload))}
		}
		var n int
		dst, n = e.openRun(dst, dgs[i:j], res[i:j], tc, alias)
		if tc.active() {
			tc.finish(root, res[i].Err)
			res[i].Trace = tc.id
		}
		opened += n
		i = j
	}
	return dst, opened
}

// replayPending is openRun's deferred replay bookkeeping: a chunk's
// survivors wait here until their verdicts are computed in one
// stripe-grouped pass.
type replayPending struct {
	idx      [batchChunk]int // position in the chunk
	src      [batchChunk]principal.Address
	hdr      [batchChunk]Header
	off      [batchChunk]int    // where a secret body's plaintext sits in dst
	body     [batchChunk][]byte // the authenticated body (see deliver)
	verdicts [batchChunk]ReplayVerdict
}

// openRun is FBSReceive (Figure 4) over a run of datagrams. Each walks
// the stages — addressing, pre-filter, header decode, algorithm policy,
// freshness, flow key, suite open, replay — with two amortisations: the
// previous datagram's (sfl, src) → K_f resolution is reused while the
// run stays on one flow, and replay verdicts for the chunk's survivors
// are computed in one stripe-grouped pass. Plaintext of a datagram the
// replay window later rejects remains as dead bytes in dst (no result
// references it); results and counters are exact per datagram. tc is nil
// unless the run is one traced datagram, and alias is nil unless it is
// Open's run of one (see deliver).
func (e *Endpoint) openRun(dst []byte, dgs []transport.Datagram, res []BatchResult, tc *traceCtx, alias *[]byte) ([]byte, int) {
	// The pending-replay scratch is ≈7 KB, and clearing it costs more
	// than all the fixed work of opening a small datagram; an endpoint
	// without a replay cache never pays for it.
	var pend *replayPending
	if e.rc != nil {
		pend = new(replayPending)
	}
	// The look-ahead applies where keying a new peer involves no decision
	// but the budget's, which it checks when it runs: behind an admission
	// gate or a pre-filter a chunk keys serially, as a loop would.
	var ahead lookahead
	var la *lookahead
	if len(dgs) > 1 && e.gate == nil && e.pf == nil {
		la = &ahead
	}
	opened := 0
	for len(dgs) > 0 {
		chunk := len(dgs)
		if chunk > batchChunk {
			chunk = batchChunk
		}
		now := e.cfg.Clock.Now()
		ahead = lookahead{e: e, now: now}
		var memoValid bool
		var memoSFL SFL
		var memoSrc principal.Address
		var memoKey [16]byte
		var t time.Time
		nr := 0 // survivors pending a replay verdict
		for k := 0; k < chunk; k++ {
			dg := &dgs[k]
			t = tc.start()
			if dg.Destination != e.Addr() {
				e.metrics.drop(DropNotForUs)
				tc.parsed(t, 0, false, DropNotForUs)
				res[k] = BatchResult{Err: fmt.Errorf("%w: %q", ErrNotForUs, dg.Destination)}
				continue
			}
			// (R1b) the edge pre-filter: control-frame absorption,
			// echo-envelope verification, sketch shedding and the cookie
			// challenge — all before any header parse or cache work, so a
			// shed datagram costs two atomic loads and no parse. A verified
			// echo rewrites dg.Payload in place.
			if e.pf != nil {
				if err := e.prefilterInbound(dg, tc); err != nil {
					res[k] = BatchResult{Err: err}
					continue
				}
				e.pf.headerParses.Add(1)
			}
			// (R2) retrieve the security flow header.
			var h Header
			hn, err := h.Decode(dg.Payload)
			if err != nil {
				e.metrics.drop(DropMalformed)
				tc.parsed(t, 0, false, DropMalformed)
				res[k] = BatchResult{Err: fmt.Errorf("%w: %v", ErrMalformed, err)}
				continue
			}
			body := dg.Payload[hn:]
			// (R2b) resolve the algorithm identification against the suite
			// registry (structure) and the Accept* policy, before any keying
			// or crypto work.
			suite, err := e.checkAlg(&h)
			if err != nil {
				e.metrics.drop(DropAlgorithm)
				tc.parsed(t, h.SFL, false, DropAlgorithm)
				res[k] = BatchResult{Err: err}
				continue
			}
			// (R3-4) freshness.
			if !h.Timestamp.Fresh(now, e.cfg.FreshnessWindow) {
				e.metrics.drop(DropStale)
				tc.parsed(t, h.SFL, false, DropStale)
				res[k] = BatchResult{Err: fmt.Errorf("%w: timestamp %v at %v", ErrStale, h.Timestamp.Time(), now)}
				continue
			}
			if tc.active() {
				tc.parsed(t, h.SFL, h.Secret(), DropNone)
				t = time.Now()
			}
			// (R5-6) recover the flow key.
			var kf [16]byte
			if memoValid && memoSFL == h.SFL && memoSrc == dg.Source {
				kf = memoKey
			} else {
				var keyHit bool
				var note KeyNote
				ahead.rest = dgs[k+1 : chunk]
				kf, keyHit, note, err = e.receiveFlowKey(h.SFL, dg.Source, dg.Destination, la)
				// The overload sheds carry their own reason; everything
				// else on this path is a keying failure.
				reason := dropOr(err, DropKeying)
				if tc.active() {
					tc.keyed(t, h.SFL, keyHit, note, reason)
				}
				if err != nil {
					e.metrics.drop(reason)
					e.prefilterObserveDrop(dg.Source, reason)
					res[k] = BatchResult{Err: fmt.Errorf("%w: flow from %q: %w", ErrKeying, dg.Source, err)}
					continue
				}
				memoValid, memoSFL, memoSrc, memoKey = true, h.SFL, dg.Source, kf
			}
			// (R7-11) the suite owns decryption and authentication: legacy
			// suites decrypt-then-verify (the MAC covers the plaintext body,
			// hoisted per the package comment), AEAD suites open the sealed
			// box in one pass. Sentinel errors map straight onto drop
			// reasons.
			t = tc.start()
			off := len(dst)
			newDst, plain, err := suite.OpenAppend(dst, h, kf, body, tc)
			reason := dropOr(err, DropDecrypt)
			if tc.active() {
				tc.crypto(t, h.SFL, h.Secret(), len(plain), reason)
			}
			if err != nil {
				e.metrics.drop(reason)
				e.prefilterObserveDrop(dg.Source, reason)
				res[k] = BatchResult{Err: err}
				continue
			}
			dst = newDst
			if pend == nil {
				dst, res[k] = e.deliver(dst, off, plain, &h, alias)
				opened++
				continue
			}
			pend.idx[nr], pend.src[nr], pend.hdr[nr], pend.off[nr], pend.body[nr] = k, dg.Source, h, off, plain
			nr++
		}
		// Optional exact-duplicate suppression (extension). A datagram is
		// only accepted with its signature recorded: at the budget hard
		// limit the newcomer is refused, never admitted unrecorded and never
		// traded against a resident signature (see ReplayVerdict).
		if nr > 0 {
			var took time.Duration
			t = tc.start()
			e.rc.CheckRun(pend.src[:nr], pend.hdr[:nr], now, pend.verdicts[:nr])
			if tc.active() {
				took = time.Since(t)
			}
			for i := 0; i < nr; i++ {
				k, h := pend.idx[i], &pend.hdr[i]
				drop := DropNone
				switch pend.verdicts[i] {
				case ReplayDuplicate:
					drop = DropReplay
					res[k] = BatchResult{Err: ErrReplay}
				case ReplayRefused:
					drop = DropReplayBudget
					e.maybeRelievePressure(now)
					res[k] = BatchResult{Err: fmt.Errorf("%w: from %q", ErrReplayBudget, dgs[k].Source)}
				default:
					dst, res[k] = e.deliver(dst, pend.off[i], pend.body[i], h, alias)
					opened++
				}
				if drop != DropNone {
					e.metrics.drop(drop)
				}
				if tc.active() {
					sp := Span{Kind: SpanReplay, Drop: drop, SFL: h.SFL, Start: t, Dur: took}
					if drop == DropReplayBudget {
						sp.Flags = FlagBudgetRefused
					}
					tc.span(sp)
				}
			}
		}
		dgs, res = dgs[chunk:], res[chunk:]
	}
	return dst, opened
}

// lookahead overlaps a chunk's master-key misses on the key plane's
// workers. Without it the walk waits on each new peer's upcall in turn,
// so however many workers the MKD runs, one exponentiation is under way
// at a time. At the chunk's first miss it starts the daemon on every
// later datagram that would reach the same miss, and each of those
// upcalls stays the walk's handle for the rest of the chunk: a later
// miss on that peer waits on it, so a slot-mate's key landing in the
// MKC after it cannot cost a second exponentiation.
type lookahead struct {
	e       *Endpoint
	now     time.Time
	rest    []transport.Datagram // the chunk after the datagram being keyed
	ran     bool
	started []upcall // the first miss's own upcall, then the ones it started
}

// upcall returns the upcall the look-ahead started for peer, or nil.
func (la *lookahead) upcall(peer principal.Address) *upcall {
	if la == nil {
		return nil
	}
	for i := range la.started {
		if la.started[i].peer == peer {
			return &la.started[i]
		}
	}
	return nil
}

// start runs the look-ahead at the chunk's first master-key miss, whose
// upcall own is, and returns the walk's handle to own; nil when it does
// not run (no look-ahead, not the first miss, or the budget above
// normal). A later datagram qualifies as the walk itself would judge it
// — addressed here, decoding, accepted by the algorithm policy, fresh —
// and its flow key and its peer's master key are both uncached; the
// caches are peeked, so no counter moves.
func (la *lookahead) start(own upcall) *upcall {
	if la == nil || la.ran {
		return nil
	}
	la.ran = true
	e := la.e
	if e.cfg.StateBudget.Level() != BudgetNormal {
		return nil
	}
	// Sized so appends never move it: the walk holds pointers into it.
	// Appends go to a local and are stored into la, never read back out
	// of it: a slice read through la and stored again would take la's
	// contents to the heap, the walk's datagrams with them, and escape
	// analysis would then heap-allocate Open's run of one.
	started := make([]upcall, 1, 1+len(la.rest))
	started[0] = own
	la.started = started
	for i := range la.rest {
		dg := &la.rest[i]
		if dg.Destination != e.Addr() || la.upcall(dg.Source) != nil {
			continue
		}
		var h Header
		if _, err := h.Decode(dg.Payload); err != nil {
			continue
		}
		if _, err := e.checkAlg(&h); err != nil || !h.Timestamp.Fresh(la.now, e.cfg.FreshnessWindow) {
			continue
		}
		if _, ok := e.rfkc.Peek(flowCacheKey{SFL: h.SFL, Dst: dg.Destination, Src: dg.Source}); ok {
			continue
		}
		if _, ok := e.plane.ks.mkc.Peek(dg.Source); ok {
			continue
		}
		u, err := e.plane.mkd.start(dg.Source)
		if err != nil {
			break
		}
		started = append(started, u)
		la.started = started
	}
	return &started[0]
}

// deliver accepts one authenticated datagram: it locates the body for
// the caller and moves the receive counters. plain is the body as the
// suite returned it — a secret body's plaintext already sits in dst at
// off, a cleartext body still aliases the input datagram's payload
// (after any pre-filter envelope was stripped from it). Appending the
// cleartext to dst is the one step a run of one may skip: with alias
// set, *alias receives plain as it is, which is Open's zero-copy
// contract (the paper's Section 5.3 data-touching concern).
func (e *Endpoint) deliver(dst []byte, off int, plain []byte, h *Header, alias *[]byte) ([]byte, BatchResult) {
	if alias != nil {
		*alias = plain
	} else if !h.Secret() {
		off = len(dst)
		dst = append(dst, plain...)
	}
	e.metrics.received.Add(1)
	e.metrics.receivedBytes.Add(uint64(len(plain)))
	e.metrics.opensBySuite[h.Cipher].Add(1)
	return dst, BatchResult{Off: off, Len: len(plain)}
}

// SendBatch seals dgs (SealBatch) and hands the sealed wire datagrams
// to the transport in one batched call (transport.SendBatch, which uses
// the transport's native vector path when it has one). It returns how
// many datagrams were transmitted; per-datagram seal refusals are
// counted in Snapshot exactly as Send counts them and simply drop out of
// the transmitted set. Traced datagrams get their seal-stage spans as
// usual but no per-send transport span — the batched hand-off is one
// operation, not N.
func (e *Endpoint) SendBatch(dgs []transport.Datagram, secret bool) (int, error) {
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	if cap(sc.res) < len(dgs) {
		sc.res = make([]BatchResult, len(dgs))
	}
	res := sc.res[:len(dgs)]
	capHint := 0
	for i := range dgs {
		capHint += HeaderSize + len(dgs[i].Payload) + cryptolib.BlockSize
	}
	if cap(sc.buf) < capHint {
		sc.buf = make([]byte, 0, capHint)
	}
	// The wire buffer is pooled: both in-repo transports copy the
	// payload out before returning (the network clones on inject, the
	// UDP paths copy into the kernel), so the hand-off ends when
	// transport.SendBatch returns.
	buf, _ := e.SealBatch(sc.buf[:0], dgs, secret, res)
	sc.buf = buf
	wires := sc.wires[:0]
	orig := sc.orig[:0]
	for i := range res {
		if res[i].Err != nil {
			continue
		}
		payload := buf[res[i].Off : res[i].Off+res[i].Len]
		if e.pf != nil {
			// Echo a pending cookie challenge, as Send does: the envelope
			// wraps the sealed bytes, leaving the wire image intact.
			payload = e.prefilterWrap(payload, dgs[i].Destination)
		}
		wires = append(wires, transport.Datagram{
			Source:      dgs[i].Source,
			Destination: dgs[i].Destination,
			Payload:     payload,
			Trace:       res[i].Trace,
		})
		orig = append(orig, i)
	}
	sc.wires, sc.orig = wires, orig
	n, err := transport.SendBatch(e.cfg.Transport, wires)
	for i := 0; i < n; i++ {
		e.metrics.sent.Add(1)
		e.metrics.sentBytes.Add(uint64(len(dgs[orig[i]].Payload)))
		if secret {
			e.metrics.sentSecret.Add(1)
		}
	}
	clearDatagrams(wires)
	return n, err
}

// ReceiveBatch blocks for the next batch from the transport (up to max
// datagrams in one vector receive where the transport supports it),
// opens the arrivals through OpenBatch, and returns the accepted
// plaintext datagrams plus the total arrival count. Rejected datagrams
// are counted in Snapshot per DropReason, as Receive counts them. A
// transport.ErrClosed error means the endpoint is shut down.
func (e *Endpoint) ReceiveBatch(max int) (accepted []transport.Datagram, arrived int, err error) {
	if max <= 0 {
		max = batchChunk
	}
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	if cap(sc.raw) < max {
		sc.raw = make([]transport.Datagram, max)
	}
	raw := sc.raw[:max]
	n, err := transport.ReceiveBatch(e.cfg.Transport, raw)
	if err != nil {
		return nil, 0, err
	}
	raw = raw[:n]
	if cap(sc.res) < n {
		sc.res = make([]BatchResult, n)
	}
	res := sc.res[:n]
	// The cleartext buffer is returned to the caller (the accepted
	// datagrams alias it), so unlike the scratch it is allocated fresh
	// — but pre-sized, since cleartext never exceeds the wire bytes.
	capHint := 0
	for i := range raw {
		capHint += len(raw[i].Payload)
	}
	out, ok := e.OpenBatch(make([]byte, 0, capHint), raw, res)
	accepted = make([]transport.Datagram, 0, ok)
	for i := range res {
		if res[i].Err != nil {
			continue
		}
		accepted = append(accepted, transport.Datagram{
			Source:      raw[i].Source,
			Destination: raw[i].Destination,
			Payload:     out[res[i].Off : res[i].Off+res[i].Len],
		})
	}
	clearDatagrams(raw)
	return accepted, n, nil
}

// batchScratch recycles the per-call slices of the SendBatch and
// ReceiveBatch convenience wrappers, so steady-state batch I/O costs
// one cleartext allocation per received batch and nothing per sent
// one.
type batchScratch struct {
	buf   []byte
	res   []BatchResult
	wires []transport.Datagram
	orig  []int
	raw   []transport.Datagram
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// clearDatagrams drops the payload references a pooled slice would
// otherwise pin past its useful life.
func clearDatagrams(dgs []transport.Datagram) {
	for i := range dgs {
		dgs[i] = transport.Datagram{}
	}
}
