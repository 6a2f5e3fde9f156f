package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fbs/internal/cert"
	"fbs/internal/cryptolib"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// Selector extracts the policy-relevant attributes of an outgoing
// datagram (the input to the mapper module). The IP mapping's selector
// parses the 5-tuple out of the payload; the default selector
// distinguishes flows by principal pair only.
type Selector func(dg transport.Datagram) FlowID

// DefaultSelector classifies by source and destination principal.
func DefaultSelector(dg transport.Datagram) FlowID {
	return FlowID{Src: dg.Source, Dst: dg.Destination}
}

// Config assembles an FBS endpoint. Zero values select the defaults
// noted on each field.
type Config struct {
	// Identity is this principal's address and Diffie-Hellman keying
	// material. Required.
	Identity *principal.Identity
	// Transport is the underlying insecure datagram service. Required.
	Transport transport.Transport
	// Directory serves peer certificates (the PVC-miss fetch path).
	// Default: an empty StaticDirectory, which fails every fetch.
	Directory cert.Directory
	// Verifier validates certificates against the pinned CA. Required.
	Verifier *cert.Verifier

	// Policy is the security flow policy (mapper + sweeper). Default:
	// ThresholdPolicy{10 * time.Minute}, the paper's favoured setting.
	Policy Policy
	// Selector extracts flow attributes from outgoing datagrams.
	// Default: DefaultSelector.
	Selector Selector
	// Clock drives timestamps; default RealClock.
	Clock Clock
	// MAC selects the MAC construction; default MACPrefixMD5 (keyed
	// MD5, as in the paper's implementation). AEAD suites override it on
	// the wire with MACAEAD (integrity is intrinsic to the sealed box).
	// MACNull is the NOP configuration, and only a NOP endpoint accepts
	// a datagram whose MAC byte says MACNull.
	MAC cryptolib.MACID
	// Cipher and Mode select payload encryption; defaults CipherDES and
	// CBC. Cipher must name a registered Suite and, with Mode, fit the
	// header's 4-bit nibbles — NewEndpoint rejects out-of-range or
	// unregistered IDs with ErrAlgorithmRange.
	Cipher CipherID
	Mode   cryptolib.Mode
	// FreshnessWindow is the replay window half-width; default 10
	// minutes (Section 6.2 suggests "on the order of minutes" for WANs).
	FreshnessWindow time.Duration
	// Confounder generates per-datagram confounders for legacy-suite
	// flows. When nil the endpoint maintains a pool of independently
	// seeded LCGs so that concurrent senders never serialise on one
	// generator. Supplying a source here (e.g. a seeded LCG for
	// reproducible tests, or SystemRandom for the expensive ablation)
	// forces all senders through that single source, serialised by a
	// mutex. AEAD-suite flows never consume from it: their confounder
	// field carries the flow's datagram counter, because an AEAD nonce
	// must be unique under the flow key, not merely statistically random.
	Confounder cryptolib.ConfounderSource

	// AcceptCiphers is the accept-set of suite IDs incoming datagrams
	// may use; empty accepts any registered suite. For AEAD suites the
	// set is enforced on every datagram (the suite owns integrity); for
	// legacy suites, as before, only encrypted bodies are constrained
	// (a cleartext body's cipher nibble is inert).
	AcceptCiphers []CipherID

	// EnableReplayCache turns on exact-duplicate suppression within the
	// freshness window (an extension beyond the paper; see ReplayCache).
	EnableReplayCache bool
	// Bypass exempts traffic with matching peers from FBS processing —
	// the "secure flow bypass" that certificate fetches use to avoid
	// circularity (Section 5.3, Figure 5).
	Bypass func(peer principal.Address) bool

	// Tracer receives the spans of sampled datagrams — stage timings,
	// keying annotations, verdicts; see Tracer and internal/obs. Nil
	// disables observation; a non-nil tracer whose StartTrace() returns
	// 0 costs the hot path only that call. Incoming datagrams whose
	// metadata carries a trace ID are always traced (continuing the
	// sender's trace); otherwise the receive path asks StartTrace for a
	// local sample, which is what catches injected or forged datagrams
	// that no sender traced.
	Tracer Tracer

	// SFLSeed, when nonzero, fixes the starting point of the sfl counter
	// instead of randomising it. Production endpoints must leave this
	// zero (a random start is what keeps a subsystem reset from forcing
	// sfl reuse, Section 5.3); deterministic harnesses — the differential
	// reference-model comparison in particular — set it so two endpoints
	// allocate identical label sequences.
	SFLSeed uint64

	// StateBudget, when non-nil, bounds the endpoint's total soft state:
	// the flow state table, replay windows, and all four cache levels
	// (PVC/MKC/TFKC/RFKC) charge per-entry costs against it. Crossing
	// the high-water mark puts sweeps into pressure mode; at the hard
	// limit new state is refused or displaces old state, and datagrams
	// that would require fresh expensive state are shed with
	// DropStateBudget. Nil (the default) disables budgeting.
	StateBudget *Budget
	// Admission bounds receive-path keying work for unknown peers (see
	// AdmissionConfig). The zero value disables the gate.
	Admission AdmissionConfig
	// Prefilter configures the edge pre-filter: the per-prefix
	// counting sketch and the stateless cookie challenge that sit in
	// front of the header parse, engaged adaptively as a degradation
	// ladder (see PrefilterConfig). The zero value disables it.
	Prefilter PrefilterConfig
}

// endpointCounters is the live form of Snapshot's data-plane fields:
// independent atomics, so per-packet accounting never serialises
// concurrent senders or receivers on a shared mutex.
type endpointCounters struct {
	sent          atomic.Uint64
	sentSecret    atomic.Uint64
	sentBytes     atomic.Uint64
	received      atomic.Uint64
	receivedBytes atomic.Uint64

	// drops is indexed by DropReason.
	drops [NumDropReasons]atomic.Uint64

	// Per-suite activity, indexed by cipher nibble: successful seals and
	// accepted opens. Unregistered slots stay zero.
	sealsBySuite [maxAlgNibble + 1]atomic.Uint64
	opensBySuite [maxAlgNibble + 1]atomic.Uint64

	// Batch-call shape: how many SealBatch/OpenBatch calls arrived per
	// log2 size class, plus total datagrams carried. Single-datagram
	// calls never touch these — they count only explicit batch API use.
	sealBatchCalls     [NumBatchBuckets]atomic.Uint64
	openBatchCalls     [NumBatchBuckets]atomic.Uint64
	sealBatchDatagrams atomic.Uint64
	openBatchDatagrams atomic.Uint64

	bypassedSent     atomic.Uint64
	bypassedReceived atomic.Uint64
}

// drop counts one refused datagram.
func (c *endpointCounters) drop(d DropReason) { c.drops[d].Add(1) }

// confounderWell hands out per-datagram confounders without a shared
// lock. With no user-supplied source it keeps a pool of independently
// seeded LCGs — each in-flight seal borrows a whole generator, so
// concurrent senders draw from disjoint sequences (the paper only asks
// for statistical randomness, which independent seeding preserves). A
// user-supplied source (deterministic test LCG, SystemRandom ablation)
// is instead serialised by a mutex, keeping its sequence exactly as
// configured.
type confounderWell struct {
	pool *sync.Pool

	mu  sync.Mutex
	src cryptolib.ConfounderSource
}

func newConfounderWell(src cryptolib.ConfounderSource) *confounderWell {
	if src != nil {
		return &confounderWell{src: src}
	}
	return &confounderWell{
		pool: &sync.Pool{New: func() any { return cryptolib.NewLCG() }},
	}
}

// drawRun fills conf with per-datagram confounders, borrowing the pooled
// generator (or taking the source lock) once for the whole run instead of
// once per datagram. The values drawn are the same sequence a loop of
// single draws would produce.
func (w *confounderWell) drawRun(conf []uint32) {
	if w.pool != nil {
		g := w.pool.Get().(*cryptolib.LCG)
		for i := range conf {
			conf[i] = g.Uint32()
		}
		w.pool.Put(g)
		return
	}
	w.mu.Lock()
	for i := range conf {
		conf[i] = w.src.Uint32()
	}
	w.mu.Unlock()
}

// Endpoint is one principal's FBS protocol instance: the send and
// receive halves of Figure 3 plus the key cache hierarchy of Figure 5.
// It is safe for concurrent use: the caches and flow state table are
// lock-striped, metrics are atomics, and confounder generation is
// pooled, so parallel seals and opens share no serialising lock in the
// steady state.
type Endpoint struct {
	cfg  Config
	fam  *FAM
	tfkc *DirectMapped[flowCacheKey, keySlot]
	rfkc *DirectMapped[flowCacheKey, keySlot]
	rc   *ReplayCache
	conf *confounderWell

	// suite is cfg.Cipher's, resolved and validated once: every flow
	// seals under it.
	suite Suite

	// plane is the PVC/MKC/MKD this endpoint keys through; the endpoint
	// that built it (standalone, or shard 0 of a group) carries it in its
	// Snapshot.
	plane        *keyPlane
	carriesPlane bool

	// Overload plane: the keying admission gate (nil when disabled),
	// the rate limiter for pressure-relief sweeps, and the edge
	// pre-filter (nil when disabled).
	gate           *admissionGate
	lastPressure   atomic.Int64 // unix nanos of the last pressure sweep
	pressureSweeps atomic.Uint64
	pf             *prefilter

	// closed makes Close idempotent.
	closed atomic.Bool

	metrics endpointCounters
}

// NewEndpoint validates the configuration and assembles an endpoint with
// a key plane of its own.
func NewEndpoint(cfg Config) (*Endpoint, error) { return newEndpoint(cfg, nil, 1) }

// newEndpoint assembles an endpoint that keys through plane; nil means
// build one from cfg, sized for shards endpoints (shard 0's path too).
func newEndpoint(cfg Config, plane *keyPlane, shards int) (*Endpoint, error) {
	if cfg.Identity == nil {
		return nil, fmt.Errorf("core: Config.Identity is required")
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("core: Config.Transport is required")
	}
	if cfg.Verifier == nil {
		return nil, fmt.Errorf("core: Config.Verifier is required")
	}
	if cfg.Directory == nil {
		cfg.Directory = cert.NewStaticDirectory()
	}
	if cfg.Policy == nil {
		cfg.Policy = ThresholdPolicy{Threshold: 10 * time.Minute}
	}
	if cfg.Selector == nil {
		cfg.Selector = DefaultSelector
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock{}
	}
	if cfg.Cipher == CipherNone {
		cfg.Cipher = CipherDES
	}
	// Satellite of the suite seam: IDs must fit the header's packed
	// nibbles and name a registered suite before they ever reach
	// algByte, which would otherwise truncate them silently.
	if cfg.Cipher > maxAlgNibble {
		return nil, fmt.Errorf("%w: cipher %d exceeds the 4-bit field", ErrAlgorithmRange, cfg.Cipher)
	}
	if cfg.Mode > maxAlgNibble {
		return nil, fmt.Errorf("%w: mode %d exceeds the 4-bit field", ErrAlgorithmRange, cfg.Mode)
	}
	suite := SuiteByID(cfg.Cipher)
	if suite == nil {
		return nil, fmt.Errorf("%w: cipher %d has no registered suite", ErrAlgorithmRange, cfg.Cipher)
	}
	if !suite.AEAD() && (cfg.MAC > cryptolib.MACNull || cfg.Mode > cryptolib.OFB) {
		return nil, fmt.Errorf("%w: MAC %d / mode %d not implemented for suite %s",
			ErrAlgorithmRange, cfg.MAC, cfg.Mode, suite.Name())
	}
	if cfg.FreshnessWindow <= 0 {
		cfg.FreshnessWindow = 10 * time.Minute
	}
	if plane != nil && !sameIdentity(plane.ks.self, cfg.Identity) {
		return nil, fmt.Errorf("core: identity %q differs from the one the group's key plane serves", cfg.Identity.Addr)
	}
	var fam *FAM
	if cfg.SFLSeed != 0 {
		fam = newFAMWithSeed(cfg.Policy, 0, cfg.SFLSeed)
	} else {
		var err error
		if fam, err = NewFAM(cfg.Policy, 0); err != nil {
			return nil, err
		}
	}
	e := &Endpoint{
		cfg:   cfg,
		suite: suite,
		fam:   fam,
		tfkc:  NewDirectMapped[flowCacheKey, keySlot](flowKeyCacheSize, flowCacheKey.hash),
		rfkc:  NewDirectMapped[flowCacheKey, keySlot](flowKeyCacheSize, flowCacheKey.hash),
		conf:  newConfounderWell(cfg.Confounder),
		gate:  newAdmissionGate(cfg.Admission, cfg.Clock),
	}
	if cfg.EnableReplayCache {
		e.rc = NewReplayCache(cfg.FreshnessWindow)
	}
	if cfg.Prefilter.Enable {
		pf, err := newPrefilter(cfg.Prefilter)
		if err != nil {
			return nil, err
		}
		e.pf = pf
	}
	if b := cfg.StateBudget; b != nil {
		fam.SetBudget(b)
		e.tfkc.SetBudget(b, CostFlowKeyEntry)
		e.rfkc.SetBudget(b, CostFlowKeyEntry)
		if e.rc != nil {
			e.rc.SetBudget(b)
		}
	}
	// Last, once nothing can fail: a new plane starts the daemon.
	if plane == nil {
		plane, e.carriesPlane = newKeyPlane(cfg, shards), true
	}
	e.plane = plane
	plane.users.Add(1)
	return e, nil
}

// Addr returns this endpoint's principal address.
func (e *Endpoint) Addr() principal.Address { return e.cfg.Identity.Addr }

// Close stops the master key daemon, if this is the last endpoint on its
// key plane — ShardGroup.Close ends a group's, not the first shard
// closed, whose siblings go on keying — and closes the transport. It is
// idempotent: only the first call releases anything, and later calls
// return nil — so a ShardGroup torn down twice (a mid-construction
// failure followed by a deferred Close) closes each transport exactly
// once.
func (e *Endpoint) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	if e.plane.users.Add(-1) == 0 {
		e.plane.mkd.Stop()
	}
	return e.cfg.Transport.Close()
}

// FlushPeer evicts everything cached about peer — verified
// certificate, pair master key, negative-lookup memory, and both
// directions' flow keys — so the next datagram to or from peer re-keys
// from scratch. This is the hot-rotation seam: rotating one peer's
// credentials flushes that peer alone, leaving every other flow's
// soft state untouched.
func (e *Endpoint) FlushPeer(peer principal.Address) {
	e.plane.ks.FlushPeer(peer)
	match := func(k flowCacheKey, _ keySlot) bool {
		return k.Src == peer || k.Dst == peer
	}
	e.tfkc.EvictIf(match)
	e.rfkc.EvictIf(match)
}

// ReplayPerPeer returns per-peer replay-window occupancy — the
// first-class budget input that attributes state pressure to the peer
// creating it. Nil when the replay cache is disabled.
func (e *Endpoint) ReplayPerPeer() map[principal.Address]int { return e.rc.PerPeer() }

// PeerFlowKey derives the flow key this endpoint would use for sfl on
// datagrams it sends to peer. It is a diagnostic seam for differential
// testing: harnesses compare the key material an optimised endpoint
// derives against an independent reference derivation. It goes through
// the regular keying path (MKC, upcall), so it can fail with the same
// keying errors a seal would.
func (e *Endpoint) PeerFlowKey(sfl SFL, peer principal.Address) ([16]byte, error) {
	master, _, err := e.plane.masterKey(peer, nil, nil)
	if err != nil {
		return [16]byte{}, err
	}
	return FlowKey(cryptolib.HashMD5, sfl, master, e.Addr(), peer), nil
}

// Sweep runs the sweeper policy module over the flow state table. With
// the state budget above its high-water mark the sweep runs in pressure
// mode (the policy's tightened threshold) so idle flows are reclaimed
// sooner.
func (e *Endpoint) Sweep() int {
	now := e.cfg.Clock.Now()
	if e.cfg.StateBudget.UnderPressure() {
		return e.fam.SweepPressure(now)
	}
	return e.fam.Sweep(now)
}

// pressureSweepInterval rate-limits the inline pressure-relief sweeps
// that the data path triggers when the budget is hot, so a sustained
// flood costs at most one table scan per interval rather than one per
// refused datagram.
const pressureSweepInterval = 100 * time.Millisecond

// maybeRelievePressure runs one pressure-mode sweep if the budget is at
// or above high water and none has run within the last interval. The
// CAS elects a single sweeper; it must never be called while holding a
// stripe lock (the sweep takes them all, one at a time).
func (e *Endpoint) maybeRelievePressure(now time.Time) {
	b := e.cfg.StateBudget
	if b == nil || b.Level() == BudgetNormal {
		return
	}
	last := e.lastPressure.Load()
	n := now.UnixNano()
	if n-last < int64(pressureSweepInterval) {
		return
	}
	if !e.lastPressure.CompareAndSwap(last, n) {
		return
	}
	e.pressureSweeps.Add(1)
	e.fam.SweepPressure(now)
}

// FlushKeys drops every cached key and certificate (PVC, MKC, TFKC,
// RFKC). Because all of it is soft state, this is always safe: the next
// datagram in each direction simply pays recomputation. Call it after
// this principal rekeys, or after learning a peer did.
func (e *Endpoint) FlushKeys() {
	e.tfkc.Flush()
	e.rfkc.Flush()
	e.plane.ks.pvc.Flush()
	e.plane.ks.mkc.Flush()
}

// Flows returns a snapshot of the live flow state table, for monitoring.
func (e *Endpoint) Flows() []FlowInfo { return e.fam.Snapshot() }

// checkAlg resolves the self-describing header against the suite
// registry and the receiver's algorithm policy. The order is fixed:
// first structure (is there such an algorithm at all — unregistered
// cipher nibbles and MAC/mode bytes the named suite cannot carry fail
// with ErrAlgorithmUnknown), then policy (a known algorithm this
// endpoint refuses fails with ErrAlgorithmRejected). Both map to
// DropAlgorithm, and both come back bare: the header the walk refused
// holds the detail. The refmodel mirrors this decision table exactly.
func (e *Endpoint) checkAlg(h *Header) (Suite, error) {
	suite := SuiteByID(h.Cipher)
	if suite == nil || !suite.ValidHeader(*h) {
		return nil, ErrAlgorithmUnknown
	}
	if suite.AEAD() {
		// Integrity is intrinsic — the MAC byte is structurally MACAEAD.
		// The cipher accept-set binds secret and cleartext bodies alike
		// (the suite authenticates both).
		if len(e.cfg.AcceptCiphers) > 0 && !containsCipher(e.cfg.AcceptCiphers, h.Cipher) {
			return nil, ErrAlgorithmRejected
		}
		return suite, nil
	}
	// MACNull verifies nothing, so a receiver accepts it only when it is
	// itself the NOP configuration: anyone can write a null-MAC header.
	if h.MAC == cryptolib.MACNull && e.cfg.MAC != cryptolib.MACNull {
		return nil, ErrAlgorithmRejected
	}
	if h.Secret() && len(e.cfg.AcceptCiphers) > 0 && !containsCipher(e.cfg.AcceptCiphers, h.Cipher) {
		return nil, ErrAlgorithmRejected
	}
	return suite, nil
}

func containsCipher(set []CipherID, c CipherID) bool {
	for _, v := range set {
		if v == c {
			return true
		}
	}
	return false
}

// StartSweeper runs the sweeper policy module periodically in the
// background (the standing sweeper of Figure 1) until the returned stop
// function is called. It uses wall-clock scheduling; simulations drive
// Sweep explicitly instead.
func (e *Endpoint) StartSweeper(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Minute
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				e.Sweep()
			case <-done:
				return
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// transmitFlowKey returns the TFKC slot for an outgoing datagram
// (Figure 6): K_f and the endpoint suite's instance expanded from it.
// hit reports whether the slot came from cache (vs. the MKD-miss
// derivation path) — the instrumentation splits the two, since a miss
// can cost a modular exponentiation. The note carries the miss path's
// keying annotations for tracing; a hit returns it empty.
func (e *Endpoint) transmitFlowKey(sfl SFL, src, dst principal.Address) (ks keySlot, hit bool, note SpanFlags, err error) {
	ck := flowCacheKey{SFL: sfl, Dst: dst, Src: src}
	if ks, ok := e.tfkc.Get(ck); ok {
		return ks, true, note, nil
	}
	master, note, err := e.plane.masterKey(dst, nil, nil)
	if err != nil {
		return keySlot{}, false, note, err
	}
	ks = e.suite.slot(FlowKey(cryptolib.HashMD5, sfl, master, src, dst))
	e.tfkc.Put(ck, ks)
	return ks, false, note, nil
}

// receiveFlowKey returns the RFKC slot for an incoming datagram, built
// on a miss for suite, the one the datagram's header names. hit reports
// whether the RFKC served it. The miss path is where receive-side
// overload control lives: unknown peers (no cached master key) must pass
// the admission gate and fit under the state budget before any directory
// or Diffie-Hellman work begins. Known peers bypass both — their keying
// costs one hash. Their sheds come back as bare ErrKeyingOverload and
// ErrStateBudget, every other failure as the key plane's error.
// Concurrent misses on one flow each derive K_f; the MKD's flight is
// what shares their upcall. la is openRun's look-ahead over the rest of
// the chunk, nil where it does not apply.
func (e *Endpoint) receiveFlowKey(sfl SFL, src, dst principal.Address, suite Suite, la *lookahead) (ks keySlot, hit bool, note SpanFlags, err error) {
	ck := flowCacheKey{SFL: sfl, Dst: dst, Src: src}
	if ks, ok := e.rfkc.Get(ck); ok {
		return ks, true, note, nil
	}
	if (e.gate != nil || e.cfg.StateBudget != nil) && !e.plane.ks.KnownPeer(src) {
		if e.gate != nil {
			if err := e.gate.Admit(); err != nil {
				return keySlot{}, false, FlagAdmitRefused, err
			}
			note |= FlagAdmitted
		}
		if e.cfg.StateBudget.Level() == BudgetHard {
			e.maybeRelievePressure(e.cfg.Clock.Now())
			return keySlot{}, false, note | FlagBudgetRefused, ErrStateBudget
		}
	}
	master, mnote, err := e.plane.masterKey(src, e.gate, la)
	note |= mnote
	if err != nil {
		return keySlot{}, false, note, err
	}
	ks = suite.slot(FlowKey(cryptolib.HashMD5, sfl, master, src, dst))
	e.rfkc.Put(ck, ks)
	return ks, false, note, nil
}

// Seal performs FBS send processing (FBSSend, Figure 4): classify into a
// flow, derive the flow key, build the security flow header, MAC, and
// optionally encrypt. It returns the protected datagram ready for the
// underlying transport. Seal does not transmit; Send does.
func (e *Endpoint) Seal(dg transport.Datagram, secret bool) (transport.Datagram, error) {
	out, sealed, err := e.sealOne(make([]byte, 0, len(dg.Payload)+sealRoom), dg, nil, secret)
	if err != nil {
		return transport.Datagram{}, err
	}
	sealed.Payload = out
	return sealed, nil
}

// SealAppend is the allocation-free form of Seal: it appends the sealed
// datagram (header then body) — or, for a bypassed peer, the payload
// unchanged — to dst and returns the extended slice. flow names the
// datagram's flow attributes; nil takes them from Config.Selector.
// Protocol mappings that know more about the datagram than the opaque
// payload shows (the IP mapping, which has the five-tuple from the IP
// header) pass them here. A seal needs HeaderSize+len(payload)+MACLen
// bytes of capacity (room for a legacy suite's padding block or an AEAD
// suite's staged tag); give dst that much and the steady-state path
// allocates nothing. dst must not alias dg.Payload.
func (e *Endpoint) SealAppend(dst []byte, dg transport.Datagram, flow *FlowID, secret bool) ([]byte, error) {
	out, _, err := e.sealOne(dst, dg, flow, secret)
	return out, err
}

// sealOne is the single doors' way into sealWalk: dg as a run of one.
// It returns dg as the walk left it — Source defaulted, Trace set when
// the observation gate fired — which Seal hands back with the sealed
// bytes as its payload.
func (e *Endpoint) sealOne(dst []byte, dg transport.Datagram, flow *FlowID, secret bool) ([]byte, transport.Datagram, error) {
	one := [1]transport.Datagram{dg}
	var res [1]BatchResult
	out, _ := e.sealWalk(dst, one[:], flow, secret, res[:], false)
	if res[0].Err != nil {
		return nil, transport.Datagram{}, res[0].Err
	}
	one[0].Trace = res[0].Trace
	return out, one[0], nil
}

// Send seals and transmits a datagram (FBSSend step S10): SendBatch's
// body over a batch of one. It returns the seal's refusal, or else the
// transport's error.
func (e *Endpoint) Send(dg transport.Datagram, secret bool) error {
	one := [1]transport.Datagram{dg}
	_, refused, err := e.send(one[:], secret, false)
	if refused != nil {
		return refused
	}
	return err
}

// SendTo is a convenience wrapper around Send.
func (e *Endpoint) SendTo(dst principal.Address, payload []byte, secret bool) error {
	return e.Send(transport.Datagram{Source: e.Addr(), Destination: dst, Payload: payload}, secret)
}

// Open performs FBS receive processing (FBSReceive, Figure 4) on a
// protected datagram: parse the header, check freshness, recover the flow
// key, decrypt if needed, and verify the MAC. It returns the recovered
// plaintext datagram; for an unencrypted body the returned payload
// aliases dg.Payload.
func (e *Endpoint) Open(dg transport.Datagram) (transport.Datagram, error) {
	var body []byte
	if _, err := e.openOne(nil, dg, &body); err != nil {
		return transport.Datagram{}, err
	}
	return transport.Datagram{Source: dg.Source, Destination: dg.Destination, Payload: body}, nil
}

// OpenAppend is the allocation-free form of Open: the recovered
// plaintext body is appended to dst and the extended slice returned.
// With capacity for len(dg.Payload) more bytes in dst the steady-state
// path performs no allocation. dst must not alias dg.Payload.
func (e *Endpoint) OpenAppend(dst []byte, dg transport.Datagram) ([]byte, error) {
	return e.openOne(dst, dg, nil)
}

// openOne is the single doors' way into openWalk: dg as a run of one.
// With alias nil the recovered body is appended to dst; otherwise dst
// only stages a decrypted body and *alias receives the body itself,
// which for cleartext is a slice of dg.Payload (see deliver).
func (e *Endpoint) openOne(dst []byte, dg transport.Datagram, alias *[]byte) ([]byte, error) {
	one := [1]transport.Datagram{dg}
	var res [1]BatchResult
	out, _ := e.openWalk(dst, one[:], res[:], alias, false)
	if res[0].Err != nil {
		return nil, res[0].Err
	}
	return out, nil
}

// Receive blocks for the next datagram from the transport that passes
// every check and returns it opened. Refused datagrams are counted in
// Snapshot's Drops and skipped; a transport error ends the call and is
// returned as it is (transport.ErrClosed once the endpoint is shut
// down).
func (e *Endpoint) Receive() (transport.Datagram, error) {
	for {
		dg, err := e.cfg.Transport.Receive()
		if err != nil {
			return transport.Datagram{}, err
		}
		if dg, err = e.Open(dg); err == nil {
			return dg, nil
		}
	}
}
