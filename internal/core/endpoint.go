package core

import (
	"errors"
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

	// Cache geometry; zero picks reasonable defaults.
	TFKCSize int
	RFKCSize int
	PVCSize  int
	MKCSize  int

	// KeyRetry bounds directory fetches on the keying path; the zero
	// value keeps the historic single-attempt behaviour. See
	// RetryPolicy.
	KeyRetry RetryPolicy
	// KeyNegativeTTL remembers failed peer lookups for this long so a
	// burst of datagrams to an unreachable peer fails fast instead of
	// queueing a full retry loop each (0 disables).
	KeyNegativeTTL time.Duration
	// KeyStaleWindow serves a certificate that expired less than this
	// long ago while refetching fails (stale-while-revalidate; 0
	// disables). See KeyServiceConfig.StaleWhileRevalidate.
	KeyStaleWindow time.Duration
	// UpcallTimeout bounds how long a seal/open blocks on a master key
	// daemon upcall; 0 waits forever. A timed-out datagram is dropped
	// with DropKeying while the daemon finishes in the background.
	UpcallTimeout time.Duration

	// AcceptMACs restricts which MAC constructions incoming datagrams
	// may use; empty accepts any construction this library implements.
	// The header's algorithm identification field is self-describing
	// (Section 5.2 prescribes the field "for generality"); a receiver
	// policy is what keeps self-description from becoming
	// attacker-choice. A non-empty set also gates the AEAD suites: their
	// integrity is intrinsic (MACAEAD), so a strict config admits them
	// only by listing MACAEAD here or by naming the suite in
	// AcceptCiphers — pinning legacy MACs never silently widens to the
	// AEAD tier.
	AcceptMACs []cryptolib.MACID
	// AcceptCiphers is the accept-set of suite IDs incoming datagrams
	// may use; empty accepts any registered suite. For AEAD suites the
	// set is enforced on every datagram (the suite owns integrity); for
	// legacy suites, as before, only encrypted bodies are constrained
	// (a cleartext body's cipher nibble is inert).
	AcceptCiphers []CipherID

	// EnableReplayCache turns on exact-duplicate suppression within the
	// freshness window (an extension beyond the paper; see ReplayCache).
	EnableReplayCache bool
	// CombinedFSTTFKC merges the flow state table and the transmission
	// flow key cache so classification and key lookup are one probe —
	// the Section 7.2 send-path optimisation.
	CombinedFSTTFKC bool
	// SinglePass fuses MAC computation and encryption into one pass
	// over the data (Section 5.3's data-touching optimisation).
	SinglePass bool
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
	tfkc *DirectMapped[flowCacheKey, [16]byte]
	rfkc *DirectMapped[flowCacheKey, [16]byte]
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
	// the flow-key derivation single-flight, the rate limiter for
	// pressure-relief sweeps, and the edge pre-filter (nil when
	// disabled).
	gate           *admissionGate
	flight         flight[flowCacheKey, keyResult]
	lastPressure   atomic.Int64 // unix nanos of the last pressure sweep
	pressureSweeps atomic.Uint64
	pf             *prefilter

	// Lifecycle plane: draining refuses new datagram work so inflight
	// can reach zero (Quiesce); closed makes Close idempotent.
	draining atomic.Bool
	closed   atomic.Bool
	inflight atomic.Int64

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
	if cfg.TFKCSize <= 0 {
		cfg.TFKCSize = 256
	}
	if cfg.RFKCSize <= 0 {
		cfg.RFKCSize = 256
	}
	if cfg.PVCSize <= 0 {
		cfg.PVCSize = 64
	}
	if cfg.MKCSize <= 0 {
		cfg.MKCSize = 64
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
		tfkc:  NewDirectMapped[flowCacheKey, [16]byte](cfg.TFKCSize, flowCacheKey.hash),
		rfkc:  NewDirectMapped[flowCacheKey, [16]byte](cfg.RFKCSize, flowCacheKey.hash),
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

// beginOp admits one datagram-plane operation past the drain gate; it
// must be paired with endOp. Increment-before-check closes the race
// with BeginDrain: an op that observes draining surrenders its slot,
// so once BeginDrain's store is visible every admitted op is covered
// by Quiesce's wait on the in-flight count.
func (e *Endpoint) beginOp() error {
	e.inflight.Add(1)
	if e.draining.Load() {
		e.inflight.Add(-1)
		return ErrDraining
	}
	return nil
}

func (e *Endpoint) endOp() { e.inflight.Add(-1) }

// BeginDrain flips the endpoint into drain mode: subsequent seals and
// opens (single or batched) are refused with ErrDraining while
// operations already past the gate run to completion. Draining is
// one-way — a gateway swapping config epochs builds a fresh endpoint
// rather than reviving a drained one.
func (e *Endpoint) BeginDrain() { e.draining.Store(true) }

// Inflight reports the number of datagram operations currently past
// the drain gate (a monitoring aid for drain progress).
func (e *Endpoint) Inflight() int64 { return e.inflight.Load() }

// Quiesce begins draining and waits until every in-flight operation
// has finished. It returns nil once the endpoint is quiet, or an error
// naming the residual in-flight count if the wall-clock deadline
// passes first. Idempotent and safe to call concurrently.
func (e *Endpoint) Quiesce(timeout time.Duration) error {
	e.BeginDrain()
	deadline := time.Now().Add(timeout)
	for {
		n := e.inflight.Load()
		if n == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("core: quiesce timed out with %d operations in flight", n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// FlushPeer evicts everything cached about peer — verified
// certificate, pair master key, negative-lookup memory, and both
// directions' flow keys — so the next datagram to or from peer re-keys
// from scratch. This is the hot-rotation seam: rotating one peer's
// credentials flushes that peer alone, leaving every other flow's
// soft state untouched.
func (e *Endpoint) FlushPeer(peer principal.Address) {
	e.plane.ks.FlushPeer(peer)
	match := func(k flowCacheKey, _ [16]byte) bool {
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
// DropAlgorithm. The refmodel mirrors this decision table exactly.
func (e *Endpoint) checkAlg(h *Header) (Suite, error) {
	suite := SuiteByID(h.Cipher)
	if suite == nil {
		return nil, fmt.Errorf("%w: cipher %v", ErrAlgorithmUnknown, h.Cipher)
	}
	if !suite.ValidHeader(*h) {
		return nil, fmt.Errorf("%w: suite %s cannot carry MAC %v / mode %v",
			ErrAlgorithmUnknown, suite.Name(), h.MAC, h.Mode)
	}
	if suite.AEAD() {
		// Integrity is intrinsic — the MAC byte is structurally MACAEAD —
		// but that must not widen a strict legacy config's accept set: an
		// endpoint that pinned AcceptMACs before the AEAD suites existed
		// keeps exactly its pre-AEAD policy until it opts in. An AEAD
		// suite is admitted when policy is fully open, when AcceptMACs
		// names MACAEAD, or when AcceptCiphers names the suite explicitly.
		// The cipher accept-set binds secret and cleartext bodies alike
		// (the suite authenticates both).
		explicit := containsCipher(e.cfg.AcceptCiphers, h.Cipher)
		if len(e.cfg.AcceptCiphers) > 0 && !explicit {
			return nil, fmt.Errorf("%w: MAC %v, cipher %v", ErrAlgorithmRejected, h.MAC, h.Cipher)
		}
		if len(e.cfg.AcceptMACs) > 0 && !explicit && !containsMAC(e.cfg.AcceptMACs, cryptolib.MACAEAD) {
			return nil, fmt.Errorf("%w: MAC %v, cipher %v", ErrAlgorithmRejected, h.MAC, h.Cipher)
		}
		return suite, nil
	}
	if len(e.cfg.AcceptMACs) > 0 && !containsMAC(e.cfg.AcceptMACs, h.MAC) {
		return nil, fmt.Errorf("%w: MAC %v, cipher %v", ErrAlgorithmRejected, h.MAC, h.Cipher)
	}
	if h.Secret() && len(e.cfg.AcceptCiphers) > 0 && !containsCipher(e.cfg.AcceptCiphers, h.Cipher) {
		return nil, fmt.Errorf("%w: MAC %v, cipher %v", ErrAlgorithmRejected, h.MAC, h.Cipher)
	}
	return suite, nil
}

func containsMAC(set []cryptolib.MACID, m cryptolib.MACID) bool {
	for _, v := range set {
		if v == m {
			return true
		}
	}
	return false
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

// transmitFlowKey returns the flow key for an outgoing datagram,
// consulting the TFKC (Figure 6) or, in combined mode, the flow state
// table entry itself (Section 7.2). hit reports whether the key came
// from cache (vs. the MKD-miss derivation path) — the instrumentation
// splits the two, since a miss can cost a modular exponentiation. The
// note carries the miss path's keying annotations for tracing; a hit
// returns it empty.
func (e *Endpoint) transmitFlowKey(sfl SFL, slot int, src, dst principal.Address) (k [16]byte, hit bool, note KeyNote, err error) {
	if e.cfg.CombinedFSTTFKC {
		if k, ok := e.fam.getFlowKey(slot, sfl); ok {
			return k, true, note, nil
		}
	} else {
		if k, ok := e.tfkc.Get(flowCacheKey{SFL: sfl, Dst: dst, Src: src}); ok {
			return k, true, note, nil
		}
	}
	master, mnote, err := e.plane.masterKey(dst, nil, nil)
	note.merge(mnote)
	if err != nil {
		return [16]byte{}, false, note, err
	}
	k = FlowKey(cryptolib.HashMD5, sfl, master, src, dst)
	if e.cfg.CombinedFSTTFKC {
		e.fam.setFlowKey(slot, sfl, k)
	} else {
		e.tfkc.Put(flowCacheKey{SFL: sfl, Dst: dst, Src: src}, k)
	}
	return k, false, note, nil
}

// receiveFlowKey returns the flow key for an incoming datagram via the
// RFKC. hit reports whether the RFKC served it. The miss path is where
// receive-side overload control lives: concurrent misses for the same
// flow coalesce into one derivation, and unknown peers (no cached
// master key) must pass the admission gate and fit under the state
// budget before any directory or Diffie-Hellman work begins. Known
// peers bypass both — their keying costs one hash. la is openRun's
// look-ahead over the rest of the chunk, nil where it does not apply.
func (e *Endpoint) receiveFlowKey(sfl SFL, src, dst principal.Address, la *lookahead) (k [16]byte, hit bool, note KeyNote, err error) {
	ck := flowCacheKey{SFL: sfl, Dst: dst, Src: src}
	if k, ok := e.rfkc.Get(ck); ok {
		return k, true, note, nil
	}
	r, joined := e.flight.do(ck, func() (m keyResult) {
		if e.gate != nil || e.cfg.StateBudget != nil {
			if !e.plane.ks.KnownPeer(src) {
				if e.gate != nil {
					if m.err = e.gate.Admit(src); m.err != nil {
						m.note.Flags |= FlagAdmitRefused
						return m
					}
					m.note.Flags |= FlagAdmitted
				}
				if e.cfg.StateBudget.Level() == BudgetHard {
					m.note.Flags |= FlagBudgetRefused
					e.maybeRelievePressure(e.cfg.Clock.Now())
					m.err = fmt.Errorf("%w: keying %q", ErrStateBudget, src)
					return m
				}
			}
		}
		master, mnote, err := e.plane.masterKey(src, e.gate, la)
		m.note.merge(mnote)
		if m.err = err; err != nil {
			return m
		}
		m.key = FlowKey(cryptolib.HashMD5, sfl, master, src, dst)
		e.rfkc.Put(ck, m.key)
		return m
	})
	if joined {
		// A follower shares the leader's result and note, plus the
		// coalescing mark itself.
		r.note.Flags |= FlagKeyCoalesced
	}
	return r.key, false, r.note, r.err
}

// Seal performs FBS send processing (FBSSend, Figure 4): classify into a
// flow, derive the flow key, build the security flow header, MAC, and
// optionally encrypt. It returns the protected datagram ready for the
// underlying transport. Seal does not transmit; Send does.
func (e *Endpoint) Seal(dg transport.Datagram, secret bool) (transport.Datagram, error) {
	if dg.Source == "" {
		dg.Source = e.Addr()
	}
	return e.SealFlow(dg, e.cfg.Selector(dg), secret)
}

// SealAppend is the allocation-free form of Seal: it appends the sealed
// datagram (header then body) to dst and returns the extended slice.
// With sufficient capacity in dst the steady-state path performs no
// allocation. dst must not alias dg.Payload.
func (e *Endpoint) SealAppend(dst []byte, dg transport.Datagram, secret bool) ([]byte, error) {
	if dg.Source == "" {
		dg.Source = e.Addr()
	}
	return e.SealFlowAppend(dst, dg, e.cfg.Selector(dg), secret)
}

// SealFlow is Seal with the flow attributes supplied by the caller
// instead of the configured Selector. Protocol mappings that know more
// about the datagram than the opaque payload shows (e.g. the IP mapping,
// which has the protocol number from the IP header) use this entry
// point.
func (e *Endpoint) SealFlow(dg transport.Datagram, id FlowID, secret bool) (transport.Datagram, error) {
	if dg.Source == "" {
		dg.Source = e.Addr()
	}
	out, tid, err := e.sealOne(make([]byte, 0, HeaderSize+len(dg.Payload)+cryptolib.BlockSize), dg, id, secret)
	if err != nil {
		return transport.Datagram{}, err
	}
	return transport.Datagram{Source: dg.Source, Destination: dg.Destination, Payload: out, Trace: tid}, nil
}

// SealFlowAppend is the allocation-free form of SealFlow. The sealed
// datagram — or, for a bypassed peer, the payload unchanged — is
// appended to dst. A sealed datagram needs at most
// HeaderSize+len(payload)+cryptolib.BlockSize bytes of capacity (the
// block is padding headroom when encrypting); give dst that much and the
// steady-state path allocates nothing. dst must not alias dg.Payload.
func (e *Endpoint) SealFlowAppend(dst []byte, dg transport.Datagram, id FlowID, secret bool) ([]byte, error) {
	out, _, err := e.sealOne(dst, dg, id, secret)
	return out, err
}

// sealOne is the single doors' way into sealWalk: dg as a run of one
// under the flow its caller chose. It reports the trace ID the
// observation gate allocated (0 when untraced), which SealFlow stamps
// on the sealed Datagram for Send.
func (e *Endpoint) sealOne(dst []byte, dg transport.Datagram, id FlowID, secret bool) ([]byte, TraceID, error) {
	one := [1]transport.Datagram{dg}
	var res [1]BatchResult
	out, _ := e.sealWalk(dst, one[:], &id, secret, res[:], false)
	if res[0].Err != nil {
		return nil, 0, res[0].Err
	}
	return out, res[0].Trace, nil
}

// Send seals and transmits a datagram (FBSSend step S10). A traced
// datagram (see Config.Tracer) carries its trace ID in the sealed
// Datagram's metadata, and the transport handoff is timed as its own
// span.
func (e *Endpoint) Send(dg transport.Datagram, secret bool) error {
	sealed, err := e.Seal(dg, secret)
	if err != nil {
		return err
	}
	if e.pf != nil {
		// Echo a pending cookie challenge from this destination: the
		// envelope wraps the already-sealed datagram, so the sealed wire
		// image itself is unchanged.
		sealed.Payload = e.prefilterWrap(sealed.Payload, sealed.Destination)
	}
	if tr := e.cfg.Tracer; tr != nil && sealed.Trace != 0 {
		t := time.Now()
		err = e.cfg.Transport.Send(sealed)
		sp := Span{Trace: sealed.Trace, Kind: SpanTransportSend, Seal: true,
			Start: t, Dur: time.Since(t), Attr: uint64(len(sealed.Payload))}
		if err != nil {
			sp.Drop = DropReasonOf(err)
		}
		tr.Span(sp)
	} else {
		err = e.cfg.Transport.Send(sealed)
	}
	if err != nil {
		return err
	}
	e.metrics.sent.Add(1)
	e.metrics.sentBytes.Add(uint64(len(dg.Payload)))
	if secret {
		e.metrics.sentSecret.Add(1)
	}
	return nil
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

// Receive blocks for the next datagram from the transport and opens it.
// Rejected datagrams return an error; callers typically log and continue.
// A transport.ErrClosed error means the endpoint is shut down.
func (e *Endpoint) Receive() (transport.Datagram, error) {
	dg, err := e.cfg.Transport.Receive()
	if err != nil {
		return transport.Datagram{}, err
	}
	return e.Open(dg)
}

// ReceiveValid loops until a datagram passes all checks or the transport
// closes, counting rejections in the drop counters.
func (e *Endpoint) ReceiveValid() (transport.Datagram, error) {
	for {
		dg, err := e.Receive()
		if err == nil {
			return dg, nil
		}
		if errors.Is(err, transport.ErrClosed) {
			return transport.Datagram{}, err
		}
	}
}
