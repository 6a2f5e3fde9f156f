package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fbs/internal/cert"
	"fbs/internal/cryptolib"
	"fbs/internal/principal"
)

// FlowKey derives the per-flow key K_f = H(sfl | K_{S,D} | S | D)
// (Section 5.2). Knowing K_f reveals neither K_{S,D} nor any other flow
// key, because H is one way; including S and D ties the key to the
// directed principal pair.
func FlowKey(hash cryptolib.HashID, sfl SFL, master [16]byte, src, dst principal.Address) [16]byte {
	var sflBytes [8]byte
	binary.BigEndian.PutUint64(sflBytes[:], uint64(sfl))
	sum := cryptolib.Digest(hash, sflBytes[:], master[:], src.Wire(), dst.Wire())
	var out [16]byte
	copy(out[:], sum)
	return out
}

// flowCacheKey indexes the transmission and receive flow key caches. Per
// Section 5.3 the TFKC is indexed by (sfl, D, S) — S is included for
// multi-homed principals (footnote 7).
type flowCacheKey struct {
	SFL SFL
	Dst principal.Address
	Src principal.Address
}

func (k flowCacheKey) hash() uint32 {
	state := uint32(0xFFFFFFFF)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(k.SFL))
	state = cryptolib.CRC32Update(state, b[:])
	state = cryptolib.CRC32UpdateString(state, string(k.Dst))
	state = cryptolib.CRC32UpdateString(state, string(k.Src))
	return state ^ 0xFFFFFFFF
}

func addrHash(a principal.Address) uint32 {
	return cryptolib.CRC32UpdateString(0xFFFFFFFF, string(a)) ^ 0xFFFFFFFF
}

// pvcHash indexes the PVC. Under addrHash, the MKC's index, two
// equal-sized caches would put every peer in the same slot of each, so a
// peer evicted from the MKC by a slot-mate has lost its certificate too.
// The salt is a suffix because CRC-32 is affine in its initial state: a
// salted start would only XOR every hash with one constant per address
// length and keep the collisions.
func pvcHash(a principal.Address) uint32 {
	return cryptolib.CRC32UpdateString(cryptolib.CRC32UpdateString(0xFFFFFFFF, string(a)), "pvc") ^ 0xFFFFFFFF
}

// KeyServiceStats counts keying activity below the flow key caches.
type KeyServiceStats struct {
	MasterKeyRequests uint64
	MasterKeyComputes uint64 // modular exponentiations performed
	CertFetches       uint64 // directory round trips (PVC misses)
	CertVerifies      uint64
	Failures          uint64

	// Retries counts directory lookups repeated after a failure (the
	// bounded-backoff path).
	Retries uint64
	// NegativeHits counts lookups refused fast because the peer failed
	// recently (the negative-result cache).
	NegativeHits uint64
	// StaleServed counts just-expired certificates served under the
	// stale-while-revalidate window because revalidation failed.
	StaleServed uint64
	// DeadlineExceeded counts retry loops abandoned for blowing their
	// deadline before exhausting MaxAttempts.
	DeadlineExceeded uint64
}

// keyServiceCounters is the lock-free internal form of KeyServiceStats:
// keying runs concurrently with the per-packet hot path, so its counters
// are atomics rather than a shared mutex.
type keyServiceCounters struct {
	masterKeyRequests atomic.Uint64
	masterKeyComputes atomic.Uint64
	certFetches       atomic.Uint64
	certVerifies      atomic.Uint64
	failures          atomic.Uint64

	retries          atomic.Uint64
	negativeHits     atomic.Uint64
	staleServed      atomic.Uint64
	deadlineExceeded atomic.Uint64
}

// RetryPolicy bounds how hard the keying plane fights a failing
// directory. The zero value means a single attempt with no backoff —
// exactly the pre-chaos behaviour — so existing configurations are
// unchanged. A populated policy retries with exponential backoff plus
// jitter: sleep_n = min(Base·2ⁿ, Max) scaled by a uniform factor in
// [1-JitterFrac, 1+JitterFrac], abandoning the loop once Deadline has
// elapsed. Bounding both attempts and elapsed time is what keeps an MKD
// outage from turning a datagram burst into an upcall storm.
type RetryPolicy struct {
	// MaxAttempts is the total number of directory lookups per fetch
	// (1 attempt = no retry). Values below 1 mean 1.
	MaxAttempts int
	// BaseBackoff is the first retry's sleep; default 10ms when
	// MaxAttempts > 1.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth; default 1s.
	MaxBackoff time.Duration
	// JitterFrac spreads each sleep by ±JitterFrac (clamped to [0, 1]).
	JitterFrac float64
	// Deadline bounds the whole retry loop, sleeps included; 0 means
	// attempts alone bound it.
	Deadline time.Duration
}

// withDefaults normalises the policy.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.MaxAttempts > 1 && p.BaseBackoff <= 0 {
		p.BaseBackoff = 10 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = time.Second
	}
	if p.JitterFrac < 0 {
		p.JitterFrac = 0
	}
	if p.JitterFrac > 1 {
		p.JitterFrac = 1
	}
	return p
}

// backoff returns the sleep before attempt n (1-based: the sleep after
// the n-th failure), jittered by u ∈ [0, 1).
func (p RetryPolicy) backoff(n int, u float64) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < n; i++ {
		d *= 2
		if d >= p.MaxBackoff {
			d = p.MaxBackoff
			break
		}
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if p.JitterFrac > 0 {
		scale := 1 - p.JitterFrac + 2*p.JitterFrac*u
		d = time.Duration(float64(d) * scale)
	}
	return d
}

// KeyService implements the zero-message keying mechanism below the flow
// key level: the public value cache (PVC), the master key cache (MKC),
// certificate fetching and verification, and the Diffie-Hellman master
// key computation. It is what the master key daemon (MKD) serves upcalls
// from (Section 5.3, Figure 5).
type KeyService struct {
	self     *principal.Identity
	dir      cert.Directory
	verifier *cert.Verifier
	clock    Clock

	pvc *DirectMapped[principal.Address, *cert.Certificate]
	mkc *DirectMapped[principal.Address, [16]byte]

	retry  RetryPolicy
	negTTL time.Duration
	swr    time.Duration
	sleep  func(time.Duration)

	// negative-result cache and the jitter RNG, both off the per-packet
	// hot path (only directory fetches touch them).
	negMu sync.Mutex
	neg   map[principal.Address]time.Time
	rng   *cryptolib.LCG

	stats keyServiceCounters
}

// negCacheCap bounds the negative-result cache so an address scan
// cannot grow it without limit.
const negCacheCap = 1024

// KeyServiceConfig sizes the key caches and configures how the service
// degrades when the directory does not answer.
type KeyServiceConfig struct {
	// PVCSize should be at least the expected number of concurrent
	// correspondent principals — PVC misses cost a network round trip.
	PVCSize int
	// MKCSize bounds cached pair-based master keys; an MKC miss costs a
	// modular exponentiation.
	MKCSize int

	// Retry bounds directory lookups; the zero value keeps the historic
	// single-attempt behaviour.
	Retry RetryPolicy
	// NegativeTTL caches a failed peer lookup for this long, failing
	// later requests for the same peer immediately instead of hammering
	// a directory that just said no. 0 disables the cache.
	NegativeTTL time.Duration
	// StaleWhileRevalidate lets a certificate that expired less than
	// this long ago keep deriving flow keys while refetching fails. The
	// stale certificate is still required to verify at its own NotAfter
	// instant, so only genuine, recently valid certificates qualify —
	// never a bad signature. 0 disables the mode.
	StaleWhileRevalidate time.Duration
	// Sleep is the backoff sleeper; nil means time.Sleep. Tests inject
	// a recorder to assert the backoff schedule without waiting it out.
	Sleep func(time.Duration)
}

// NewKeyService wires the keying mechanism for one principal.
func NewKeyService(self *principal.Identity, dir cert.Directory, verifier *cert.Verifier, clock Clock, cfg KeyServiceConfig) *KeyService {
	if clock == nil {
		clock = RealClock{}
	}
	if cfg.PVCSize <= 0 {
		cfg.PVCSize = 64
	}
	if cfg.MKCSize <= 0 {
		cfg.MKCSize = 64
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	return &KeyService{
		self:     self,
		dir:      dir,
		verifier: verifier,
		clock:    clock,
		pvc:      NewDirectMapped[principal.Address, *cert.Certificate](cfg.PVCSize, pvcHash),
		mkc:      NewDirectMapped[principal.Address, [16]byte](cfg.MKCSize, addrHash),
		retry:    cfg.Retry.withDefaults(),
		negTTL:   cfg.NegativeTTL,
		swr:      cfg.StaleWhileRevalidate,
		sleep:    cfg.Sleep,
		neg:      make(map[principal.Address]time.Time),
		// Backoff jitter wants spread, not secrecy: a fixed seed will do.
		rng: cryptolib.NewLCGSeeded(0xFB5BACC0FF),
	}
}

// SetBudget attaches the shared soft-state budget: the PVC charges
// CostCertEntry and the MKC CostMasterKeyEntry per valid slot. Call
// before the service handles traffic.
func (ks *KeyService) SetBudget(b *Budget) {
	ks.pvc.SetBudget(b, CostCertEntry)
	ks.mkc.SetBudget(b, CostMasterKeyEntry)
}

// KnownPeer reports whether peer's master key is already cached,
// without touching cache counters. The admission gate uses this peek:
// keying a known peer costs one hash, not an exponentiation, so known
// peers bypass admission control entirely.
func (ks *KeyService) KnownPeer(peer principal.Address) bool {
	_, ok := ks.mkc.Peek(peer)
	return ok
}

// MasterKey returns the pair-based master key with peer, computing and
// caching it as needed. The path mirrors Figure 6: MKC hit → done;
// otherwise PVC (fetching and verifying a certificate on miss), then one
// modular exponentiation, then install in the MKC.
func (ks *KeyService) MasterKey(peer principal.Address) ([16]byte, error) {
	if k, ok := ks.cachedMasterKey(peer); ok {
		return k, nil
	}
	return ks.masterKeyMiss(peer, new(KeyNote))
}

// cachedMasterKey is the MKC probe every request makes exactly once: it
// moves one request count and one MKC hit-or-miss count.
func (ks *KeyService) cachedMasterKey(peer principal.Address) ([16]byte, bool) {
	ks.stats.masterKeyRequests.Add(1)
	return ks.mkc.Get(peer)
}

// masterKeyMiss is Figure 6 below the MKC — what the daemon runs for a
// request whose probe missed — annotating note with which tier answered
// and how the fetch path degraded: the per-request counterpart of the
// aggregate KeyServiceStats counters, consumed by the tracing plane. It
// looks at the MKC once more, uncounted: a request that missed just
// before a computation for the same peer finished must find that key,
// not pay a second exponentiation.
func (ks *KeyService) masterKeyMiss(peer principal.Address, note *KeyNote) ([16]byte, error) {
	if k, ok := ks.mkc.Peek(peer); ok {
		note.Flags |= FlagKeyMKCHit
		return k, nil
	}
	c, err := ks.certificateNoted(peer, note)
	if err != nil {
		ks.stats.failures.Add(1)
		return [16]byte{}, err
	}
	k, err := ks.self.MasterKey(c.Public)
	if err != nil {
		ks.stats.failures.Add(1)
		return [16]byte{}, fmt.Errorf("core: master key with %q: %w", peer, err)
	}
	ks.stats.masterKeyComputes.Add(1)
	note.Flags |= FlagKeyComputed
	ks.mkc.Put(peer, k)
	return k, nil
}

// ErrPeerUnavailable marks a lookup refused by the negative-result
// cache: the directory failed for this peer recently and the TTL has
// not yet expired.
var ErrPeerUnavailable = errors.New("core: peer certificate recently unavailable")

// negCached reports whether peer is inside its negative-TTL window.
func (ks *KeyService) negCached(peer principal.Address, now time.Time) bool {
	if ks.negTTL <= 0 {
		return false
	}
	ks.negMu.Lock()
	defer ks.negMu.Unlock()
	exp, ok := ks.neg[peer]
	if !ok {
		return false
	}
	if now.Before(exp) {
		return true
	}
	delete(ks.neg, peer)
	return false
}

// negRemember installs a negative entry for peer; negForget clears it.
func (ks *KeyService) negRemember(peer principal.Address, now time.Time) {
	if ks.negTTL <= 0 {
		return
	}
	ks.negMu.Lock()
	defer ks.negMu.Unlock()
	if len(ks.neg) >= negCacheCap {
		for k := range ks.neg { // evict one arbitrary entry
			delete(ks.neg, k)
			break
		}
	}
	ks.neg[peer] = now.Add(ks.negTTL)
}

func (ks *KeyService) negForget(peer principal.Address) {
	if ks.negTTL <= 0 {
		return
	}
	ks.negMu.Lock()
	delete(ks.neg, peer)
	ks.negMu.Unlock()
}

// jitterUnit draws a uniform value in [0, 1) for backoff jitter.
func (ks *KeyService) jitterUnit() float64 {
	ks.negMu.Lock()
	u := float64(ks.rng.Uint32()) / float64(1<<32)
	ks.negMu.Unlock()
	return u
}

// lookup fetches a certificate from the directory under the retry
// policy: negative-cache fast path, then up to MaxAttempts tries with
// exponential backoff + jitter, abandoned early once Deadline elapses.
// Failures are remembered in the negative cache so the next burst of
// datagrams to the same unreachable peer fails fast instead of queueing
// behind a full retry loop each.
func (ks *KeyService) lookup(peer principal.Address, note *KeyNote) (*cert.Certificate, error) {
	start := ks.clock.Now()
	if ks.negCached(peer, start) {
		ks.stats.negativeHits.Add(1)
		note.Flags |= FlagKeyNegCache
		return nil, fmt.Errorf("%w: %q", ErrPeerUnavailable, peer)
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		note.Attempts = max(note.Attempts, uint32(attempt))
		c, err := ks.dir.Lookup(peer)
		if err == nil {
			ks.negForget(peer)
			return c, nil
		}
		lastErr = err
		if attempt >= ks.retry.MaxAttempts {
			break
		}
		if ks.retry.Deadline > 0 && ks.clock.Now().Sub(start) >= ks.retry.Deadline {
			ks.stats.deadlineExceeded.Add(1)
			break
		}
		ks.stats.retries.Add(1)
		note.Flags |= FlagKeyRetried
		ks.sleep(ks.retry.backoff(attempt, ks.jitterUnit()))
	}
	ks.negRemember(peer, ks.clock.Now())
	return nil, lastErr
}

// staleUsable decides whether an expired cached certificate may keep
// serving under stale-while-revalidate: it must have failed only by
// expiry (it still verifies at its own NotAfter instant — signature,
// issuer and subject intact) and the expiry must be within the window.
// A forged or revoked-by-reissue certificate never qualifies.
func (ks *KeyService) staleUsable(c *cert.Certificate, peer principal.Address, now time.Time) bool {
	if ks.swr <= 0 || c == nil {
		return false
	}
	if !now.After(c.NotAfter) || now.Sub(c.NotAfter) > ks.swr {
		return false
	}
	return ks.verifier.Verify(c, peer, c.NotAfter) == nil
}

// certificateNoted returns a verified certificate for peer, via the PVC.
// The certificate is verified on every use — the PVC need not be a secure
// store because of this (Section 5.3). When the directory is failing,
// the retry policy bounds the fetch, the negative cache absorbs repeat
// misses, and (if enabled) stale-while-revalidate lets a just-expired
// certificate keep the flow alive while each use retries the refetch.
// note is annotated with the degradation verdicts
// (negative-cache refusals, retry attempts, stale serves) for the
// tracing plane.
func (ks *KeyService) certificateNoted(peer principal.Address, note *KeyNote) (*cert.Certificate, error) {
	now := ks.clock.Now()
	c, ok := ks.pvc.Get(peer)
	if !ok {
		var err error
		ks.stats.certFetches.Add(1)
		c, err = ks.lookup(peer, note)
		if err != nil {
			return nil, fmt.Errorf("core: fetching certificate for %q: %w", peer, err)
		}
		ks.pvc.Put(peer, c)
	}
	ks.stats.certVerifies.Add(1)
	if err := ks.verifier.Verify(c, peer, now); err != nil {
		// A cached certificate may simply have expired; drop it and
		// refetch (bounded by the retry policy).
		ks.pvc.Invalidate(peer)
		ks.stats.certFetches.Add(1)
		fresh, ferr := ks.lookup(peer, note)
		if ferr != nil {
			if ks.staleUsable(c, peer, now) {
				ks.stats.staleServed.Add(1)
				note.Flags |= FlagKeyStale
				ks.pvc.Put(peer, c) // keep revalidating on later uses
				return c, nil
			}
			return nil, err
		}
		ks.stats.certVerifies.Add(1)
		if verr := ks.verifier.Verify(fresh, peer, now); verr != nil {
			if ks.staleUsable(c, peer, now) {
				ks.stats.staleServed.Add(1)
				note.Flags |= FlagKeyStale
				ks.pvc.Put(peer, c)
				return c, nil
			}
			return nil, verr
		}
		ks.pvc.Put(peer, fresh)
		c = fresh
	}
	return c, nil
}

// Pin installs a certificate directly into the PVC ("pin certain
// certificates in the cache upon initialization", Section 5.3). The
// certificate is still verified on each use.
func (ks *KeyService) Pin(c *cert.Certificate) { ks.pvc.Put(c.Subject, c) }

// InvalidatePeer drops cached state for peer (e.g. after learning it
// rekeyed).
func (ks *KeyService) InvalidatePeer(peer principal.Address) {
	ks.pvc.Invalidate(peer)
	ks.mkc.Invalidate(peer)
}

// FlushPeer drops all keying state for peer — verified certificate,
// pair master key, and negative-lookup memory — forcing the next
// contact to re-run the full upcall chain. Endpoint.FlushPeer layers
// the flow-key caches on top.
func (ks *KeyService) FlushPeer(peer principal.Address) {
	ks.InvalidatePeer(peer)
	ks.negForget(peer)
}

// Stats returns a snapshot of keying counters.
func (ks *KeyService) Stats() KeyServiceStats {
	return KeyServiceStats{
		MasterKeyRequests: ks.stats.masterKeyRequests.Load(),
		MasterKeyComputes: ks.stats.masterKeyComputes.Load(),
		CertFetches:       ks.stats.certFetches.Load(),
		CertVerifies:      ks.stats.certVerifies.Load(),
		Failures:          ks.stats.failures.Load(),
		Retries:           ks.stats.retries.Load(),
		NegativeHits:      ks.stats.negativeHits.Load(),
		StaleServed:       ks.stats.staleServed.Load(),
		DeadlineExceeded:  ks.stats.deadlineExceeded.Load(),
	}
}
