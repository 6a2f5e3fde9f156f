package core

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

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

// flowKeyCacheSize is the slot count of each of an endpoint's TFKC and
// RFKC: one slot per flow state table entry, well on the flat part of
// the miss curve EXPERIMENTS.md measures for Figure 11.
const flowKeyCacheSize = DefaultFSTSize

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

	stats keyServiceCounters
}

// keyCacheSize is the slot count of a key service's PVC and of its MKC:
// a PVC miss costs a directory round trip, an MKC miss a modular
// exponentiation. A ShardGroup's key plane has shards × this many.
//
// It is derived, not tuned: a level is never smaller than the levels it
// serves. A shard's TFKC and RFKC together hold flow keys for up to
// 2 × flowKeyCacheSize distinct peers, so a miss here should be
// compulsory, never one of capacity. The caches are direct-mapped, so
// size alone does not stop conflicts: of P peers in S slots about
// 1 − e^(−P/S) share a slot and re-key on every revisit, which is why S
// is not cut to the TFKC's 256. An empty slot costs 40 B (MKC) + 32 B
// (PVC): ≈ 37 KB for a standalone endpoint, ≈ 74 KB for a two-shard
// plane. The budget charge per filled peer (CostMasterKeyEntry +
// CostCertEntry) does not depend on the size.
const keyCacheSize = 2 * flowKeyCacheSize

// KeyServiceConfig is empty: a failed directory lookup is not retried
// or remembered. The key plane's state is soft (Section 5.3), so the
// next datagram from the peer retries the fetch, and the admission gate
// bounds the directory calls unknown peers can cause.
type KeyServiceConfig struct{}

// NewKeyService wires the keying mechanism for one principal.
func NewKeyService(self *principal.Identity, dir cert.Directory, verifier *cert.Verifier, clock Clock, _ KeyServiceConfig) *KeyService {
	return newKeyService(self, dir, verifier, clock, keyCacheSize)
}

// newKeyService is NewKeyService with slots entries in each of the PVC
// and the MKC.
func newKeyService(self *principal.Identity, dir cert.Directory, verifier *cert.Verifier, clock Clock, slots int) *KeyService {
	if clock == nil {
		clock = RealClock{}
	}
	return &KeyService{
		self:     self,
		dir:      dir,
		verifier: verifier,
		clock:    clock,
		pvc:      NewDirectMapped[principal.Address, *cert.Certificate](slots, pvcHash),
		mkc:      NewDirectMapped[principal.Address, [16]byte](slots, addrHash),
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
	return ks.masterKeyMiss(peer, new(SpanFlags))
}

// cachedMasterKey is the MKC probe every request makes exactly once: it
// moves one request count and one MKC hit-or-miss count.
func (ks *KeyService) cachedMasterKey(peer principal.Address) ([16]byte, bool) {
	ks.stats.masterKeyRequests.Add(1)
	return ks.mkc.Get(peer)
}

// masterKeyMiss is Figure 6 below the MKC — what the daemon runs for a
// request whose probe missed — annotating note with which tier answered:
// the per-request counterpart of the aggregate KeyServiceStats counters,
// consumed by the tracing plane. It
// looks at the MKC once more, uncounted: a request that missed just
// before a computation for the same peer finished must find that key,
// not pay a second exponentiation.
func (ks *KeyService) masterKeyMiss(peer principal.Address, note *SpanFlags) ([16]byte, error) {
	if k, ok := ks.mkc.Peek(peer); ok {
		*note |= FlagKeyMKCHit
		return k, nil
	}
	c, err := ks.certificate(peer)
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
	*note |= FlagKeyComputed
	ks.mkc.Put(peer, k)
	return k, nil
}

// certificate returns a verified certificate for peer, via the PVC.
// The certificate is verified on every use — the PVC need not be a secure
// store because of this (Section 5.3). A PVC miss asks the directory
// once; if it fails, the request fails and the next one asks again.
func (ks *KeyService) certificate(peer principal.Address) (*cert.Certificate, error) {
	now := ks.clock.Now()
	c, ok := ks.pvc.Get(peer)
	if !ok {
		var err error
		ks.stats.certFetches.Add(1)
		c, err = ks.dir.Lookup(peer)
		if err != nil {
			return nil, fmt.Errorf("core: fetching certificate for %q: %w", peer, err)
		}
		ks.pvc.Put(peer, c)
	}
	ks.stats.certVerifies.Add(1)
	if err := ks.verifier.Verify(c, peer, now); err != nil {
		// A cached certificate may simply have expired; drop it and
		// refetch once.
		ks.pvc.Invalidate(peer)
		ks.stats.certFetches.Add(1)
		fresh, ferr := ks.dir.Lookup(peer)
		if ferr != nil {
			return nil, err
		}
		ks.stats.certVerifies.Add(1)
		if verr := ks.verifier.Verify(fresh, peer, now); verr != nil {
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

// FlushPeer drops all keying state for peer — verified certificate and
// pair master key — forcing the next contact to re-run the full upcall
// chain (e.g. after learning it rekeyed). Endpoint.FlushPeer layers the
// flow-key caches on top.
func (ks *KeyService) FlushPeer(peer principal.Address) {
	ks.pvc.Invalidate(peer)
	ks.mkc.Invalidate(peer)
}

// Stats returns a snapshot of keying counters.
func (ks *KeyService) Stats() KeyServiceStats {
	return KeyServiceStats{
		MasterKeyRequests: ks.stats.masterKeyRequests.Load(),
		MasterKeyComputes: ks.stats.masterKeyComputes.Load(),
		CertFetches:       ks.stats.certFetches.Load(),
		CertVerifies:      ks.stats.certVerifies.Load(),
		Failures:          ks.stats.failures.Load(),
	}
}
