package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"fbs/internal/cert"
	"fbs/internal/principal"
)

// keyPlane is one principal's keying state below the flow keys: the PVC,
// the MKC and the MKD, of which Figure 5 draws one each per principal. A
// standalone endpoint owns a plane; the shards of a ShardGroup borrow
// their group's, so a key computed to open a peer's datagram on one
// shard is found by the echo sealed on another.
type keyPlane struct {
	ks    *KeyService
	mkd   *MKD
	users atomic.Int32 // endpoints open on the plane; the last to close stops mkd
}

// newKeyPlane builds the plane for cfg's identity, sized for shards
// endpoints: shards × keyCacheSize PVC and MKC slots and min(shards,
// GOMAXPROCS) daemon workers, so a group keeps the capacity, budget
// ceiling and miss concurrency its per-shard key services had.
func newKeyPlane(cfg Config, shards int) *keyPlane {
	ks := newKeyService(cfg.Identity, cfg.Directory, cfg.Verifier, cfg.Clock, shards*keyCacheSize)
	ks.SetBudget(cfg.StateBudget)
	return &keyPlane{ks: ks, mkd: NewMKD(ks, min(shards, runtime.GOMAXPROCS(0)))}
}

// masterKey is Figure 6 from the MKC down. A key already held is
// answered on the caller's goroutine; only an MKC miss wakes the daemon,
// counted in gate's depth (gate may be nil) while it waits. la (may be
// nil) is a receive walk's look-ahead over the rest of its chunk: a miss
// on a peer it started waits on that upcall instead of starting another,
// and the chunk's first miss starts it before waiting.
func (p *keyPlane) masterKey(peer principal.Address, gate *admissionGate, la *lookahead) ([16]byte, SpanFlags, error) {
	if k, ok := p.ks.cachedMasterKey(peer); ok {
		return k, FlagKeyMKCHit, nil
	}
	if u := la.upcall(peer); u != nil {
		return p.mkd.wait(u)
	}
	gate.enter()
	defer gate.leave()
	u, err := p.mkd.start(peer)
	if err != nil {
		return [16]byte{}, 0, err
	}
	if own := la.start(u); own != nil {
		return p.mkd.wait(own)
	}
	return p.mkd.wait(&u)
}

// flight is the one single-flight under the key plane: concurrent
// requests for one key wait on the first, which sees that a result is
// produced and lands it on every waiter. Its two instantiations are the
// MKD's upcalls (by peer, landed by a daemon worker) and the endpoint's
// flow-key misses (by flow, derived and landed by the leading miss
// itself), so a burst of datagrams on a fresh flow to a new peer costs
// one derivation and one exponentiation. A closed flight refuses new
// waiters, which is how a stopped MKD strands none.
type flight[K comparable, R any] struct {
	mu      sync.Mutex
	waiting map[K][]chan R
	closed  bool
	dedups  atomic.Uint64
}

// keyResult is what the key plane's flights land: a master key or an
// RFKC slot, the annotations of the work that produced it, and its
// error. The note carries the flow-key span's
// keying flags (FlagKeyMKCHit, FlagKeyComputed, FlagKeyCoalesced and
// the admission flags), so the trace span, and only the trace span,
// reports per-datagram keying verdicts without new shared counters.
type keyResult[V any] struct {
	key  V
	note SpanFlags
	err  error
}

// join enrols the caller as a waiter for k and returns the channel its
// result lands on. lead reports that no request for k was in flight, so
// the caller must see one through to land. ok is false, and nothing is
// enrolled, once the flight is closed.
func (f *flight[K, R]) join(k K) (ch chan R, lead, ok bool) {
	ch = make(chan R, 1)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, false, false
	}
	if f.waiting == nil {
		f.waiting = make(map[K][]chan R)
	}
	w, inFlight := f.waiting[k]
	f.waiting[k] = append(w, ch)
	if inFlight {
		f.dedups.Add(1)
	}
	return ch, !inFlight, true
}

// land delivers r to every waiter for k; the next join for k leads.
// Each waiter's channel holds one result, so land never blocks on a
// waiter that gave up.
func (f *flight[K, R]) land(k K, r R) {
	f.mu.Lock()
	w := f.waiting[k]
	delete(f.waiting, k)
	f.mu.Unlock()
	for _, ch := range w {
		ch <- r
	}
}

// do runs fn for k on the caller's goroutine and lands its result,
// unless a request for k is in flight, in which case it waits for and
// shares that one's result; joined reports the latter. On a closed
// flight fn runs uncoalesced.
func (f *flight[K, R]) do(k K, fn func() R) (r R, joined bool) {
	ch, lead, ok := f.join(k)
	if ok && !lead {
		return <-ch, true
	}
	r = fn()
	f.land(k, r)
	return r, false
}

// close lands r on every waiter of every key and refuses later joins.
func (f *flight[K, R]) close(r R) {
	f.mu.Lock()
	f.closed = true
	waiting := f.waiting
	f.waiting = nil
	f.mu.Unlock()
	for _, w := range waiting {
		for _, ch := range w {
			ch <- r
		}
	}
}

// Dedups counts joins that found a request already in flight.
func (f *flight[K, R]) Dedups() uint64 { return f.dedups.Load() }

// HandoffStats counts what a soft-state handoff offered the successor:
// verified peer certificates, and pair master keys (zero when the
// identities differ).
type HandoffStats struct{ Certs, MasterKeys int }

// handoff warms dst from this plane so a config-epoch swap does not
// trigger a thundering herd of upcalls. Certificates always carry over:
// they are public, signature-checked material, verified again on each
// use. Master keys carry over only when dst keys for the same identity —
// a rotated private value changes every pair key, so rotation hands
// nothing over and the keys rebuild through upcalls. Flow keys stay
// behind (one hash away, and the successor's suites may differ). dst's
// own budget gates each install; what it refuses rebuilds on demand.
func (p *keyPlane) handoff(dst *keyPlane) (hs HandoffStats) {
	p.ks.pvc.Each(func(_ principal.Address, c *cert.Certificate) {
		dst.ks.pvc.Put(c.Subject, c)
		hs.Certs++
	})
	if sameIdentity(p.ks.self, dst.ks.self) {
		p.ks.mkc.Each(func(peer principal.Address, k [16]byte) {
			dst.ks.mkc.Put(peer, k)
			hs.MasterKeys++
		})
	}
	return hs
}

// sameIdentity reports whether a and b are one keying principal: same
// address and same DH public value in the same group, hence the same
// pair master key with every peer — what makes sharing a plane, or
// handing its master keys to another, sound.
func sameIdentity(a, b *principal.Identity) bool {
	return a.Addr == b.Addr && a.Public.Cmp(b.Public) == 0 &&
		a.Group.P.Cmp(b.Group.P) == 0 && a.Group.G.Cmp(b.Group.G) == 0
}
