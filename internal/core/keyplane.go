package core

import (
	"runtime"
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
// counted in gate's depth (gate may be nil) while it waits.
func (p *keyPlane) masterKey(peer principal.Address, gate *admissionGate) ([16]byte, SpanFlags, error) {
	if k, ok := p.ks.cachedMasterKey(peer); ok {
		return k, FlagKeyMKCHit, nil
	}
	gate.enter()
	defer gate.leave()
	return p.mkd.upcall(peer)
}

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
