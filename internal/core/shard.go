package core

import (
	"errors"
	"fmt"
	"slices"

	"fbs/internal/principal"
	"fbs/internal/transport"
)

// Per-core sharding. A ShardGroup is M independent endpoints, each
// owning a disjoint subset of the flow space via RSS-style steering on
// the flow identifier's CRC-32 (the same randomising hash the FST uses
// for slot indexing, Section 5.3 — correlated addresses and sequential
// ports spread uniformly). Because a flow's datagrams always steer to
// the same shard, every per-flow invariant — AEAD nonce monotonicity,
// wear-out accounting, replay-window exactness — holds per shard with
// no cross-shard coordination: shards share no locks, no caches and no
// counters on the datagram path. The cost is per-shard soft state
// (separate FST/TFKC/RFKC/replay windows); the intended pay-off, scaling
// with cores, is unmeasured: two shards read the same as one on a two-vCPU
// runner, and the gateway has one loop per listener (ROADMAP 2(a)).
//
// What the shards do share is the key plane — one PVC, MKC and MKD per
// principal, as in Figure 5 — touched at flow start only (a TFKC/RFKC
// miss). K_{S,D} belongs to the principal, not to a slice of its flow
// space: a peer is opened on ShardOfIncoming(peer, self) and answered on
// ShardOfPair(self, peer), often two shards, and with per-shard key
// caches each paid its own certificate check and exponentiation.
//
// Receive steering uses only the (source, destination) host pair — the
// ports and protocol of the original FlowID are sealed inside the
// datagram, invisible before Open. A sender sharding on the full
// 5-tuple would therefore spread one host pair's flows across shards
// whose receive side converges on one shard; that is correct (each sfl
// resolves independently) but lopsided. Symmetric deployments steer
// both directions by host pair via ShardOfIncoming/ShardOfPair.

// ShardGroup runs M endpoints as one logical data plane on one key plane.
type ShardGroup struct {
	shards []*Endpoint
	plane  *keyPlane
}

// NewShardGroup builds n endpoints from mk, which returns the Config
// for shard i. Configs typically differ only in Transport (each shard
// owns its own socket, mirroring SO_REUSEPORT deployments) and
// observation plumbing (shard-labelled collectors); they must name one
// identity, and the key plane is built from shard 0's (directory,
// verifier, clock, budget, n × its PVC/MKC sizes). On
// error, shards already built are closed.
func NewShardGroup(n int, mk func(shard int) (Config, error)) (*ShardGroup, error) {
	if n <= 0 {
		return nil, errors.New("core: shard count must be positive")
	}
	g := &ShardGroup{shards: make([]*Endpoint, 0, n)}
	for i := 0; i < n; i++ {
		cfg, err := mk(i)
		if err != nil {
			g.Close()
			return nil, fmt.Errorf("shard %d config: %w", i, err)
		}
		ep, err := newEndpoint(cfg, g.plane, n)
		if err != nil {
			g.Close()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		g.shards, g.plane = append(g.shards, ep), ep.plane
	}
	return g, nil
}

// NumShards returns the shard count M.
func (g *ShardGroup) NumShards() int { return len(g.shards) }

// Shard returns shard i's endpoint.
func (g *ShardGroup) Shard(i int) *Endpoint { return g.shards[i] }

// ShardOf steers a flow to its owning shard: the CRC-32 of the flow
// attributes modulo M.
func (g *ShardGroup) ShardOf(id FlowID) int {
	return int(id.hash() % uint32(len(g.shards)))
}

// ShardOfPair steers by host pair only — the steering a receiver can
// compute before opening the datagram. Senders that want symmetric
// placement (one shard handles both directions of a conversation) use
// this for outgoing traffic too.
func (g *ShardGroup) ShardOfPair(src, dst principal.Address) int {
	return g.ShardOf(FlowID{Src: src, Dst: dst})
}

// ShardOfIncoming steers a received datagram to the shard owning its
// host pair. All flows between one (src, dst) pair land on one shard,
// so that shard's replay window sees every datagram of every such flow
// and duplicate suppression stays exact.
func (g *ShardGroup) ShardOfIncoming(dg transport.Datagram) int {
	return g.ShardOf(FlowID{Src: dg.Source, Dst: dg.Destination})
}

// Snapshots reads every shard once and returns the readings, in shard
// order, beside their fold. A tenant's shards usually share one *Budget
// (one tenant, one envelope): each shard's own reading shows it, the
// fold counts it once. The key plane needs no such care: only shard 0's
// reading carries it.
func (g *ShardGroup) Snapshots() (fold Snapshot, shards []Snapshot) {
	shards = make([]Snapshot, len(g.shards))
	for i, ep := range g.shards {
		shards[i] = ep.Snapshot()
		s := shards[i]
		b := ep.cfg.StateBudget
		if b != nil && slices.ContainsFunc(g.shards[:i], func(prev *Endpoint) bool { return prev.cfg.StateBudget == b }) {
			s.Budget = BudgetStats{}
		}
		fold.Merge(s)
	}
	return fold, shards
}

// Snapshot is the group read as one endpoint: the fold of its shards.
func (g *ShardGroup) Snapshot() Snapshot {
	fold, _ := g.Snapshots()
	return fold
}

// HandoffSoftState warms dst's key plane from this group's, once (see
// keyPlane.handoff). A plane serves every shard of its group, so a new
// shard count, which moves peers between shards, costs the swap no
// exponentiation: wherever a peer lands, its master key is there.
func (g *ShardGroup) HandoffSoftState(dst *ShardGroup) HandoffStats {
	return g.plane.handoff(dst.plane)
}

// Close closes every shard — the last of them stops the key plane's
// daemon — returning the first error. Endpoint.Close is idempotent, so
// closing a group twice — or closing a group whose construction already
// failed partway — releases each transport exactly once.
func (g *ShardGroup) Close() error {
	var first error
	for _, ep := range g.shards {
		if ep == nil {
			continue
		}
		if err := ep.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
