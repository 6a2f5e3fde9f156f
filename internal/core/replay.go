package core

import (
	"sync"
	"sync/atomic"
	"time"

	"fbs/internal/principal"
)

// The paper's replay defence is the window-based timestamp check of
// Section 6.2: stateless, loose-synchronisation-only, and deliberately
// imperfect — an attacker replaying within the freshness window succeeds,
// and higher layers (TCP sequencing, application nonces) are expected to
// finish the job.
//
// ReplayCache is an optional extension beyond the paper: it remembers the
// (sfl, confounder, timestamp) triples accepted within the freshness
// window and rejects exact duplicates. The memory is still soft state —
// dropping it merely re-opens the paper's documented in-window replay
// exposure, it never breaks the protocol — so datagram semantics are
// preserved. The paper hints at exactly this trade-off when noting that
// "complete replay protection can only be achieved in high-layer
// protocols".
//
// Because every accepted datagram adds an entry that only the freshness
// window expires, the replay cache is the softest target for a
// state-holding attack: an authenticated peer churning flows grows it at
// line rate. The cache therefore participates in the shared Budget
// (CostReplayEntry per signature) and tracks per-source occupancy, so
// overload shows up attributed to the peer causing it.

// replaySig identifies a datagram within the freshness window.
type replaySig struct {
	SFL        SFL
	Confounder uint32
	Timestamp  Timestamp
	MAC        [8]byte // first half of the MAC disambiguates confounder collisions
}

// stripe picks the lock stripe for this signature. The confounder is
// already statistically random (it is generator output), so folding in
// the sfl low bits is enough to spread flows across stripes.
func (s replaySig) stripe(mask uint32) uint32 {
	return (s.Confounder ^ uint32(s.SFL)) & mask
}

// replayEntry is what the cache remembers per signature: when it was
// accepted and from whom, so expiry sweeping can keep the per-peer
// occupancy counts exact.
type replayEntry struct {
	at  time.Time
	src principal.Address
}

// replayStripe is one lock stripe: an independently locked shard of the
// signature map plus its share of the per-peer occupancy counts.
type replayStripe struct {
	mu       sync.Mutex
	seen     map[replaySig]replayEntry
	peers    map[principal.Address]int
	refusals uint64
	_        [32]byte // pad to 64 bytes
}

// remove deletes sig under the stripe lock, keeping peer counts exact.
func (st *replayStripe) remove(sig replaySig, e replayEntry) {
	delete(st.seen, sig)
	if n := st.peers[e.src] - 1; n > 0 {
		st.peers[e.src] = n
	} else {
		delete(st.peers, e.src)
	}
}

// ReplayStats snapshots replay-window occupancy for Snapshot and
// /metrics.
type ReplayStats struct {
	// Entries is the number of signatures currently remembered.
	Entries int
	// Peers is the number of distinct sources holding entries.
	Peers int
	// Refusals counts datagrams turned away at the budget hard limit
	// because their signature could not be recorded (ReplayRefused).
	Refusals uint64
}

// ReplayVerdict is the outcome of a replay-window check.
type ReplayVerdict uint8

const (
	// ReplayFresh: first sighting within the window; the signature was
	// recorded and the datagram may be accepted.
	ReplayFresh ReplayVerdict = iota
	// ReplayDuplicate: an identical datagram was already accepted within
	// the window.
	ReplayDuplicate
	// ReplayRefused: the budget hard limit left no room to record the
	// signature, so the datagram must be refused. Accepting it
	// unrecorded — or evicting a resident signature to make room — would
	// re-open an in-window replay: the unrecorded (or evicted) datagram
	// could be replayed and accepted again. Refusal keeps the window
	// sound; the cost is availability, and soft state bounds that cost
	// to one freshness window (the sweep reclaims room as entries
	// expire).
	ReplayRefused
)

// ReplayCache suppresses exact duplicates inside the freshness window.
// It is safe for concurrent use: signatures are partitioned across
// power-of-two lock stripes so datagrams of different flows are checked
// in parallel. Expired entries are swept lazily, at most once per
// window, by whichever Check call notices the sweep is due.
type ReplayCache struct {
	window    time.Duration
	stripes   []replayStripe
	mask      uint32
	lastSweep atomic.Int64 // unix nanos of the last full sweep
	budget    *Budget
}

// NewReplayCache creates a cache whose entries expire after window (use
// the endpoint's freshness window).
func NewReplayCache(window time.Duration) *ReplayCache {
	n := defaultStripeCount(1 << 30) // uncapped by table size
	r := &ReplayCache{
		window:  window,
		stripes: make([]replayStripe, n),
		mask:    uint32(n - 1),
	}
	for i := range r.stripes {
		r.stripes[i].seen = make(map[replaySig]replayEntry)
		r.stripes[i].peers = make(map[principal.Address]int)
	}
	return r
}

// SetBudget charges CostReplayEntry per remembered signature against b.
// Call before the cache serves traffic.
func (r *ReplayCache) SetBudget(b *Budget) { r.budget = b }

// Check records the datagram from src and classifies it. A datagram is
// only ever accepted with its signature recorded: at the budget hard
// limit the newcomer is refused (ReplayRefused) rather than displacing a
// resident signature or passing unrecorded — either of those would let
// an attacker replay the displaced (or unrecorded) datagram within the
// window. A refreshed signature whose previous sighting has expired is
// budget-neutral.
func (r *ReplayCache) Check(src principal.Address, h *Header, now time.Time) ReplayVerdict {
	var sig replaySig
	sig.SFL = h.SFL
	sig.Confounder = h.Confounder
	sig.Timestamp = h.Timestamp
	copy(sig.MAC[:], h.MACValue[:8])

	r.maybeSweep(now)
	st := &r.stripes[sig.stripe(r.mask)]
	st.mu.Lock()
	defer st.mu.Unlock()
	return r.checkLocked(st, src, sig, now)
}

// checkLocked is Check's body with sig already computed and its stripe
// lock already held.
func (r *ReplayCache) checkLocked(st *replayStripe, src principal.Address, sig replaySig, now time.Time) ReplayVerdict {
	if e, ok := st.seen[sig]; ok {
		if now.Sub(e.at) <= r.window {
			return ReplayDuplicate
		}
		// Stale entry for the same signature: refresh in place
		// (budget-neutral).
		st.remove(sig, e)
		st.seen[sig] = replayEntry{at: now, src: src}
		st.peers[src]++
		return ReplayFresh
	}
	if !r.budget.TryCharge(CostReplayEntry) {
		st.refusals++
		return ReplayRefused
	}
	st.seen[sig] = replayEntry{at: now, src: src}
	st.peers[src]++
	return ReplayFresh
}

// CheckRun checks up to batchChunk datagram signatures in one pass: one
// sweep election for the run and one lock acquisition per stripe touched
// rather than one per datagram. Items that land on the same stripe are
// checked in run order, so an intra-run duplicate — two identical
// signatures always share a stripe — is classified exactly as a loop of
// Check calls would classify it; items on different stripes are
// independent, so their grouping order cannot change any verdict.
func (r *ReplayCache) CheckRun(srcs []principal.Address, hs []Header, now time.Time, verdicts []ReplayVerdict) {
	r.maybeSweep(now)
	n := len(hs)
	var sigs [batchChunk]replaySig
	var stripes [batchChunk]uint32
	var done [batchChunk]bool
	for i := 0; i < n; i++ {
		sigs[i].SFL = hs[i].SFL
		sigs[i].Confounder = hs[i].Confounder
		sigs[i].Timestamp = hs[i].Timestamp
		copy(sigs[i].MAC[:], hs[i].MACValue[:8])
		stripes[i] = sigs[i].stripe(r.mask)
	}
	for i := 0; i < n; i++ {
		if done[i] {
			continue
		}
		st := &r.stripes[stripes[i]]
		st.mu.Lock()
		for j := i; j < n; j++ {
			if !done[j] && stripes[j] == stripes[i] {
				verdicts[j] = r.checkLocked(st, srcs[j], sigs[j], now)
				done[j] = true
			}
		}
		st.mu.Unlock()
	}
}

// maybeSweep drops expired entries once the last full sweep is more than
// a window old. The CAS elects a single sweeper; everyone else proceeds
// to their stripe immediately, and the sweeper takes one stripe lock at
// a time so checks on other stripes continue in parallel.
func (r *ReplayCache) maybeSweep(now time.Time) {
	last := r.lastSweep.Load()
	n := now.UnixNano()
	if n-last <= int64(r.window) {
		return
	}
	if !r.lastSweep.CompareAndSwap(last, n) {
		return
	}
	swept := 0
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		for k, e := range st.seen {
			if now.Sub(e.at) > r.window {
				st.remove(k, e)
				swept++
			}
		}
		st.mu.Unlock()
	}
	if swept > 0 {
		r.budget.Release(int64(swept) * CostReplayEntry)
	}
}

// Stats snapshots occupancy. Safe on nil (all zero).
func (r *ReplayCache) Stats() ReplayStats {
	if r == nil {
		return ReplayStats{}
	}
	var out ReplayStats
	distinct := make(map[principal.Address]struct{})
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		out.Entries += len(st.seen)
		out.Refusals += st.refusals
		for p := range st.peers {
			distinct[p] = struct{}{}
		}
		st.mu.Unlock()
	}
	out.Peers = len(distinct)
	return out
}

// PerPeer returns the current replay-window occupancy per source — the
// first-class budget input the overload plane watches to attribute
// state pressure to the peer creating it.
func (r *ReplayCache) PerPeer() map[principal.Address]int {
	if r == nil {
		return nil
	}
	out := make(map[principal.Address]int)
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		for p, n := range st.peers {
			out[p] += n
		}
		st.mu.Unlock()
	}
	return out
}
