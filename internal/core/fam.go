package core

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fbs/internal/cryptolib"
	"fbs/internal/principal"
)

// FlowID is the set of datagram attributes a security flow policy uses to
// tell flows apart. The IP mapping fills the classic 5-tuple (Section
// 7.1); application-layer mappings may instead place a conversation
// identifier in Aux. The zero value of unused fields is fine — equality
// over the whole struct is what defines "same flow".
type FlowID struct {
	Src, Dst principal.Address
	Proto    uint8
	SrcPort  uint16
	DstPort  uint16
	Aux      uint64
}

// hash randomises the flow identifier with CRC-32 for table indexing.
// Section 5.3 requires a randomising hash because the inputs (local
// addresses, sequential ports) are highly correlated; modulo or XOR
// folding would collide systematically.
func (f FlowID) hash() uint32 {
	state := uint32(0xFFFFFFFF)
	state = cryptolib.CRC32UpdateString(state, string(f.Src))
	state = cryptolib.CRC32UpdateString(state, string(f.Dst))
	var b [13]byte
	b[0] = f.Proto
	binary.BigEndian.PutUint16(b[1:], f.SrcPort)
	binary.BigEndian.PutUint16(b[3:], f.DstPort)
	binary.BigEndian.PutUint64(b[5:], f.Aux)
	return cryptolib.CRC32Update(state, b[:]) ^ 0xFFFFFFFF
}

// FSTEntry is one slot of the flow state table (Figure 7). It stores the
// flow's sfl plus the state the mapper and sweeper modules need, along
// with accounting used by the flow-characteristics experiments.
type FSTEntry struct {
	Valid   bool
	ID      FlowID
	SFL     SFL
	Created time.Time
	Last    time.Time
	Packets uint64
	Bytes   uint64
}

// Policy is the FAM's plug-in: the mapper and sweeper modules of Figure 7
// as one object, since every policy implements both over shared state.
type Policy interface {
	// Index is the mapper's slot choice for a datagram's attributes.
	Index(id FlowID, tableSize int) int
	// Match is the mapper's verdict on whether entry e is valid for a
	// datagram with the given attributes at time now (Section 5.1).
	Match(e *FSTEntry, id FlowID, now time.Time) bool
	// Normalize reduces the attributes to the ones the policy tells flows
	// apart by: what the FAM stores in a new entry's ID, and so what
	// Match compares against and Index must hash. A policy that
	// aggregates nothing returns id unchanged. It runs once per flow
	// creation; Index and Match, which run per datagram, take the raw
	// attributes and do their own reduction.
	Normalize(id FlowID) FlowID
	// Expired is the sweeper: whether entry e should be invalidated at
	// time now (Section 5.1). pressure is set on a memory-budgeted
	// endpoint whose soft-state budget has crossed its high-water mark; a
	// policy may then expire under a tightened THRESHOLD. Expiring a
	// still-live flow early is always safe — the next datagram simply
	// starts a fresh flow with a fresh sfl — so pressure trades a little
	// rekeying work for reclaimed state, exactly the soft-state bargain
	// of Section 4. A policy with nothing to tighten ignores the flag.
	Expired(e *FSTEntry, now time.Time, pressure bool) bool
}

// ThresholdPolicy is the security flow policy of Section 7.1 in its
// layer-independent form: a flow is a sequence of datagrams with equal
// attributes whose inter-arrival gap never exceeds Threshold. It indexes
// the table with CRC-32 as Figure 7 prescribes.
//
// The optional wear-out limit implements the paper's rekeying story
// (Section 5.2): "with use, an encryption key will 'wear out'...
// rekeying can be easily accomplished via the FAM by changing the sfl.
// Rekeying decisions, though, are made by policy modules." When a flow
// reaches MaxPackets the next datagram simply starts a new flow — and
// with it a fresh sfl and a fresh key — with zero protocol messages.
type ThresholdPolicy struct {
	// Threshold is the idle gap that ends a flow. The paper evaluates
	// 300-1200 s and finds 300-600 s a good trade-off (Figures 13, 14).
	Threshold time.Duration
	// MaxPackets rekeys a flow after this many datagrams (0 = no limit).
	MaxPackets uint64
}

// Index implements Policy.
func (p ThresholdPolicy) Index(id FlowID, tableSize int) int {
	return int(id.hash() % uint32(tableSize))
}

// Match implements Policy: same attributes, within the threshold, and
// under the key wear-out limit.
func (p ThresholdPolicy) Match(e *FSTEntry, id FlowID, now time.Time) bool {
	return e.Valid && e.ID == id && now.Sub(e.Last) <= p.Threshold &&
		(p.MaxPackets == 0 || e.Packets < p.MaxPackets)
}

// Normalize implements Policy: every attribute tells flows apart.
func (ThresholdPolicy) Normalize(id FlowID) FlowID { return id }

// Expired implements Policy, with the threshold tightened to Threshold/8
// under pressure.
func (p ThresholdPolicy) Expired(e *FSTEntry, now time.Time, pressure bool) bool {
	t := p.Threshold
	if pressure {
		t /= 8
	}
	return e.Valid && now.Sub(e.Last) > t
}

// HostPairPolicy classifies all traffic between a pair of principals into
// one flow, regardless of ports or protocol: the degenerate policy that
// reduces FBS to host-pair granularity (Section 2.2's comparison point).
// A host pair keys once and keeps its key, so its flows never idle out.
type HostPairPolicy struct{}

func hostPair(id FlowID) FlowID { return FlowID{Src: id.Src, Dst: id.Dst} }

// Index implements Policy.
func (p HostPairPolicy) Index(id FlowID, tableSize int) int {
	return int(hostPair(id).hash() % uint32(tableSize))
}

// Match implements Policy.
func (HostPairPolicy) Match(e *FSTEntry, id FlowID, _ time.Time) bool {
	return e.Valid && e.ID == hostPair(id)
}

// Normalize implements Policy: only the principals tell flows apart.
func (HostPairPolicy) Normalize(id FlowID) FlowID { return hostPair(id) }

// Expired implements Policy: host-pair flows never expire, under
// pressure or not.
func (HostPairPolicy) Expired(*FSTEntry, time.Time, bool) bool { return false }

// FAMStats counts flow association mechanism activity.
type FAMStats struct {
	Lookups      uint64
	Hits         uint64 // datagram matched an existing flow
	FlowsCreated uint64
	// Collisions counts flows prematurely terminated because a different
	// flow hashed to the same slot (footnote 11: harmless for security,
	// wasteful for performance).
	Collisions uint64
	// Expirations counts flows invalidated by the sweeper.
	Expirations uint64
}

// add accumulates o into s (per-stripe aggregation on Stats(), and
// Snapshot.Merge).
func (s *FAMStats) add(o FAMStats) {
	s.Lookups += o.Lookups
	s.Hits += o.Hits
	s.FlowsCreated += o.FlowsCreated
	s.Collisions += o.Collisions
	s.Expirations += o.Expirations
}

// famStripe is one lock stripe of the flow state table: a mutex guarding
// the slots whose index has the stripe's low bits, plus that stripe's
// share of the counters (mutated under the stripe lock; Stats()
// aggregates, preserving exact totals). Padded so adjacent stripes do not
// share a cache line.
type famStripe struct {
	mu    sync.Mutex
	stats FAMStats
	_     [16]byte // pad to 64 bytes
}

// FAM is the flow association mechanism (Figure 1): a flow state table
// with pluggable mapper and sweeper policy modules. The source principal
// runs one FAM per outgoing interface; no state is shared with the
// destination (Section 5.1).
//
// The table is partitioned into power-of-two lock stripes (slot index low
// bits select the stripe) so datagrams of different flows classify in
// parallel; the sfl counter is a single atomic.
type FAM struct {
	policy     Policy
	table      []FSTEntry
	stripes    []famStripe
	stripeMask int
	nextSFL    atomic.Uint64

	// budget, when set, is charged CostFAMEntry per valid entry; flow
	// creation that would fill a fresh slot past the hard limit is
	// refused (classifyBatch reports !ok and the caller sheds the
	// datagram with DropStateBudget).
	budget *Budget
}

// DefaultFSTSize is the default flow state table size. The paper observes
// almost no collisions with "a reasonable FSTSIZE, e.g., 32 or above"
// (footnote 11); we default comfortably above that.
const DefaultFSTSize = 256

// NewFAM builds a flow association mechanism with the given policy and
// table size (0 means DefaultFSTSize). The sfl counter starts at a random
// 64-bit value so that resetting the protocol subsystem cannot be
// exploited to force sfl reuse (Section 5.3).
func NewFAM(policy Policy, tableSize int) (*FAM, error) {
	if policy == nil {
		return nil, fmt.Errorf("core: FAM requires a policy")
	}
	if tableSize <= 0 {
		tableSize = DefaultFSTSize
	}
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("core: randomising sfl counter: %w", err)
	}
	return newFAMWithSeed(policy, tableSize, binary.BigEndian.Uint64(seed[:])), nil
}

// newFAMWithSeed is the deterministic constructor for tests.
func newFAMWithSeed(policy Policy, tableSize int, seed uint64) *FAM {
	if tableSize <= 0 {
		tableSize = DefaultFSTSize
	}
	n := defaultStripeCount(tableSize)
	f := &FAM{
		policy:     policy,
		table:      make([]FSTEntry, tableSize),
		stripes:    make([]famStripe, n),
		stripeMask: n - 1,
	}
	f.nextSFL.Store(seed)
	return f
}

// SetBudget attaches the shared soft-state budget; call before the FAM
// serves traffic.
func (f *FAM) SetBudget(b *Budget) { f.budget = b }

// Classify assigns the datagram with attributes id and size bytes to a
// flow, creating a new flow when no valid entry matches (the mapper
// module of Figure 7). It returns the flow's sfl and whether a new flow
// was started — a flow is new exactly when this datagram is its first.
// With a budget at its hard limit, creation into an empty slot is
// refused and the zero SFL is returned.
func (f *FAM) Classify(id FlowID, now time.Time, size int) (SFL, bool) {
	sizes := [1]int{size}
	sfl, seq, _, ok := f.classifyBatch(id, now, sizes[:])
	return sfl, ok && seq == 1
}

// classifyBatch classifies a run of datagrams that share one FlowID
// under a single stripe acquisition (a run of one is the single-datagram
// case). sizes carries the run's payload sizes in order. Beside the sfl
// it returns firstSeq, the first datagram's 1-based sequence number
// within the flow (the entry's packet count — monotonic under the stripe
// lock, so AEAD suites can use it as nonce material); the run's sequence
// numbers are consecutive from there, the batch's nonce-counter
// reservation. The entry's accounting advances one datagram at a time
// with the policy's Match re-checked before each, so the wear-out limit
// (MaxPackets) ends the run exactly where a loop of single calls would:
// n reports how many datagrams were accepted and the caller
// re-classifies the remainder into a fresh flow. On a budget refusal
// (ok == false) nothing was accepted and the caller sheds only the first
// datagram: re-attempting the rest re-checks the budget per datagram, as
// a loop would.
func (f *FAM) classifyBatch(id FlowID, now time.Time, sizes []int) (sfl SFL, firstSeq uint64, n int, ok bool) {
	i := f.policy.Index(id, len(f.table))
	st := &f.stripes[i&f.stripeMask]
	st.mu.Lock()
	defer st.mu.Unlock()
	st.stats.Lookups++
	e := &f.table[i]
	if f.policy.Match(e, id, now) {
		e.Last = now
		e.Packets++
		e.Bytes += uint64(sizes[0])
		st.stats.Hits++
		sfl, firstSeq = e.SFL, e.Packets
	} else {
		stored := f.policy.Normalize(id)
		if e.Valid && e.ID != stored {
			st.stats.Collisions++
		}
		// Overwriting a valid slot (collision or expired flow) is
		// budget-neutral; only filling an empty slot grows state.
		if !e.Valid && !f.budget.TryCharge(CostFAMEntry) {
			return 0, 0, 0, false
		}
		sfl = SFL(f.nextSFL.Add(1) - 1)
		*e = FSTEntry{
			Valid:   true,
			ID:      stored,
			SFL:     sfl,
			Created: now,
			Last:    now,
			Packets: 1,
			Bytes:   uint64(sizes[0]),
		}
		st.stats.FlowsCreated++
		firstSeq = 1
	}
	// The rest of the run rides the same entry while the policy still
	// matches it; each accepted datagram is one lookup + one hit, so the
	// FAM's counter invariants reconcile identically to a loop of single
	// calls.
	for n = 1; n < len(sizes); n++ {
		if !f.policy.Match(e, id, now) {
			break
		}
		e.Packets++
		e.Bytes += uint64(sizes[n])
		st.stats.Lookups++
		st.stats.Hits++
	}
	return sfl, firstSeq, n, true
}

// Sweep runs the sweeper module over the whole table (Figure 7),
// invalidating expired flows, and returns how many were expired. It locks
// one stripe at a time, so classification in other stripes proceeds
// concurrently with the sweep.
func (f *FAM) Sweep(now time.Time) int { return f.sweep(now, false) }

// SweepPressure sweeps in pressure mode: the policy may expire under a
// tightened threshold (see Policy.Expired).
func (f *FAM) SweepPressure(now time.Time) int { return f.sweep(now, true) }

func (f *FAM) sweep(now time.Time, pressure bool) int {
	total := 0
	stripes := len(f.stripes)
	for si := range f.stripes {
		st := &f.stripes[si]
		st.mu.Lock()
		n := 0
		for i := si; i < len(f.table); i += stripes {
			if f.policy.Expired(&f.table[i], now, pressure) {
				f.table[i].Valid = false
				n++
			}
		}
		st.stats.Expirations += uint64(n)
		st.mu.Unlock()
		total += n
	}
	if total > 0 {
		f.budget.Release(int64(total) * CostFAMEntry)
	}
	return total
}

// ActiveFlows counts currently valid entries.
func (f *FAM) ActiveFlows() int {
	n := 0
	stripes := len(f.stripes)
	for si := range f.stripes {
		st := &f.stripes[si]
		st.mu.Lock()
		for i := si; i < len(f.table); i += stripes {
			if f.table[i].Valid {
				n++
			}
		}
		st.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the FAM counters, aggregated across the
// lock stripes. Because every counter is incremented under its stripe
// lock, the per-stripe sums reconcile exactly (Lookups == Hits +
// FlowsCreated, always).
func (f *FAM) Stats() FAMStats {
	var out FAMStats
	for i := range f.stripes {
		st := &f.stripes[i]
		st.mu.Lock()
		out.add(st.stats)
		st.mu.Unlock()
	}
	return out
}

// FlowInfo is a point-in-time description of one live flow, for
// monitoring (the moral equivalent of netstat over the flow state
// table). Key material is deliberately not included.
type FlowInfo struct {
	ID      FlowID
	SFL     SFL
	Created time.Time
	Last    time.Time
	Packets uint64
	Bytes   uint64
}

// Snapshot lists the currently valid flows.
func (f *FAM) Snapshot() []FlowInfo {
	var out []FlowInfo
	stripes := len(f.stripes)
	for si := range f.stripes {
		st := &f.stripes[si]
		st.mu.Lock()
		for i := si; i < len(f.table); i += stripes {
			e := &f.table[i]
			if !e.Valid {
				continue
			}
			out = append(out, FlowInfo{
				ID: e.ID, SFL: e.SFL,
				Created: e.Created, Last: e.Last,
				Packets: e.Packets, Bytes: e.Bytes,
			})
		}
		st.mu.Unlock()
	}
	return out
}

// entry returns a copy of slot i, for tests.
func (f *FAM) entry(i int) FSTEntry {
	st := &f.stripes[i&f.stripeMask]
	st.mu.Lock()
	defer st.mu.Unlock()
	return f.table[i]
}
