package core

import "sync/atomic"

// The paper's security state is all soft (Section 4): losing any cache
// entry costs recomputation, never correctness. The converse threat —
// an adversary *creating* state faster than the sweeper reclaims it —
// is what this file bounds. Every soft-state table (FAM, replay
// windows, and the four cache levels PVC/MKC/TFKC/RFKC) reports its
// per-entry cost to one shared Budget; crossing the high-water mark
// puts the endpoint under pressure (sweeps run with a tightened
// threshold), and the hard limit is never exceeded: installs that would
// cross it are either refused (the state stays uncached — pure soft
// state makes that always safe) or satisfied by evicting an existing
// entry, and flow admission sheds datagrams that would need fresh state
// (DropStateBudget).

// Approximate per-entry footprints, in bytes, that the soft-state
// tables charge against the budget. They deliberately round up: the
// budget is a DoS bound, not an allocator.
const (
	// CostFAMEntry covers one flow state table slot (FSTEntry plus its
	// share of stripe overhead).
	CostFAMEntry = 160
	// CostReplayEntry covers one replay-window signature (map key,
	// timestamp, bucket overhead).
	CostReplayEntry = 96
	// CostFlowKeyEntry covers one TFKC/RFKC slot's cache key and K_f,
	// not an AEAD slot's expanded instance (up to 768 B; ROBUSTNESS.md).
	CostFlowKeyEntry = 64
	// CostMasterKeyEntry covers one MKC slot.
	CostMasterKeyEntry = 64
	// CostCertEntry covers one PVC slot: a parsed certificate with its
	// public value.
	CostCertEntry = 512
)

// BudgetLevel orders the budget's occupancy bands.
type BudgetLevel uint8

const (
	// BudgetNormal: below the high-water mark; no intervention.
	BudgetNormal BudgetLevel = iota
	// BudgetPressure: above high water; sweeps run in pressure mode
	// (tightened THRESHOLD) until occupancy falls back.
	BudgetPressure
	// BudgetHard: at the hard limit; new state is admission-controlled
	// — installs evict or are refused, and datagrams requiring fresh
	// expensive state are shed with DropStateBudget.
	BudgetHard
)

// String names the level for logs and metrics.
func (l BudgetLevel) String() string {
	switch l {
	case BudgetNormal:
		return "normal"
	case BudgetPressure:
		return "pressure"
	case BudgetHard:
		return "hard"
	}
	return "unknown"
}

// BudgetStats is a snapshot of budget occupancy and activity.
type BudgetStats struct {
	// Used and Peak are current and high-water-mark charged bytes.
	Used, Peak int64
	// HighWater and HardLimit echo the configured marks.
	HighWater, HardLimit int64
	// PressureEvents counts upward crossings of the high-water mark.
	PressureEvents uint64
	// Denials counts TryCharge refusals — installs or admissions turned
	// away at the hard limit.
	Denials uint64
}

// Budget is the shared soft-state memory budget. All methods are safe
// for concurrent use and lock-free; the hot path pays one atomic add
// per state install/release and one atomic load per level check.
//
// A nil *Budget is valid everywhere and disables all accounting, so
// components take the pointer unconditionally.
type Budget struct {
	high, hard int64
	used       atomic.Int64
	peak       atomic.Int64
	pressure   atomic.Uint64
	denials    atomic.Uint64
}

// NewBudget builds a budget with the given marks, in bytes. hardLimit
// must be positive; highWater <= 0 defaults to 3/4 of the hard limit,
// and is clamped below it.
func NewBudget(highWater, hardLimit int64) *Budget {
	if hardLimit <= 0 {
		return nil
	}
	if highWater <= 0 || highWater > hardLimit {
		highWater = hardLimit * 3 / 4
	}
	return &Budget{high: highWater, hard: hardLimit}
}

// updatePeak folds a new occupancy into the peak watermark.
func (b *Budget) updatePeak(used int64) {
	for {
		p := b.peak.Load()
		if used <= p || b.peak.CompareAndSwap(p, used) {
			return
		}
	}
}

// TryCharge adds n bytes only if the hard limit holds, reporting
// whether it did. A nil budget always admits.
func (b *Budget) TryCharge(n int64) bool {
	if b == nil || n <= 0 {
		return true
	}
	for {
		used := b.used.Load()
		if used+n > b.hard {
			b.denials.Add(1)
			return false
		}
		if b.used.CompareAndSwap(used, used+n) {
			b.updatePeak(used + n)
			if used+n >= b.high && used < b.high {
				b.pressure.Add(1)
			}
			return true
		}
	}
}

// Release returns n bytes to the budget.
func (b *Budget) Release(n int64) {
	if b == nil || n == 0 {
		return
	}
	b.used.Add(-n)
}

// Used returns the currently charged bytes.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// Level classifies current occupancy. The hard band starts one
// smallest-entry short of the limit: once no further CostFlowKeyEntry
// fits, admission control is in force.
func (b *Budget) Level() BudgetLevel {
	if b == nil {
		return BudgetNormal
	}
	used := b.used.Load()
	switch {
	case used+CostFlowKeyEntry > b.hard:
		return BudgetHard
	case used >= b.high:
		return BudgetPressure
	}
	return BudgetNormal
}

// UnderPressure reports whether occupancy is at or above high water.
func (b *Budget) UnderPressure() bool {
	return b != nil && b.used.Load() >= b.high
}

// Stats snapshots the budget counters. Safe on nil (all zero).
func (b *Budget) Stats() BudgetStats {
	if b == nil {
		return BudgetStats{}
	}
	return BudgetStats{
		Used:           b.used.Load(),
		Peak:           b.peak.Load(),
		HighWater:      b.high,
		HardLimit:      b.hard,
		PressureEvents: b.pressure.Load(),
		Denials:        b.denials.Load(),
	}
}
