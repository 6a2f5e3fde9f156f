package core

import (
	"fmt"
	"runtime"
	"sync"
)

// CacheStats counts cache activity. Section 5.3's split of misses into
// cold and conflict misses is measured offline, over traces, by
// flowsim.CacheSimAssoc (flowsim -fig 11).
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Installs  uint64
	Evictions uint64
}

// MissRate returns misses / lookups, or 0 with no lookups.
func (s CacheStats) MissRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

// add accumulates o into s (per-stripe aggregation on Stats(), and
// Snapshot.Merge).
func (s *CacheStats) add(o CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Installs += o.Installs
	s.Evictions += o.Evictions
}

// defaultStripeCount picks the lock-stripe count for the hot-path tables:
// a power of two sized to the machine (≥ 4× GOMAXPROCS so stripes stay
// mostly uncontended) and clamped so tiny tables don't carry more stripe
// locks than slots.
func defaultStripeCount(slots int) int {
	n := nextPow2(4 * runtime.GOMAXPROCS(0))
	if n < 8 {
		n = 8
	}
	if n > 128 {
		n = 128
	}
	if s := nextPow2(slots); s < n {
		n = s
	}
	return n
}

// nextPow2 returns the smallest power of two ≥ v (and ≥ 1).
func nextPow2(v int) int {
	n := 1
	for n < v {
		n <<= 1
	}
	return n
}

// cacheStripe is one lock stripe: a mutex guarding the slots whose index
// has the stripe's low bits, plus that stripe's share of the counters.
// Counters are plain integers mutated under the stripe lock; Stats()
// aggregates across stripes, preserving exact totals. The padding keeps
// adjacent stripes off the same cache line.
type cacheStripe struct {
	mu    sync.Mutex
	stats CacheStats
	_     [24]byte // pad to 64 bytes
}

// DirectMapped is a direct-mapped software cache, the structure Section
// 5.3 argues for: O(1) lookup, no associativity, correctness independent
// of evictions (contents are soft state), with a randomising hash
// supplied by the caller to spread correlated keys.
//
// DirectMapped is safe for concurrent use. The slot array is partitioned
// into power-of-two lock stripes (slot index low bits select the stripe),
// so concurrent lookups for different flows proceed in parallel instead
// of serialising on one cache-wide mutex.
type DirectMapped[K comparable, V any] struct {
	slots      []dmSlot[K, V]
	hash       func(K) uint32
	stripes    []cacheStripe
	stripeMask uint32

	// budget, when set, is charged entryCost per valid slot. Installs
	// that would grow occupancy past the hard limit are refused — the
	// key simply stays uncached, which soft state makes always safe.
	budget    *Budget
	entryCost int64
}

type dmSlot[K comparable, V any] struct {
	valid bool
	key   K
	val   V
}

// NewDirectMapped builds a cache with size slots and the given index
// hash. Every caller passes a derived constant, so a size of zero or
// less is a programming error and panics.
func NewDirectMapped[K comparable, V any](size int, hash func(K) uint32) *DirectMapped[K, V] {
	if size <= 0 {
		panic(fmt.Sprintf("core: direct-mapped cache of %d slots", size))
	}
	n := defaultStripeCount(size)
	return &DirectMapped[K, V]{
		slots:      make([]dmSlot[K, V], size),
		hash:       hash,
		stripes:    make([]cacheStripe, n),
		stripeMask: uint32(n - 1),
	}
}

// SetBudget charges cost bytes per valid slot against b (see Budget).
// Call before the cache serves traffic.
func (c *DirectMapped[K, V]) SetBudget(b *Budget, cost int64) {
	c.budget = b
	c.entryCost = cost
}

// Size returns the number of slots.
func (c *DirectMapped[K, V]) Size() int { return len(c.slots) }

// slotStripe locates the slot and its stripe for key.
func (c *DirectMapped[K, V]) slotStripe(key K) (*dmSlot[K, V], *cacheStripe) {
	i := c.hash(key) % uint32(len(c.slots))
	return &c.slots[i], &c.stripes[i&c.stripeMask]
}

// Get looks up key, returning its value and whether it was present.
func (c *DirectMapped[K, V]) Get(key K) (V, bool) {
	s, st := c.slotStripe(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	if s.valid && s.key == key {
		st.stats.Hits++
		return s.val, true
	}
	st.stats.Misses++
	var zero V
	return zero, false
}

// Put installs key → val, displacing whatever occupied the slot. With
// a budget attached, filling a previously empty slot must fit under the
// hard limit; if it does not, the install is skipped (overwrites of
// occupied slots are budget-neutral and always proceed).
func (c *DirectMapped[K, V]) Put(key K, val V) {
	s, st := c.slotStripe(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	if !s.valid && !c.budget.TryCharge(c.entryCost) {
		return
	}
	if s.valid && s.key != key {
		st.stats.Evictions++
	}
	s.valid = true
	s.key = key
	s.val = val
	st.stats.Installs++
}

// Peek is Get without touching the hit/miss counters: for admission
// decisions, and for the second look of a request whose probe was
// already counted, so neither distorts the miss-rate experiments.
func (c *DirectMapped[K, V]) Peek(key K) (V, bool) {
	s, st := c.slotStripe(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	if s.valid && s.key == key {
		return s.val, true
	}
	var zero V
	return zero, false
}

// Invalidate removes key if present and reports whether it was.
func (c *DirectMapped[K, V]) Invalidate(key K) bool {
	s, st := c.slotStripe(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	if s.valid && s.key == key {
		s.valid = false
		c.budget.Release(c.entryCost)
		return true
	}
	return false
}

// Flush invalidates every slot.
func (c *DirectMapped[K, V]) Flush() {
	n := len(c.stripes)
	for si := range c.stripes {
		st := &c.stripes[si]
		st.mu.Lock()
		for i := si; i < len(c.slots); i += n {
			if c.slots[i].valid {
				c.slots[i].valid = false
				c.budget.Release(c.entryCost)
			}
		}
		st.mu.Unlock()
	}
}

// Each calls fn for every valid entry. Each stripe is walked under its
// own lock, so the traversal is exact per stripe and approximate
// across concurrent writers; fn runs with the stripe lock held and
// must not call back into this cache.
func (c *DirectMapped[K, V]) Each(fn func(K, V)) {
	n := len(c.stripes)
	for si := range c.stripes {
		st := &c.stripes[si]
		st.mu.Lock()
		for i := si; i < len(c.slots); i += n {
			if c.slots[i].valid {
				fn(c.slots[i].key, c.slots[i].val)
			}
		}
		st.mu.Unlock()
	}
}

// EvictIf invalidates every entry pred selects, releasing its budget
// charge, and reports how many were evicted. Like Each, pred runs with
// the stripe lock held and must not call back into this cache.
func (c *DirectMapped[K, V]) EvictIf(pred func(K, V) bool) int {
	evicted := 0
	n := len(c.stripes)
	for si := range c.stripes {
		st := &c.stripes[si]
		st.mu.Lock()
		for i := si; i < len(c.slots); i += n {
			if c.slots[i].valid && pred(c.slots[i].key, c.slots[i].val) {
				c.slots[i].valid = false
				c.budget.Release(c.entryCost)
				evicted++
			}
		}
		st.mu.Unlock()
	}
	return evicted
}

// Occupancy counts the valid slots. Like Flush, each stripe is scanned
// under its own lock, so the count is exact per stripe and approximate
// across concurrent writers.
func (c *DirectMapped[K, V]) Occupancy() int {
	n := len(c.stripes)
	used := 0
	for si := range c.stripes {
		st := &c.stripes[si]
		st.mu.Lock()
		for i := si; i < len(c.slots); i += n {
			if c.slots[i].valid {
				used++
			}
		}
		st.mu.Unlock()
	}
	return used
}

// Stats returns a snapshot of the counters, aggregated across stripes.
func (c *DirectMapped[K, V]) Stats() CacheStats {
	var out CacheStats
	for i := range c.stripes {
		st := &c.stripes[i]
		st.mu.Lock()
		out.add(st.stats)
		st.mu.Unlock()
	}
	return out
}
