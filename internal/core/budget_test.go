package core

import (
	"sync"
	"testing"
	"time"
)

func TestBudgetLevels(t *testing.T) {
	b := NewBudget(750, 1000)
	if b.Level() != BudgetNormal {
		t.Fatalf("fresh budget level = %v", b.Level())
	}
	b.TryCharge(700)
	if b.Level() != BudgetNormal {
		t.Fatalf("below high water, level = %v", b.Level())
	}
	b.TryCharge(100)
	if b.Level() != BudgetPressure {
		t.Fatalf("above high water, level = %v", b.Level())
	}
	if !b.UnderPressure() {
		t.Fatal("UnderPressure false above high water")
	}
	b.TryCharge(200) // used = 1000: no smallest entry fits
	if b.Level() != BudgetHard {
		t.Fatalf("at limit, level = %v", b.Level())
	}
	b.Release(600)
	if b.Level() != BudgetNormal {
		t.Fatalf("after release, level = %v", b.Level())
	}
	s := b.Stats()
	if s.Used != 400 || s.Peak != 1000 || s.PressureEvents == 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestBudgetTryCharge(t *testing.T) {
	b := NewBudget(0, 100)
	if !b.TryCharge(100) {
		t.Fatal("charge to exactly the limit refused")
	}
	if b.TryCharge(1) {
		t.Fatal("charge past the limit admitted")
	}
	if b.Stats().Denials != 1 {
		t.Fatalf("Denials = %d, want 1", b.Stats().Denials)
	}
	b.Release(50)
	if !b.TryCharge(50) {
		t.Fatal("charge refused after release made room")
	}
}

func TestBudgetNilSafe(t *testing.T) {
	var b *Budget
	if !b.TryCharge(1 << 40) {
		t.Fatal("nil budget refused a charge")
	}
	b.Release(10)
	if b.Used() != 0 || b.Level() != BudgetNormal || b.UnderPressure() {
		t.Fatal("nil budget not inert")
	}
	if s := b.Stats(); s != (BudgetStats{}) {
		t.Fatalf("nil stats = %+v", s)
	}
	if NewBudget(10, 0) != nil {
		t.Fatal("non-positive hard limit did not disable the budget")
	}
}

func TestBudgetConcurrentChargeNeverExceedsHard(t *testing.T) {
	const hard = 10_000
	b := NewBudget(0, hard)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				if b.TryCharge(7) {
					if u := b.Used(); u > hard {
						t.Errorf("used %d exceeds hard limit", u)
						return
					}
					b.Release(7)
				}
			}
		}()
	}
	wg.Wait()
	if p := b.Stats().Peak; p > hard {
		t.Fatalf("peak %d exceeds hard limit", p)
	}
}

func TestFAMBudgetShedsAndRecovers(t *testing.T) {
	// Budget sized for exactly two flow entries: the third distinct flow
	// into empty slots must be refused, and sweeping must give the bytes
	// back.
	b := NewBudget(0, 2*CostFAMEntry)
	f := testFAM(time.Minute, 1024)
	f.SetBudget(b)
	ids := []FlowID{{SrcPort: 1}, {SrcPort: 2}, {SrcPort: 3}}
	var denied int
	for _, id := range ids {
		if _, _, _, ok := f.classifyBatch(id, famEpoch, []int{1}); !ok {
			denied++
		}
	}
	if denied != 1 {
		t.Fatalf("denied = %d, want 1", denied)
	}
	if b.Used() != 2*CostFAMEntry {
		t.Fatalf("used = %d, want %d", b.Used(), 2*CostFAMEntry)
	}
	// Idle past the threshold: the sweep reclaims both entries and their
	// budget, and the once-denied flow now classifies.
	if n := f.Sweep(famEpoch.Add(2 * time.Minute)); n != 2 {
		t.Fatalf("swept %d, want 2", n)
	}
	if b.Used() != 0 {
		t.Fatalf("used after sweep = %d, want 0", b.Used())
	}
	if _, _, _, ok := f.classifyBatch(ids[2], famEpoch.Add(2*time.Minute), []int{1}); !ok {
		t.Fatal("classification still refused after sweep made room")
	}
}

func TestCacheBudgetSkipsInstallAtHardLimit(t *testing.T) {
	b := NewBudget(0, 2*CostFlowKeyEntry)
	c := NewDirectMapped[int, int](64, func(k int) uint32 { return uint32(k) })
	c.SetBudget(b, CostFlowKeyEntry)
	c.Put(1, 10)
	c.Put(2, 20)
	c.Put(3, 30) // fresh slot, no room: skipped
	if _, ok := c.Get(3); ok {
		t.Fatal("install past the hard limit was not skipped")
	}
	// Overwriting an occupied slot is budget-neutral and must proceed.
	c.Put(1, 11)
	if v, ok := c.Get(1); !ok || v != 11 {
		t.Fatal("budget-neutral overwrite refused")
	}
	// Invalidation returns the entry's bytes.
	c.Invalidate(2)
	if b.Used() != CostFlowKeyEntry {
		t.Fatalf("used after invalidate = %d", b.Used())
	}
	c.Put(3, 30)
	if v, ok := c.Get(3); !ok || v != 30 {
		t.Fatal("install refused after invalidate made room")
	}
	c.Flush()
	if b.Used() != 0 {
		t.Fatalf("used after flush = %d", b.Used())
	}
}

// The replay cache's hard-limit behaviour (refuse-the-newcomer, budget
// release on sweep, per-peer occupancy) is covered in replay_test.go.
