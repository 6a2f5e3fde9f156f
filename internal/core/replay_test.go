package core

import (
	"slices"
	"testing"
	"time"

	"fbs/internal/cryptolib"
	"fbs/internal/principal"
)

func TestReplayCacheDetectsDuplicates(t *testing.T) {
	rc := NewReplayCache(10 * time.Minute)
	now := time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC)
	h := &Header{SFL: 1, Confounder: 42, Timestamp: TimestampOf(now)}
	if rc.Check("alice", h, now) != ReplayFresh {
		t.Fatal("first sighting reported as duplicate")
	}
	if rc.Check("alice", h, now.Add(time.Second)) != ReplayDuplicate {
		t.Fatal("exact duplicate not detected")
	}
	// A different confounder is a different datagram.
	h2 := *h
	h2.Confounder = 43
	if rc.Check("alice", &h2, now) != ReplayFresh {
		t.Fatal("distinct datagram flagged as duplicate")
	}
	// Different MAC (e.g. different payload, same confounder by chance).
	h3 := *h
	h3.MACValue[0] = 0xFF
	if rc.Check("alice", &h3, now) != ReplayFresh {
		t.Fatal("distinct-MAC datagram flagged as duplicate")
	}
}

// TestReplayCacheRunKeysOnMAC is Check's distinct-MAC case through the
// batch door: two datagrams of one flow with equal SFL, confounder and
// timestamp but different MAC values are two datagrams, not a replay,
// and a third that repeats the first is.
func TestReplayCacheRunKeysOnMAC(t *testing.T) {
	rc := NewReplayCache(10 * time.Minute)
	now := time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC)
	h := Header{SFL: 1, Confounder: 42, Timestamp: TimestampOf(now)}
	other := h
	other.MACValue[0] = 0xFF
	hs := []Header{h, other, h}
	srcs := []principal.Address{"alice", "alice", "alice"}
	verdicts := make([]ReplayVerdict, len(hs))
	rc.CheckRun(srcs, hs, now, verdicts)
	if want := []ReplayVerdict{ReplayFresh, ReplayFresh, ReplayDuplicate}; !slices.Equal(verdicts, want) {
		t.Fatalf("CheckRun verdicts = %v, want %v", verdicts, want)
	}
}

func TestReplayCacheExpires(t *testing.T) {
	rc := NewReplayCache(time.Minute)
	now := time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC)
	h := &Header{SFL: 9, Confounder: 7}
	rc.Check("alice", h, now)
	// Outside the window the entry no longer matters (the freshness
	// check would reject the datagram anyway).
	if rc.Check("alice", h, now.Add(2*time.Minute)) != ReplayFresh {
		t.Fatal("expired entry still flagged as duplicate")
	}
}

func TestReplayCacheSweeps(t *testing.T) {
	rc := NewReplayCache(time.Minute)
	now := time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC)
	for i := uint32(0); i < 100; i++ {
		rc.Check("alice", &Header{SFL: 1, Confounder: i}, now)
	}
	if rc.Stats().Entries != 100 {
		t.Fatalf("Len = %d, want 100", rc.Stats().Entries)
	}
	// A sighting two minutes later sweeps the expired entries.
	rc.Check("bob", &Header{SFL: 2, Confounder: 0}, now.Add(2*time.Minute))
	if rc.Stats().Entries > 2 {
		t.Fatalf("Len after sweep = %d, want <= 2", rc.Stats().Entries)
	}
}

// TestReplayCacheHardLimitIsSound is the adversarial regression for the
// refuse-the-newcomer policy: with the budget exhausted, offering new
// signatures must not displace residents, because a displaced signature
// could be replayed and accepted a second time within the window. Under
// the old evict-a-resident policy this test fails — the attacker's
// flood evicts the victim entry and the replayed datagram comes back
// ReplayFresh.
func TestReplayCacheHardLimitIsSound(t *testing.T) {
	b := NewBudget(0, 4*CostReplayEntry)
	rc := NewReplayCache(10 * time.Minute)
	rc.SetBudget(b)
	now := time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC)

	// The victim datagram is accepted and remembered.
	victim := &Header{SFL: 7, Confounder: 0xA11CE, Timestamp: TimestampOf(now)}
	if rc.Check("alice", victim, now) != ReplayFresh {
		t.Fatal("victim sighting not fresh")
	}
	// An attacker floods signatures until the budget refuses newcomers.
	refused := uint64(0)
	for i := uint32(0); i < 64; i++ {
		if rc.Check("mallory", &Header{SFL: 1, Confounder: i, Timestamp: TimestampOf(now)}, now) == ReplayRefused {
			refused++
		}
	}
	if refused == 0 {
		t.Fatal("flood past the hard limit was never refused")
	}
	if got := rc.Stats().Refusals; got != refused {
		t.Fatalf("Refusals = %d, want %d", got, refused)
	}
	// The budget held and no resident was displaced: the victim entry
	// survives, so replaying the victim datagram is still detected.
	if b.Used() > 4*CostReplayEntry {
		t.Fatalf("used = %d, exceeds hard limit", b.Used())
	}
	if rc.Check("mallory", victim, now.Add(time.Minute)) != ReplayDuplicate {
		t.Fatal("victim signature was displaced: replayed datagram accepted")
	}
}

func TestReplayCacheBudgetRefusesAtHardLimit(t *testing.T) {
	b := NewBudget(0, 10*CostReplayEntry)
	rc := NewReplayCache(10 * time.Minute)
	rc.SetBudget(b)
	now := famEpoch
	for i := uint32(0); i < 50; i++ {
		rc.Check("mallory", &Header{SFL: 1, Confounder: i}, now)
	}
	if got := rc.Stats().Entries; got != 10 {
		t.Fatalf("entries = %d, want exactly the 10 the budget admits", got)
	}
	if b.Used() > 10*CostReplayEntry {
		t.Fatalf("used = %d, exceeds hard limit", b.Used())
	}
	if s := rc.Stats(); s.Refusals != 40 {
		t.Fatalf("Refusals = %d, want 40", s.Refusals)
	}
	// Sweeping expired entries returns their budget, so a later
	// newcomer is admitted again.
	if rc.Check("alice", &Header{SFL: 2, Confounder: 0, Timestamp: TimestampOf(now)}, now.Add(21*time.Minute)) != ReplayFresh {
		t.Fatal("newcomer refused after the sweep made room")
	}
	if b.Used() != CostReplayEntry {
		t.Fatalf("used after sweep = %d, want %d", b.Used(), CostReplayEntry)
	}
}

func TestReplayCachePerPeerOccupancy(t *testing.T) {
	rc := NewReplayCache(10 * time.Minute)
	now := famEpoch
	for i := uint32(0); i < 5; i++ {
		rc.Check("alice", &Header{SFL: 1, Confounder: i}, now)
	}
	for i := uint32(0); i < 3; i++ {
		rc.Check("bob", &Header{SFL: 2, Confounder: i}, now)
	}
	// Duplicates do not inflate occupancy.
	rc.Check("alice", &Header{SFL: 1, Confounder: 0}, now.Add(time.Second))
	per := rc.PerPeer()
	if per["alice"] != 5 || per["bob"] != 3 {
		t.Fatalf("per-peer occupancy = %v", per)
	}
	s := rc.Stats()
	if s.Entries != 8 || s.Peers != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestReplayStripeUniformity drives random signatures through the
// stripe function and asserts near-uniform occupancy: the
// confounder^sfl fold must not let one stripe silently become the
// contention (and, at the hard limit, refusal) hotspot.
func TestReplayStripeUniformity(t *testing.T) {
	rc := NewReplayCache(10 * time.Minute)
	stripes := len(rc.stripes)
	if stripes < 2 {
		t.Skip("single-stripe cache on this GOMAXPROCS; nothing to balance")
	}
	// Statistically random confounders (generator output) over a handful
	// of flows, mirroring real traffic: few sfls, many confounders.
	rng := cryptolib.NewLCGSeeded(0x5717FE)
	counts := make([]int, stripes)
	const n = 1 << 14
	for i := 0; i < n; i++ {
		sig := replaySig{
			SFL:        SFL(0xABCD_0000 + uint64(i%8)),
			Confounder: rng.Uint32(),
			Timestamp:  Timestamp(i),
		}
		counts[sig.stripe(rc.mask)]++
	}
	mean := float64(n) / float64(stripes)
	for i, c := range counts {
		if f := float64(c); f < 0.7*mean || f > 1.3*mean {
			t.Errorf("stripe %d holds %d signatures, outside ±30%% of mean %.0f", i, c, mean)
		}
	}
	// A chi-squared sanity bound: for uniform occupancy the statistic
	// concentrates around (stripes-1); allow a generous multiple.
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - mean
		chi2 += d * d / mean
	}
	if limit := 4 * float64(stripes-1); chi2 > limit {
		t.Errorf("chi-squared %.1f exceeds %.1f: stripe distribution is skewed", chi2, limit)
	}
}
