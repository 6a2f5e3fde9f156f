package netsim

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fbs/internal/core"
	"fbs/internal/transport"
)

// The chaos matrix: each scenario drives a transfer through induced
// faults and demands exact reconciliation — every datagram offered to
// the network is accounted for as delivered or as exactly one drop
// bucket, and the transfer completes once the link heals. Run with
// -race in CI.

func runScenario(t *testing.T, sc ChaosScenario) *ChaosReport {
	t.Helper()
	r, err := RunChaos(sc)
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	for _, v := range r.Violations {
		t.Errorf("reconciliation violation: %s", v)
	}
	if t.Failed() {
		t.Log(r.Summary())
		dumpTraceArtifact(t, sc.Name, r)
	}
	return r
}

// dumpTraceArtifact writes the run's assembled traces to
// FBS_TRACE_ARTIFACT_DIR (when set and the scenario was traced) so CI
// can upload the per-datagram evidence alongside the failure.
func dumpTraceArtifact(t *testing.T, name string, r *ChaosReport) {
	t.Helper()
	dir := os.Getenv("FBS_TRACE_ARTIFACT_DIR")
	if dir == "" || r.TraceReport == nil {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	data, err := json.MarshalIndent(r.TraceReport, "", "  ")
	if err != nil {
		return
	}
	path := filepath.Join(dir, "chaos-"+name+"-traces.json")
	if os.WriteFile(path, data, 0o644) == nil {
		t.Logf("trace artifact written to %s", path)
	}
}

// allInjections asks for every adversary kind, several of each, so each
// DropReason bucket reachable by injection is exercised.
func allInjections(n int) map[InjectKind]int {
	m := make(map[InjectKind]int)
	for k := 0; k < NumInjectKinds; k++ {
		m[InjectKind(k)] = n
	}
	return m
}

func TestChaosAdversaryExactBuckets(t *testing.T) {
	// Clean link, hostile middle: every injected datagram must land in
	// its designated drop bucket, and only there.
	r := runScenario(t, ChaosScenario{
		Name:         "adversary-only",
		Seed:         1,
		Datagrams:    60,
		PayloadBytes: 256,
		Secret:       true,
		Inject:       allInjections(4),
		ExactBuckets: true,
	})
	// Satellite guarantee: every link/adversary-reachable DropReason has
	// a test asserting its counter increments. Keying is exercised by
	// TestChaosKeyingOutage below; the overload sheds (keying_overload,
	// state_budget, replay_budget) by the flood tests in
	// flood_test.go — this receiver runs unbudgeted, so its replay
	// window never refuses a newcomer. The edge pre-filter buckets
	// (prefilter, bad_cookie, challenged) need the pre-filter enabled
	// on the receiver; they are asserted exactly by the prefilter flood
	// scenarios in flood_test.go and the cookie chaos script in
	// prefilter_test.go.
	for reason := core.DropReason(1); int(reason) < core.NumDropReasons; reason++ {
		switch reason {
		case core.DropKeying, core.DropKeyingOverload,
			core.DropStateBudget, core.DropReplayBudget,
			core.DropPrefilter, core.DropBadCookie, core.DropChallenged:
			continue
		}
		if r.ReceiverDrops[reason] == 0 {
			t.Errorf("drop reason %s never incremented by the adversary matrix", reason)
		}
	}
	for k := 0; k < NumInjectKinds; k++ {
		if r.Injected[k] == 0 {
			t.Errorf("adversary never managed a %s injection", InjectKind(k))
		}
	}
}

func TestChaosAdversarySuiteMatrix(t *testing.T) {
	// The full adversary matrix must reconcile exactly under every
	// registered suite, not just the paper's DES default: the injection
	// kinds are suite-aware (bad-alg, bad-cipher, no-cipher and
	// suite-swap mutate relative to whatever framing the samples carry),
	// so each kind must still land in its one designated bucket.
	for _, s := range core.Suites() {
		if s.ID() == core.CipherNone {
			continue // cannot carry Secret traffic
		}
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			t.Parallel()
			r := runScenario(t, ChaosScenario{
				Name:         "adversary-" + s.Name(),
				Seed:         6 + uint64(s.ID()),
				Datagrams:    40,
				PayloadBytes: 192,
				Secret:       true,
				Suite:        s.ID(),
				Inject:       allInjections(3),
				ExactBuckets: true,
			})
			for k := 0; k < NumInjectKinds; k++ {
				if r.Injected[k] == 0 {
					t.Errorf("suite %s: adversary never managed a %s injection", s.Name(), InjectKind(k))
				}
			}
		})
	}
}

func TestChaosDuplicateStormExact(t *testing.T) {
	// Heavy duplication with the replay cache on: every extra clean copy
	// must surface as exactly one DropReplay.
	r := runScenario(t, ChaosScenario{
		Name:         "duplicate-storm",
		Seed:         2,
		Datagrams:    80,
		PayloadBytes: 128,
		Secret:       true,
		Link:         transport.Impairments{DupProb: 0.5, Jitter: 2 * time.Millisecond},
		ExactBuckets: true,
	})
	if r.ReceiverDrops[core.DropReplay] == 0 {
		t.Error("duplicate storm produced no replay drops")
	}
	if dup := r.Port.DeliveredDup; dup != r.ReceiverDrops[core.DropReplay] {
		t.Errorf("delivered %d dups but dropped %d replays", dup, r.ReceiverDrops[core.DropReplay])
	}
}

func TestChaosLossyBurstCompletesAfterHeal(t *testing.T) {
	// The full storm: burst loss, duplication, corruption, jitter,
	// reordering, plus adversary traffic. Buckets are seed-dependent
	// (corruption lands where it lands), so the assertion is the
	// conservation equation plus completion after Heal.
	r := runScenario(t, ChaosScenario{
		Name:         "lossy-burst",
		Seed:         3,
		Datagrams:    100,
		PayloadBytes: 256,
		Secret:       true,
		Link: transport.Impairments{
			LossProb: 0.02, BurstEnter: 0.05, BurstExit: 0.3, BurstLoss: 0.7,
			DupProb:     0.1,
			CorruptProb: 0.1,
			Delay:       time.Millisecond, Jitter: 3 * time.Millisecond,
			ReorderProb: 0.05, Holdback: 5 * time.Millisecond,
		},
		Inject: map[InjectKind]int{InjectReplay: 3, InjectForgeMAC: 3, InjectTruncate: 3},
	})
	if !r.Complete {
		t.Fatal("transfer did not complete after heal")
	}
	ls := r.Links["chaos-alice->chaos-bob"]
	if ls.Lost == 0 || ls.BurstLost == 0 || ls.Corrupted == 0 {
		t.Errorf("storm link too gentle: %+v", ls)
	}
	if r.Rounds == 0 && ls.Lost > 0 {
		t.Error("datagrams were lost yet no retransmission round ran")
	}
	if r.Port.DeliveredCorrupt > 0 && r.Accepted >= r.Port.DeliveredClean+r.Port.DeliveredCorrupt {
		t.Error("corrupted copies were accepted")
	}
}

func TestChaosKeyingOutage(t *testing.T) {
	// Directory outage with flushed receiver caches: every datagram in
	// the outage window drops DropKeying after one failed directory call,
	// and the transfer still completes once the directory returns.
	r := runScenario(t, ChaosScenario{
		Name:            "keying-outage",
		Seed:            4,
		Datagrams:       30,
		OutageDatagrams: 12,
		PayloadBytes:    128,
		Secret:          true,
		Link:            transport.Impairments{Jitter: time.Millisecond},
		KeyOutage:       true,
	})
	if got := r.ReceiverDrops[core.DropKeying]; got != 12 {
		t.Errorf("drops[keying]=%d, want 12", got)
	}
	if r.DirectoryFails != 12 {
		t.Errorf("%d failed directory calls, want one per outage datagram (12)", r.DirectoryFails)
	}
}

// TestChaosTraceCoversDropReasons is the acceptance gate for the
// tracing pipeline: a fully sampled chaos run must yield at least one
// complete multi-span trace for every DropReason the run actually
// produced — the drop verdict pinned on a trace that also shows how
// the datagram got there (seal/link/injection spans).
func TestChaosTraceCoversDropReasons(t *testing.T) {
	check := func(t *testing.T, r *ChaosReport) {
		t.Helper()
		if r.TraceReport == nil {
			t.Fatal("traced scenario produced no TraceReport")
		}
		if r.TraceReport.Started == 0 {
			t.Fatal("no traces started")
		}
		// Index: drop verdict -> best span count seen on a trace.
		best := map[string]int{}
		for _, tr := range r.TraceReport.Traces {
			if tr.Drop != "" && len(tr.Spans) > best[tr.Drop] {
				best[tr.Drop] = len(tr.Spans)
			}
		}
		for reason := core.DropReason(1); int(reason) < core.NumDropReasons; reason++ {
			if r.ReceiverDrops[reason] == 0 {
				continue // not reachable in this run
			}
			if n := best[reason.String()]; n < 2 {
				t.Errorf("drop reason %s (count %d) has no multi-span trace (best %d spans)",
					reason, r.ReceiverDrops[reason], n)
			}
		}
		// A delivered datagram's trace must cross both endpoints: seal
		// and open side spans plus the link hop between them.
		var complete bool
		for _, tr := range r.TraceReport.Traces {
			var seal, link, open bool
			for _, s := range tr.Spans {
				switch s.Kind {
				case "seal":
					seal = true
				case "link":
					link = true
				case "open":
					open = true
				}
			}
			if tr.Drop == "" && seal && link && open {
				complete = true
				break
			}
		}
		if !complete {
			t.Error("no delivered trace spans seal, link and open")
		}
	}

	t.Run("adversary", func(t *testing.T) {
		// Every injection-reachable reason, replay via duplication, all
		// under full sampling. Dups make buckets inexact only for
		// corruption, so the link stays corruption-free.
		r := runScenario(t, ChaosScenario{
			Name:         "traced-adversary",
			Seed:         21,
			Datagrams:    60,
			PayloadBytes: 256,
			Secret:       true,
			Link:         transport.Impairments{DupProb: 0.2, Jitter: time.Millisecond},
			Inject:       allInjections(4),
			Trace:        true,
		})
		check(t, r)
		if r.TraceReport.Recorded == 0 || r.TraceReport.Dropped != 0 {
			t.Errorf("span ring shed spans or stayed idle: started=%d recorded=%d dropped=%d",
				r.TraceReport.Started, r.TraceReport.Recorded, r.TraceReport.Dropped)
		}
	})
	t.Run("keying-outage", func(t *testing.T) {
		// DropKeying is only reachable through a directory outage; its
		// trace must still be multi-span (open root + flowkey verdict).
		r := runScenario(t, ChaosScenario{
			Name:            "traced-outage",
			Seed:            22,
			Datagrams:       20,
			OutageDatagrams: 8,
			PayloadBytes:    128,
			Secret:          true,
			Link:            transport.Impairments{Jitter: time.Millisecond},
			KeyOutage:       true,
			Trace:           true,
		})
		check(t, r)
		if best := r.ReceiverDrops[core.DropKeying]; best == 0 {
			t.Error("outage run produced no keying drops to trace")
		}
	})
}

func TestChaosDeterministicFaults(t *testing.T) {
	// Same scenario, same seed: the fault side of the run — link stats
	// and drop buckets — reproduces exactly. (Wall-clock timestamps and
	// confounders differ; the fault decisions must not.)
	sc := ChaosScenario{
		Name:         "determinism",
		Seed:         5,
		Datagrams:    50,
		PayloadBytes: 128,
		Secret:       true,
		Link:         transport.Impairments{LossProb: 0.2, DupProb: 0.2},
	}
	a, err := RunChaos(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Phase-1 offers are fixed (50 datagrams); retransmission counts
	// depend on what was lost, which is seeded. Compare the phase-1
	// prefix implicitly via loss/dup totals over the first 50 offers:
	// with identical seeds the whole decision sequence matches, so the
	// totals match as long as both runs offered the same count.
	la, lb := a.Links["chaos-alice->chaos-bob"], b.Links["chaos-alice->chaos-bob"]
	if la.Offered != lb.Offered || la.Lost != lb.Lost || la.Duplicated != lb.Duplicated {
		t.Errorf("seeded runs diverged: %+v vs %+v", la, lb)
	}
	if a.ReceiverDrops != b.ReceiverDrops {
		t.Errorf("drop buckets diverged: %v vs %v", a.ReceiverDrops, b.ReceiverDrops)
	}
}

func TestChaosBatchedReceiverReconciles(t *testing.T) {
	// The adversary matrix again, with the receiver on the batched data
	// plane (ReceiveBatch → OpenBatch). The ledger must be exactly the
	// one the per-datagram receiver produces: the batch engine accounts
	// per datagram, so every injected datagram still lands in its one
	// designated drop bucket and duplicate suppression stays exact.
	r := runScenario(t, ChaosScenario{
		Name:         "adversary-batched",
		Seed:         1,
		Datagrams:    60,
		PayloadBytes: 256,
		Secret:       true,
		Batch:        true,
		Inject:       allInjections(4),
		ExactBuckets: true,
	})
	for k := 0; k < NumInjectKinds; k++ {
		if r.Injected[k] == 0 {
			t.Errorf("adversary never managed a %s injection", InjectKind(k))
		}
	}
}

func TestChaosBatchedDuplicateStorm(t *testing.T) {
	// Heavy duplication through the batched receiver: a duplicated copy
	// arriving in the same recvmmsg-style batch as its original must be
	// caught by the stripe-grouped replay pass exactly as a separate
	// Receive would catch it.
	r := runScenario(t, ChaosScenario{
		Name:         "duplicate-storm-batched",
		Seed:         2,
		Link:         transport.Impairments{DupProb: 0.5, Delay: time.Millisecond, Jitter: 3 * time.Millisecond},
		Datagrams:    96,
		PayloadBytes: 64,
		Secret:       true,
		Batch:        true,
		ExactBuckets: true,
	})
	if r.ReceiverDrops[core.DropReplay] == 0 {
		t.Error("duplicate storm never produced a DropReplay through the batched receiver")
	}
}
