package netsim

import (
	"strings"
	"testing"

	"fbs/internal/core"
)

// TestFloodSpoofedKeyingAt10x is the headline overload run: a spoofed
// -source keying flood at 10x the legitimate rate plus an authenticated
// flow-churn flood, against a receiver with keying admission control.
// The receiver deliberately runs unbudgeted — this scenario isolates
// the admission gate (the budget's own saturation behaviour, including
// the sound replay-window refusal policy, is churn-budget's job), so
// the goodput floor asserts that the gate alone keeps known peers
// flowing while the storm is shed. The reconciliation inside RunFlood
// asserts conservation, the exponentiation to admission bound, and the
// goodput floor; the test additionally pins each of the overload drop
// reasons to the component that must produce it.
func TestFloodSpoofedKeyingAt10x(t *testing.T) {
	rep, err := RunFlood(FloodScenario{
		Name:         "spoof-10x",
		Seed:         7,
		Datagrams:    60,
		PayloadBytes: 64,
		Secret:       true,
		// 10 spoofs and 2 fresh-flow churn datagrams ride along with
		// every legitimate datagram.
		ChurnDatagrams: 120,
		SpoofDatagrams: 600,
		SpoofSources:   24,
		// The flooder's own endpoint gets a budget sized for 16 flows,
		// so the sender-side shed path is exercised too.
		SenderHardBudget: 16 * core.CostFAMEntry,
		Admission: core.AdmissionConfig{
			UpcallRate:  20,
			UpcallBurst: 5,
		},
		GoodputFloor: 0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if t.Failed() {
		t.Log(rep.Summary())
	}
	// Each overload shed mechanism fired and was attributed:
	// the token bucket...
	if rep.ReceiverDrops[core.DropKeyingOverload] == 0 {
		t.Error("spoof flood never produced DropKeyingOverload at the receiver")
	}
	// ...and the flooder's own state budget refusing fresh flows.
	if rep.SenderDrops[core.DropStateBudget] == 0 {
		t.Error("churn flooder's budget never produced DropStateBudget")
	}
	// Admitted spoofs were unmasked by the MAC, not accepted.
	if rep.ReceiverDrops[core.DropBadMAC] == 0 {
		t.Error("no admitted spoof reached (and failed) MAC verification")
	}
	if rep.Admission.Admitted == 0 {
		t.Error("gate admitted nobody; the scenario never keyed at all")
	}
}

// TestFloodPrefilterSketchPreParse pins the pre-filter at the sketch
// level under a spoofed-source storm sharing one address prefix: the
// admission gate's sheds heat the sketch, after which the storm must be
// refused before the header parse. RunFlood's reconciliation asserts
// the work-counter ledger (header parses + pre-parse sheds == enqueued)
// and the >=90% pre-parse shed floor from the scenario.
func TestFloodPrefilterSketchPreParse(t *testing.T) {
	rep, err := RunFlood(FloodScenario{
		Name:         "prefilter-sketch",
		Seed:         13,
		Datagrams:    50,
		PayloadBytes: 64,
		Secret:       true,
		// 40 spoofs ride along with every legitimate datagram, all from
		// the shared "flood-sp" sketch prefix.
		SpoofDatagrams: 2000,
		SpoofSources:   24,
		Admission: core.AdmissionConfig{
			UpcallRate:  20,
			UpcallBurst: 5,
		},
		Prefilter:         core.PrefilterConfig{Enable: true, ForceLevel: core.PrefilterSketch},
		PreParseShedFloor: 0.9,
		GoodputFloor:      0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if t.Failed() {
		t.Log(rep.Summary())
	}
	if rep.ReceiverDrops[core.DropPrefilter] == 0 {
		t.Error("sketch never shed a spoofed datagram pre-parse")
	}
	if rep.Prefilter.SketchSheds != rep.ReceiverDrops[core.DropPrefilter] {
		t.Errorf("sketch shed counter %d disagrees with DropPrefilter %d",
			rep.Prefilter.SketchSheds, rep.ReceiverDrops[core.DropPrefilter])
	}
	// The sketch does not protect what it has not seen: the first
	// spoofs reached the keying path and were shed (or unmasked) there,
	// which is exactly what heated the prefix.
	if rep.Admission.ShedOverload == 0 {
		t.Error("no admission shed ever fed the sketch")
	}
}

// TestFloodPrefilterChallengeZeroKeying pins the ladder at the top
// rung: every spoofed datagram must be refused statelessly — zero
// Diffie-Hellman computes and zero admissions attributable to the
// storm (ExpectNoSpoofKeying) — while the legitimate sender and the
// churn flooder answer their challenges with cookie echoes and carry
// on. Cookies here derive from a fixed seed, the crash-restart
// resumability knob.
func TestFloodPrefilterChallengeZeroKeying(t *testing.T) {
	rep, err := RunFlood(FloodScenario{
		Name:           "prefilter-challenge",
		Seed:           17,
		Datagrams:      60,
		PayloadBytes:   64,
		Secret:         true,
		ChurnDatagrams: 120,
		SpoofDatagrams: 600,
		SpoofSources:   24,
		Admission: core.AdmissionConfig{
			UpcallRate:  20,
			UpcallBurst: 5,
		},
		Prefilter: core.PrefilterConfig{
			Enable:     true,
			ForceLevel: core.PrefilterChallenge,
			SecretSeed: []byte("flood-prefilter-seed"),
		},
		PreParseShedFloor:   0.9,
		ExpectNoSpoofKeying: true,
		GoodputFloor:        0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if t.Failed() {
		t.Log(rep.Summary())
	}
	if rep.ReceiverDrops[core.DropChallenged] == 0 {
		t.Error("challenge level never refused an unknown peer")
	}
	if rep.Prefilter.EchoAccepted == 0 {
		t.Error("no legitimate echo was ever verified; the transfer should have stalled")
	}
	if rep.Prefilter.EchoRejected != 0 {
		t.Errorf("clean link rejected %d echoes", rep.Prefilter.EchoRejected)
	}
}

// TestFloodPrefilterAdaptiveEscalates runs the ladder in adaptive mode:
// resting at off (zero added cost in peacetime), it must climb when the
// admission gate starts shedding under the spoofed storm. Escalation —
// not a particular resting rung — is the assertion; hysteresis means
// the ladder may step back down whenever the sketch itself quiets the
// pressure signal.
func TestFloodPrefilterAdaptiveEscalates(t *testing.T) {
	rep, err := RunFlood(FloodScenario{
		Name:           "prefilter-adaptive",
		Seed:           19,
		Datagrams:      50,
		PayloadBytes:   64,
		SpoofDatagrams: 2000,
		SpoofSources:   24,
		Admission: core.AdmissionConfig{
			UpcallRate:  20,
			UpcallBurst: 5,
		},
		Prefilter:        core.PrefilterConfig{Enable: true},
		ExpectEscalation: true,
		GoodputFloor:     0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if t.Failed() {
		t.Log(rep.Summary())
	}
	if rep.Prefilter.Escalations == 0 {
		t.Error("adaptive ladder never escalated")
	}
}

// fairness is the first-contact fairness row: one prefix ("flood-sp")
// floods from 1,024 unregistered sources, 20 spoofs ahead of the
// retries in each of 40 steps, while 16 first contacts from prefixes of
// their own retry until they are keyed. The bucket is tight (20/s,
// burst 5) and each step refills two tokens, so whoever the gate lets
// through decides the row.
func fairness(name string, seed uint64, pf core.PrefilterConfig, floor int) FloodScenario {
	return FloodScenario{
		Name:              name,
		Seed:              seed,
		Datagrams:         41,
		PayloadBytes:      64,
		Secret:            true,
		SpoofDatagrams:    820,
		SpoofSources:      1024,
		Admission:         core.AdmissionConfig{UpcallRate: 20, UpcallBurst: 5},
		Prefilter:         pf,
		FirstContacts:     16,
		FirstContactFloor: floor,
		GoodputFloor:      0.7,
	}
}

// TestFloodFairness: the sketch alone keeps first contacts fair. Pinned
// at the sketch rung it keys all 16 within 20 steps; the adaptive ladder,
// which must first climb to that rung, within 30. RunFlood's
// reconciliation asserts the floor.
func TestFloodFairness(t *testing.T) {
	for _, sc := range []FloodScenario{
		fairness("fairness-sketch", 23, core.PrefilterConfig{Enable: true, ForceLevel: core.PrefilterSketch}, 20),
		fairness("fairness-adaptive", 29, core.PrefilterConfig{Enable: true}, 30),
	} {
		rep, err := RunFlood(sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range rep.Violations {
			t.Errorf("%s: violation: %s", sc.Name, v)
		}
		if t.Failed() {
			t.Log(rep.Summary())
		}
	}
}

// TestFloodFairnessBucketOnlyMissesFloor is the row's control: with the
// token bucket alone, the flood's spoofs take every refill ahead of the
// retries, so no first contact is keyed during the attack and the floor
// the sketch meets is missed. Without this the row could not tell a
// fair gate from an unfair one.
func TestFloodFairnessBucketOnlyMissesFloor(t *testing.T) {
	rep, err := RunFlood(fairness("fairness-bucket", 23, core.PrefilterConfig{}, 20))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FirstContactsKeyed != 0 || rep.FirstContactStep != 0 {
		t.Errorf("bucket only keyed %d first contacts (all by step %d); the control should key none",
			rep.FirstContactsKeyed, rep.FirstContactStep)
	}
	if len(rep.Violations) != 1 || !strings.HasPrefix(rep.Violations[0], "first contacts:") {
		t.Errorf("violations = %q, want exactly the first-contact floor", rep.Violations)
	}
	// The recovery rounds, with the flood stopped, still key everyone.
	if !rep.Complete {
		t.Error("first contacts never keyed after the flood stopped")
	}
}

// TestFloodChurnBudgetExact runs the flow-churn flood alone, with no
// admission gate: the memory budget by itself must cap receiver state
// (flow-key cache installs skipped, replay newcomers refused) while
// every offered datagram still reconciles to a bucket. Because the
// replay window refuses newcomers rather than evicting residents (a
// resident displaced mid-window could be replayed and accepted twice),
// a saturated budget sheds legitimate datagrams too — the goodput
// floor here is deliberately low, and completeness instead comes from
// the recovery rounds, which step the simulated clock past the
// freshness window so the sweep returns replay bytes to the budget.
func TestFloodChurnBudgetExact(t *testing.T) {
	rep, err := RunFlood(FloodScenario{
		Name:           "churn-budget",
		Seed:           11,
		Datagrams:      40,
		PayloadBytes:   64,
		ChurnDatagrams: 200,
		HardBudget:     4096,
		GoodputFloor:   0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if t.Failed() {
		t.Log(rep.Summary())
	}
	if rep.Budget.Denials == 0 {
		t.Error("churn never drove the budget to a denial")
	}
	if rep.Replay.Refusals == 0 {
		t.Error("replay cache never refused a newcomer under the hard budget")
	}
	if rep.ReceiverDrops[core.DropReplayBudget] == 0 {
		t.Error("saturated replay window never surfaced as DropReplayBudget")
	}
	if rep.Budget.Peak > 4096 {
		t.Errorf("budget peak %d exceeded the hard limit", rep.Budget.Peak)
	}
	// With nobody spoofing and both senders authenticated, the recovery
	// rounds (each advancing the clock past the freshness window) must
	// eventually land every legitimate byte.
	if !rep.Complete {
		t.Error("transfer incomplete under churn-only flood")
	}
}
