package netsim

import (
	"encoding/binary"
	"fmt"
	"time"

	"fbs/internal/core"
	"fbs/internal/cryptolib"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// This file is the overload soak harness: a receiver with a hard
// soft-state memory budget and keying admission control, attacked by the
// two state-creation floods the FBS design is most exposed to, with
// RunChaos-style exact reconciliation.
//
//   - The flow-churn flooder is an AUTHENTICATED peer that puts every
//     datagram on a fresh flow (a new 5-tuple/sfl each time), growing
//     the receiver's replay window and flow-key cache — and its own
//     flow state table — at line rate. The budget must cap total state
//     while every offered datagram still lands in exactly one bucket.
//     Replay signatures are never evicted to make room (that would let
//     an attacker replay the evicted datagram), so a saturated budget
//     sheds verified datagrams with DropReplayBudget until the
//     freshness window turns over; the recovery phase advances a
//     simulated clock one window per retransmission round to model
//     riding that out.
//   - The spoofed-source keying flooder forges datagrams from REGISTERED
//     principals the receiver has never talked to. Each admitted source
//     costs the receiver a certificate fetch plus a Diffie-Hellman
//     exponentiation before the MAC unmasks it — the classic
//     verification-flooding DoS. The admission gate must shed the storm
//     before the expensive work, so exponentiations grow with admitted
//     peers, never with offered packets.
//
// Throughout, a legitimate transfer must retain at least the configured
// fraction of its unattacked goodput.

// FloodScenario parameterises one overload run.
type FloodScenario struct {
	// Name labels the scenario in reports.
	Name string
	// Seed drives spoof forging and churn payloads.
	Seed uint64
	// Datagrams is the legitimate transfer size; PayloadBytes sizes each
	// datagram (minimum 8).
	Datagrams    int
	PayloadBytes int
	// Secret encrypts the legitimate payloads.
	Secret bool
	// ChurnDatagrams is how many fresh-flow datagrams the authenticated
	// flooder offers; SpoofDatagrams how many forged-source keying
	// datagrams arrive, cycling over SpoofSources registered principals.
	ChurnDatagrams int
	SpoofDatagrams int
	SpoofSources   int
	// HardBudget and HighWater configure the receiver's soft-state
	// budget (bytes); HardBudget <= 0 disables it. SenderHardBudget, if
	// positive, budgets the churn flooder's own endpoint so the
	// sender-side flow-table shed path is exercised too.
	HardBudget       int64
	HighWater        int64
	SenderHardBudget int64
	// Admission configures the receiver's keying gate.
	Admission core.AdmissionConfig
	// GoodputFloor is the minimum fraction of the legitimate datagrams
	// offered during the attack that must be accepted during the attack
	// (before any retransmission); default 0.7.
	GoodputFloor float64
	// MaxRounds bounds post-attack retransmission rounds (default 10).
	MaxRounds int

	// Prefilter configures the receiver's edge pre-filter. When
	// enabled, the legitimate sender and the churn flooder also run
	// with the pre-filter machinery on (at the resting level) so their
	// cookie jars can absorb challenges and wrap retries in echoes.
	Prefilter core.PrefilterConfig
	// PreParseShedFloor, when > 0, requires at least this fraction of
	// the spoofed datagrams to have been refused before the header
	// parse (the sketch/challenge work bound from the paper's
	// cheapest-check-first discipline).
	PreParseShedFloor float64
	// ExpectEscalation requires the adaptive ladder to have climbed at
	// least one rung during the run.
	ExpectEscalation bool
	// ExpectNoSpoofKeying requires the spoofed flood to have bought
	// zero keying work: Diffie-Hellman computes stay exactly at the
	// legitimate-peer count and no spoofed source passes admission.
	ExpectNoSpoofKeying bool
}

// FloodReport is the outcome of an overload run plus its reconciliation.
type FloodReport struct {
	ReportHeader
	// LegitOffered/LegitAccepted count the legitimate transfer during
	// the attack phase (acceptance measured before retransmission);
	// Goodput is their ratio.
	LegitOffered  uint64
	LegitAccepted uint64
	Goodput       float64
	// ChurnAttempts is what the flooder tried to seal; ChurnOffered what
	// its endpoint let onto the wire (the difference was shed
	// sender-side under its own budget).
	ChurnAttempts uint64
	ChurnOffered  uint64
	// SpoofOffered counts forged datagrams injected at the receiver.
	SpoofOffered uint64
	// Accepted is everything the receiver accepted (legit + churn,
	// including retransmissions).
	Accepted      uint64
	SenderDrops   [core.NumDropReasons]uint64
	ReceiverDrops [core.NumDropReasons]uint64
	Port          transport.PortStats
	// Overload-plane snapshots from the receiver, plus the churn
	// flooder's own budget.
	Budget       core.BudgetStats
	SenderBudget core.BudgetStats
	Admission    core.AdmissionStats
	Replay       core.ReplayStats
	Keys         core.KeyServiceStats
	// LegitPeers is how many genuine correspondents the receiver keyed
	// (the allowance on top of Admitted in the exponentiation bound).
	LegitPeers uint64
	Rounds     int
	// Prefilter snapshots the receiver's edge pre-filter;
	// PreParseShedRatio is the fraction of spoofed datagrams refused
	// before the header parse (exact when no legitimate datagram was
	// challenged; otherwise a slight overestimate, clamped to 1).
	// PreParseShedFloor echoes the scenario's expectation so offline
	// validators (fbsstat bench-validate) can re-assert it from the
	// serialised report alone.
	Prefilter         core.PrefilterStats
	PreParseShedRatio float64
	PreParseShedFloor float64
}

// spoofHeader forges a wire datagram from src: a plausible fresh header
// (random sfl and confounder, current timestamp, garbage MAC) that will
// survive every cheap check and force the receiver to the keying path.
func spoofHeader(rng *cryptolib.LCG, src, dst principal.Address, now time.Time) transport.Datagram {
	h := core.Header{
		Version:    core.HeaderVersion,
		MAC:        cryptolib.MACPrefixMD5,
		SFL:        core.SFL(rng.Uint32()) | core.SFL(rng.Uint32())<<32,
		Confounder: rng.Uint32(),
		Timestamp:  core.TimestampOf(now),
	}
	for i := 0; i < len(h.MACValue); i += 4 {
		binary.BigEndian.PutUint32(h.MACValue[i:], rng.Uint32())
	}
	payload := h.Encode(make([]byte, 0, core.HeaderSize+32))
	payload = append(payload, make([]byte, 32)...)
	return transport.Datagram{Source: src, Destination: dst, Payload: payload}
}

// RunFlood executes one overload scenario to completion and reconciles
// the books. An empty Violations slice is the verdict: the state budget
// held, the sheds were attributed exactly, the exponentiations stayed
// bounded by admissions, and the legitimate transfer survived.
func RunFlood(sc FloodScenario) (*FloodReport, error) {
	transferDefaults(&sc.Datagrams, &sc.PayloadBytes, &sc.MaxRounds, 64)
	if sc.SpoofSources <= 0 {
		sc.SpoofSources = 16
	}
	if sc.GoodputFloor <= 0 {
		sc.GoodputFloor = 0.7
	}
	seed := sc.Seed
	if seed == 0 {
		seed = 0xF100D
	}
	const (
		sender   principal.Address = "flood-alice"
		receiver principal.Address = "flood-bob"
		flooder  principal.Address = "flood-mallory"
	)

	// The spoof sources are REGISTERED principals — their certificates
	// resolve and verify, so an admitted spoof costs the receiver real
	// keying work, which is exactly what the gate must ration.
	spoofs := make([]principal.Address, sc.SpoofSources)
	for i := range spoofs {
		spoofs[i] = principal.Address(fmt.Sprintf("flood-spoof-%03d", i))
	}
	report := &FloodReport{ReportHeader: ReportHeader{Scenario: sc.Name}}
	// A clean link: the flood is the fault.
	r, err := newRig(&report.ReportHeader, "flood-root", transport.Impairments{Seed: seed},
		sc.PayloadBytes, sc.Datagrams, receiver, append([]principal.Address{sender, flooder}, spoofs...)...)
	if err != nil {
		return nil, err
	}
	r.queue = 1 << 16
	rng := cryptolib.NewLCGSeeded(seed)
	// A shared simulated clock lets the recovery phase advance time past
	// the freshness window, expiring replay signatures that the sound
	// refuse-the-newcomer policy holds until expiry (nothing else frees
	// them once the budget saturates).
	clk := core.NewSimClock(time.Now())
	const freshness = 10 * time.Minute

	attach := func(addr principal.Address, cfg core.Config) (*core.Endpoint, error) {
		cfg.Clock, cfg.FreshnessWindow = clk, freshness
		cfg.AcceptMACs = []cryptolib.MACID{cryptolib.MACPrefixMD5}
		return r.attach(addr, cfg)
	}
	// Senders run the pre-filter machinery at the resting level when the
	// receiver's is enabled: their inbound path absorbs challenge frames
	// into the jar and their send path wraps retries in echo envelopes.
	senderPF := core.PrefilterConfig{Enable: sc.Prefilter.Enable}
	alice, err := attach(sender, core.Config{Prefilter: senderPF})
	if err != nil {
		return nil, err
	}
	defer alice.Close()
	bob, err := attach(receiver, core.Config{
		EnableReplayCache: true,
		StateBudget:       core.NewBudget(sc.HighWater, sc.HardBudget),
		Admission:         sc.Admission,
		Prefilter:         sc.Prefilter,
	})
	if err != nil {
		return nil, err
	}
	defer bob.Close()
	mallory, err := attach(flooder, core.Config{
		Prefilter:   senderPF,
		StateBudget: core.NewBudget(0, sc.SenderHardBudget),
		// Every churn datagram must land on a fresh flow: classify on
		// the sequence number the churn loop varies.
		Selector: func(dg transport.Datagram) core.FlowID {
			return core.FlowID{
				Src: dg.Source,
				Dst: dg.Destination,
				Aux: uint64(binary.BigEndian.Uint32(dg.Payload)),
			}
		},
	})
	if err != nil {
		return nil, err
	}
	defer mallory.Close()

	r.receive(bob, false)
	// With the pre-filter on, the senders must drain their inbound
	// queues: processing a challenge frame is what stocks their jars.
	// Nothing else is addressed to them, so the same loop marks nothing.
	if sc.Prefilter.Enable {
		r.receive(alice, false)
		r.receive(mallory, false)
	}

	sendLegit := func(seq uint32) {
		if alice.SendTo(receiver, r.payload(seq), sc.Secret) == nil {
			report.LegitOffered++
		}
	}
	// Churn datagrams carry sequence numbers in the top half of the
	// space so the receiver loop never confuses them with the transfer.
	churnSeq := uint32(1 << 31)
	sendChurn := func() {
		report.ChurnAttempts++
		dg := transport.Datagram{
			Source:      flooder,
			Destination: receiver,
			Payload:     r.payload(churnSeq),
		}
		churnSeq++
		// Seal failures (the flooder's own budget refusing a fresh flow)
		// are counted by its endpoint; offered means "made it to the
		// wire".
		if mallory.Send(dg, false) == nil {
			report.ChurnOffered++
		}
	}
	sendSpoof := func(i int) {
		r.net.Inject(receiver, spoofHeader(rng, spoofs[i%len(spoofs)], receiver, clk.Now()))
		report.SpoofOffered++
	}

	// Warm-up: both genuine correspondents key themselves before the
	// storm, so the gate's token bucket protects the attack phase's
	// first contacts rather than deciding them.
	sendLegit(0)
	sendChurn()
	r.drain(bob)
	// At the challenge level the warm-up datagrams were refused and
	// answered with challenges; wait for both senders' jars to absorb
	// their cookies so the attack phase measures echo-wrapped traffic,
	// not the asynchronous jar fill.
	if sc.Prefilter.Enable && bob.Snapshot().Prefilter.Challenged > 0 {
		poll(2*time.Second, func() bool {
			return alice.Snapshot().Prefilter.CookiesLearned > 0 && mallory.Snapshot().Prefilter.CookiesLearned > 0
		})
	}

	// Attack phase: legitimate transfer interleaved with both floods.
	churnPer := sc.ChurnDatagrams / sc.Datagrams
	spoofPer := sc.SpoofDatagrams / sc.Datagrams
	for seq := 1; seq < sc.Datagrams; seq++ {
		sendLegit(uint32(seq))
		for i := 0; i < churnPer; i++ {
			sendChurn()
		}
		for i := 0; i < spoofPer; i++ {
			sendSpoof(seq*spoofPer + i)
		}
	}
	for int(report.ChurnAttempts) < sc.ChurnDatagrams+1 {
		sendChurn()
	}
	for int(report.SpoofOffered) < sc.SpoofDatagrams {
		sendSpoof(int(report.SpoofOffered))
	}
	r.drain(bob)

	// Goodput is measured here — what survived DURING the attack.
	report.LegitAccepted = uint64(sc.Datagrams - len(r.missing()))
	if report.LegitOffered > 0 {
		report.Goodput = float64(report.LegitAccepted) / float64(report.LegitOffered)
	}

	// Recovery: the attack stops; retransmission rounds must complete
	// the transfer on soft state alone. Each round first advances the
	// clock one freshness window: replay signatures pinned by the sound
	// hard-limit policy expire, the sweep returns their budget, and the
	// round's retransmissions have room to record themselves. (A
	// saturated budget smaller than the transfer's replay working set
	// therefore completes across several windows, a window per round.)
	report.Rounds = r.recover(bob, sc.MaxRounds, sendLegit, func() { clk.Advance(freshness + time.Minute) })

	mm, bm := mallory.Snapshot(), bob.Snapshot()
	report.Accepted = bm.Received
	report.SenderDrops = mm.Drops
	report.ReceiverDrops = bm.Drops
	report.Port = r.net.PortStats(receiver)
	report.Budget = bm.Budget
	report.Admission = bm.Admission
	report.Replay = bm.Replay
	report.SenderBudget = mm.Budget
	report.Keys = bm.Keying
	report.LegitPeers = 2 // alice and mallory
	report.Prefilter = bm.Prefilter
	report.PreParseShedFloor = sc.PreParseShedFloor
	if report.SpoofOffered > 0 {
		shed := float64(report.ReceiverDrops[core.DropPrefilter] + report.ReceiverDrops[core.DropChallenged])
		report.PreParseShedRatio = shed / float64(report.SpoofOffered)
		if report.PreParseShedRatio > 1 {
			report.PreParseShedRatio = 1
		}
	}

	r.stop(alice, mallory, bob)

	r.verdict(report.Rounds, report.Accepted, sumDrops(report.ReceiverDrops), report.Port)
	report.reconcile(&sc)
	return report, nil
}

// reconcile checks the overload accounting equations and appends a line
// per violation.
func (r *FloodReport) reconcile(sc *FloodScenario) {
	if r.Port.Injected != r.SpoofOffered {
		r.fail("injection accounting: port saw %d, flooder placed %d", r.Port.Injected, r.SpoofOffered)
	}
	// The link is clean: every enqueued copy is first-delivery, intact.
	if r.Port.DeliveredDup != 0 || r.Port.DeliveredCorrupt != 0 {
		r.fail("clean link delivered dup=%d corrupt=%d", r.Port.DeliveredDup, r.Port.DeliveredCorrupt)
	}
	// Every spoofed datagram lands in exactly one of the keying-path
	// buckets: shed by the gate or the budget before any expensive work,
	// or unmasked by the MAC after it. The only other traffic that can
	// reach those buckets — or the replay-budget bucket, which only
	// verified (hence authenticated) datagrams ever hit — is an
	// authenticated datagram shed under overload: a re-admission after
	// an admitted spoof evicted its sender from the master-key cache, or
	// a verified datagram refused because the budget left no room for
	// its replay signature. On a clean link that count is exactly the
	// clean deliveries that were not accepted, so the books still
	// balance to the datagram.
	// The pre-filter reasons join the bucket set: a spoof may now be
	// refused before the parse (sketch, challenge) instead of reaching
	// the keying path, and a challenged legitimate first contact is a
	// clean shed like any other overload refusal.
	spoofDrops := r.ReceiverDrops[core.DropKeyingOverload] +
		r.ReceiverDrops[core.DropPeerQuota] +
		r.ReceiverDrops[core.DropStateBudget] +
		r.ReceiverDrops[core.DropReplayBudget] +
		r.ReceiverDrops[core.DropBadMAC] +
		r.ReceiverDrops[core.DropKeying] +
		r.ReceiverDrops[core.DropPrefilter] +
		r.ReceiverDrops[core.DropBadCookie] +
		r.ReceiverDrops[core.DropChallenged]
	cleanShed := r.Port.DeliveredClean - r.Accepted
	if spoofDrops != r.SpoofOffered+cleanShed {
		r.fail("spoof accounting: keying-path drops %d != spoofs(%d)+overload sheds(%d)",
			spoofDrops, r.SpoofOffered, cleanShed)
	}
	// The pre-parse work ledger: with the pre-filter on, every copy
	// enqueued at the receiver either reached the header parse or was
	// refused before it, with nothing double-counted.
	if sc.Prefilter.Enable {
		preParse := r.ReceiverDrops[core.DropPrefilter] +
			r.ReceiverDrops[core.DropBadCookie] +
			r.ReceiverDrops[core.DropChallenged]
		if got, enq := r.Prefilter.HeaderParses+preParse, enqueued(r.Port); got != enq {
			r.fail("work counter: header parses(%d)+pre-parse sheds(%d)=%d != enqueued(%d)",
				r.Prefilter.HeaderParses, preParse, got, enq)
		}
	}
	// The churn flooder's books: every attempt was sealed onto the wire
	// or shed by its own endpoint with a counted reason.
	sdrops := sumDrops(r.SenderDrops)
	if got, want := r.ChurnOffered+sdrops, r.ChurnAttempts; got != want {
		r.fail("churn accounting: offered(%d)+sender drops(%d) != attempts(%d)", r.ChurnOffered, sdrops, want)
	}

	// The hard budget is a ceiling, not a suggestion: peak occupancy
	// never exceeds it, on either side.
	if r.Budget.HardLimit > 0 {
		if r.Budget.Peak > r.Budget.HardLimit {
			r.fail("receiver budget peak %d exceeds hard limit %d", r.Budget.Peak, r.Budget.HardLimit)
		}
		if sc.ChurnDatagrams > 0 && r.Budget.Denials == 0 {
			r.fail("churn flood never drove the receiver budget to a denial")
		}
	}
	if r.SenderBudget.HardLimit > 0 && r.SenderBudget.Peak > r.SenderBudget.HardLimit {
		r.fail("flooder budget peak %d exceeds hard limit %d", r.SenderBudget.Peak, r.SenderBudget.HardLimit)
	}

	// The exponentiation bound: Diffie-Hellman work grows with the peers
	// the gate admitted (plus the genuine correspondents), never with
	// the packets the flood offered.
	if bound := r.LegitPeers + r.Admission.Admitted; r.Keys.MasterKeyComputes > bound {
		r.fail("exponentiations %d exceed admitted peers bound %d", r.Keys.MasterKeyComputes, bound)
	}
	if sc.Admission.UpcallRate > 0 && sc.SpoofDatagrams > 0 {
		// The storm must have been shed by SOMETHING cheap: the gate, or
		// — when the pre-filter sits in front of it — the sketch and the
		// cookie challenge, which legitimately starve the gate of spoofs.
		if r.Admission.ShedOverload+r.Admission.ShedQuota == 0 &&
			r.ReceiverDrops[core.DropPrefilter]+r.ReceiverDrops[core.DropChallenged] == 0 {
			r.fail("spoof flood at 10x never tripped the admission gate or the pre-filter")
		}
	}

	// The legitimate transfer survived the storm.
	if r.Goodput < sc.GoodputFloor {
		r.fail("legit goodput %.2f below floor %.2f", r.Goodput, sc.GoodputFloor)
	}

	// Pre-filter expectations.
	if sc.PreParseShedFloor > 0 && r.PreParseShedRatio < sc.PreParseShedFloor {
		r.fail("pre-parse shed ratio %.3f below floor %.3f", r.PreParseShedRatio, sc.PreParseShedFloor)
	}
	if sc.ExpectEscalation && r.Prefilter.Escalations == 0 {
		r.fail("adaptive ladder never escalated under flood pressure")
	}
	if sc.ExpectNoSpoofKeying {
		if r.Keys.MasterKeyComputes != r.LegitPeers {
			r.fail("spoofed flood bought keying work: %d DH computes != %d legitimate peers",
				r.Keys.MasterKeyComputes, r.LegitPeers)
		}
		if r.Admission.Admitted > r.LegitPeers {
			r.fail("spoofed source passed admission: %d admitted > %d legitimate peers",
				r.Admission.Admitted, r.LegitPeers)
		}
	}
}

// Summary renders the report as a compact multi-line string for the
// fbschaos command.
func (r *FloodReport) Summary() string {
	s := fmt.Sprintf("flood %s: legit=%d/%d (goodput %.2f) churn=%d/%d spoof=%d rounds=%d complete=%v\n",
		r.Scenario, r.LegitAccepted, r.LegitOffered, r.Goodput,
		r.ChurnOffered, r.ChurnAttempts, r.SpoofOffered, r.Rounds, r.Complete)
	s += fmt.Sprintf("  budget: used=%d peak=%d/%d pressure=%d denials=%d (flooder peak=%d/%d)\n",
		r.Budget.Used, r.Budget.Peak, r.Budget.HardLimit, r.Budget.PressureEvents, r.Budget.Denials,
		r.SenderBudget.Peak, r.SenderBudget.HardLimit)
	s += fmt.Sprintf("  admission: admitted=%d shed_overload=%d shed_quota=%d prefixes=%d\n",
		r.Admission.Admitted, r.Admission.ShedOverload, r.Admission.ShedQuota, r.Admission.ActivePrefixes)
	s += fmt.Sprintf("  replay: entries=%d peers=%d refusals=%d; dh computes=%d (admitted+legit bound %d)\n",
		r.Replay.Entries, r.Replay.Peers, r.Replay.Refusals, r.Keys.MasterKeyComputes, r.LegitPeers+r.Admission.Admitted)
	if pf := r.Prefilter; pf.HeaderParses > 0 || pf.SketchSheds > 0 || pf.Challenged > 0 {
		s += fmt.Sprintf("  prefilter: level=%d sheds=%d challenged=%d(+%d suppressed) echo ok=%d bad=%d parses=%d preparse_ratio=%.3f\n",
			pf.Level, pf.SketchSheds, pf.Challenged, pf.ChallengeSuppressed,
			pf.EchoAccepted, pf.EchoRejected, pf.HeaderParses, r.PreParseShedRatio)
	}
	return s + dropLines(r.ReceiverDrops) + r.verdictLines()
}
