package netsim

import (
	"fmt"
	"time"

	"fbs/internal/core"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// This file is the crash-restart recovery harness. The FBS soft-state
// argument (paper section 4) is that losing an endpoint's caches costs
// recomputation, never correctness: a receiver that crashes mid-transfer
// and restarts with cold caches — empty FAM, PVC, MKC, flow-key caches,
// replay window — must complete the transfer with only latency loss,
// and the recovery must show up purely in upcall and miss counters,
// never in error counters.

// CrashScenario parameterises one crash-restart run.
type CrashScenario struct {
	// Name labels the scenario in reports.
	Name string
	// Seed feeds the (clean) link model.
	Seed uint64
	// Datagrams is the transfer size; the receiver crashes after
	// CrashAfter of them have been delivered and drained. PayloadBytes
	// sizes each datagram (minimum 8).
	Datagrams    int
	CrashAfter   int
	PayloadBytes int
	// Secret encrypts the payloads.
	Secret bool
	// HardBudget, HighWater and Admission give the restarted receiver
	// the same overload controls as a production endpoint: recovery must
	// work under them, not around them.
	HardBudget int64
	HighWater  int64
	Admission  core.AdmissionConfig
	// MaxRounds bounds post-restart retransmission rounds (default 10).
	MaxRounds int
}

// CrashReport is the outcome of a crash-restart run plus its
// reconciliation.
type CrashReport struct {
	ReportHeader
	Unique int
	// CrashAfter is how many datagrams the first incarnation accepted
	// before the crash; DownSends how many were transmitted into the
	// void while the receiver was gone; NoRoute what the network counted
	// for them.
	CrashAfter uint64
	DownSends  uint64
	NoRoute    uint64
	// Epoch 1 is the first incarnation's books (drained before the
	// crash); epoch 2 the restarted incarnation's.
	Accepted1 uint64
	Drops1    uint64
	Port1     transport.PortStats
	Accepted2 uint64
	Drops2    uint64
	Port2     transport.PortStats
	// Recovery evidence from the restarted incarnation: the keying plane
	// rebuilt itself (upcalls, exponentiations, certificate fetches)
	// without a single failure.
	Keys    core.KeyServiceStats
	Upcalls uint64
	Rounds  int
}

// RunCrashRestart executes one crash-restart scenario and reconciles
// both incarnations' books.
func RunCrashRestart(sc CrashScenario) (*CrashReport, error) {
	transferDefaults(&sc.Datagrams, &sc.PayloadBytes, &sc.MaxRounds, 64)
	if sc.CrashAfter <= 0 || sc.CrashAfter >= sc.Datagrams {
		sc.CrashAfter = sc.Datagrams / 2
	}
	const (
		sender   principal.Address = "crash-alice"
		receiver principal.Address = "crash-bob"
	)
	report := &CrashReport{ReportHeader: ReportHeader{Scenario: sc.Name}, Unique: sc.Datagrams}
	// A clean link: the crash is the fault.
	r, err := newRig(&report.ReportHeader, "crash-root", transport.Impairments{Seed: sc.Seed},
		sc.PayloadBytes, sc.Datagrams, receiver, sender)
	if err != nil {
		return nil, err
	}
	newReceiver := func() (*core.Endpoint, error) {
		bob, err := r.attach(receiver, core.Config{
			EnableReplayCache: true,
			StateBudget:       core.NewBudget(sc.HighWater, sc.HardBudget),
			Admission:         sc.Admission,
		})
		if err == nil {
			r.receive(bob, false)
		}
		return bob, err
	}
	alice, err := r.attach(sender, core.Config{})
	if err != nil {
		return nil, err
	}
	defer alice.Close()
	send := func(seq uint32) {
		alice.SendTo(receiver, r.payload(seq), sc.Secret)
	}

	// Epoch 1: the first incarnation receives the head of the transfer
	// and is fully drained — its books must balance before the plug is
	// pulled.
	bob1, err := newReceiver()
	if err != nil {
		return nil, err
	}
	for seq := 0; seq < sc.CrashAfter; seq++ {
		send(uint32(seq))
	}
	r.drain(bob1)
	m1 := bob1.Snapshot()
	report.Accepted1 = m1.Received
	report.Drops1 = sumDrops(m1.Drops)
	report.Port1 = r.net.PortStats(receiver)
	report.CrashAfter = uint64(sc.CrashAfter)

	// The crash: the endpoint dies, and closing its port takes its
	// address off the network. No state is saved — everything the
	// incarnation knew (flow keys, peer certificates, replay window,
	// FAM) dies with it.
	r.stop(bob1)

	// The sender, unaware, keeps transmitting into the void.
	for seq := sc.CrashAfter; seq < sc.Datagrams; seq++ {
		if alice.SendTo(receiver, r.payload(uint32(seq)), sc.Secret) == nil {
			report.DownSends++
		}
	}
	r.net.Quiesce(time.Second)
	report.NoRoute = r.net.NoRoute()

	// Epoch 2: restart with the same identity and cold caches. The port
	// reattaches with zeroed counters; the endpoint rebuilds every piece
	// of soft state through normal operation.
	bob2, err := newReceiver()
	if err != nil {
		return nil, err
	}

	// Recovery: retransmission rounds complete the transfer.
	report.Rounds = r.recover(bob2, sc.MaxRounds, send, nil)

	m2 := bob2.Snapshot()
	report.Accepted2 = m2.Received
	report.Drops2 = sumDrops(m2.Drops)
	report.Port2 = r.net.PortStats(receiver)
	report.Keys = m2.Keying
	report.Upcalls = m2.MKDUpcalls
	r.stop(bob2)

	r.verdict(report.Rounds, report.Accepted2, report.Drops2, report.Port2)
	report.reconcile()
	return report, nil
}

// reconcile checks the equations only a crash asserts, over both
// incarnations' books (the rig's verdict has already balanced epoch 2).
func (r *CrashReport) reconcile() {
	if r.Rounds == 0 {
		r.fail("crash cost no retransmission round; the harness did not crash mid-transfer")
	}

	// Epoch 1: everything sent before the crash was accepted; the books
	// balanced before the plug was pulled.
	r.conserve("epoch 1 ", r.Accepted1, r.Drops1, r.Port1)
	if r.Accepted1 != r.CrashAfter {
		r.fail("epoch 1 accepted %d of %d pre-crash datagrams", r.Accepted1, r.CrashAfter)
	}

	// The void: every datagram sent while the receiver was down is
	// accounted as unroutable — not lost silently, not delivered late.
	if r.NoRoute != r.DownSends {
		r.fail("no-route count %d != sends into the void %d", r.NoRoute, r.DownSends)
	}

	// Epoch 2: recovery shows up ONLY in upcall/miss counters. A single
	// drop or keying failure means the restart corrupted correctness,
	// not just caches.
	if r.Drops2 != 0 {
		r.fail("restarted receiver dropped %d datagrams; recovery must be error-free", r.Drops2)
	}
	if r.Keys.Failures != 0 {
		r.fail("restarted keying plane recorded %d failures", r.Keys.Failures)
	}
	if r.Upcalls == 0 || r.Keys.MasterKeyComputes == 0 || r.Keys.CertFetches == 0 {
		r.fail("restarted receiver shows no rekeying work (upcalls=%d computes=%d fetches=%d); caches were not cold",
			r.Upcalls, r.Keys.MasterKeyComputes, r.Keys.CertFetches)
	}
}

// Summary renders the report as a compact multi-line string for the
// fbschaos command.
func (r *CrashReport) Summary() string {
	s := fmt.Sprintf("crash %s: unique=%d pre-crash=%d void=%d noroute=%d rounds=%d complete=%v\n",
		r.Scenario, r.Unique, r.Accepted1, r.DownSends, r.NoRoute, r.Rounds, r.Complete)
	s += fmt.Sprintf("  epoch1: accepted=%d drops=%d; epoch2: accepted=%d drops=%d\n",
		r.Accepted1, r.Drops1, r.Accepted2, r.Drops2)
	s += fmt.Sprintf("  recovery: upcalls=%d computes=%d fetches=%d failures=%d\n",
		r.Upcalls, r.Keys.MasterKeyComputes, r.Keys.CertFetches, r.Keys.Failures)
	return s + r.verdictLines()
}
