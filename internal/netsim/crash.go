package netsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"fbs/internal/core"
	"fbs/internal/cryptolib"
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
	Scenario string
	Unique   int
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
	Port1     PortStats
	Accepted2 uint64
	Drops2    uint64
	Port2     PortStats
	// Recovery evidence from the restarted incarnation: the keying plane
	// rebuilt itself (upcalls, exponentiations, certificate fetches)
	// without a single failure.
	Keys     core.KeyServiceStats
	Upcalls  uint64
	Rounds   int
	Complete bool
	// Violations lists every reconciliation equation that failed; empty
	// means the crash cost latency and recomputation, nothing else.
	Violations []string
}

// RunCrashRestart executes one crash-restart scenario and reconciles
// both incarnations' books.
func RunCrashRestart(sc CrashScenario) (*CrashReport, error) {
	if sc.Datagrams <= 0 {
		sc.Datagrams = 64
	}
	if sc.CrashAfter <= 0 || sc.CrashAfter >= sc.Datagrams {
		sc.CrashAfter = sc.Datagrams / 2
	}
	if sc.PayloadBytes < 8 {
		sc.PayloadBytes = 64
	}
	if sc.MaxRounds <= 0 {
		sc.MaxRounds = 10
	}
	const (
		sender   principal.Address = "crash-alice"
		receiver principal.Address = "crash-bob"
	)

	w, err := newWorld("crash-root", sender, receiver)
	if err != nil {
		return nil, err
	}

	net := NewChaosNetwork(LinkModel{Seed: sc.Seed}) // clean link: the crash is the fault

	newReceiver := func() (*core.Endpoint, error) {
		tr, err := net.Attach(receiver, 0)
		if err != nil {
			return nil, err
		}
		return core.NewEndpoint(core.Config{
			Identity:          w.ids[receiver],
			Transport:         tr,
			Directory:         w.dir,
			Verifier:          w.ver,
			MAC:               cryptolib.MACPrefixMD5,
			AcceptMACs:        []cryptolib.MACID{cryptolib.MACPrefixMD5},
			EnableReplayCache: true,
			StateBudget:       core.NewBudget(sc.HighWater, sc.HardBudget),
			Admission:         sc.Admission,
		})
	}
	atr, err := net.Attach(sender, 0)
	if err != nil {
		return nil, err
	}
	alice, err := core.NewEndpoint(core.Config{
		Identity:  w.ids[sender],
		Transport: atr,
		Directory: w.dir,
		Verifier:  w.ver,
		MAC:       cryptolib.MACPrefixMD5,
	})
	if err != nil {
		return nil, err
	}
	defer alice.Close()

	rs := &receiverState{got: make(map[uint32]bool), want: sc.Datagrams}
	receiveLoop := func(e *core.Endpoint, wg *sync.WaitGroup) {
		defer wg.Done()
		for {
			dg, err := e.Receive()
			if errors.Is(err, transport.ErrClosed) {
				return
			}
			if err != nil || len(dg.Payload) < 4 {
				continue
			}
			rs.mark(binary.BigEndian.Uint32(dg.Payload))
		}
	}

	payload := func(seq uint32) []byte {
		p := make([]byte, sc.PayloadBytes)
		binary.BigEndian.PutUint32(p, seq)
		for i := 4; i < len(p); i++ {
			p[i] = byte(seq + uint32(i))
		}
		return p
	}
	drain := func(e *core.Endpoint) bool {
		deadline := time.Now().Add(10 * time.Second)
		for {
			net.Quiesce(time.Second)
			ps := net.PortStats(receiver)
			m := e.Snapshot()
			enq := ps.DeliveredClean + ps.DeliveredDup + ps.DeliveredCorrupt + ps.Injected
			if m.Received+sumDrops(m.Drops) >= enq && net.Pending() == 0 {
				return true
			}
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(time.Millisecond)
		}
	}

	report := &CrashReport{Scenario: sc.Name, Unique: sc.Datagrams}

	// Epoch 1: the first incarnation receives the head of the transfer
	// and is fully drained — its books must balance before the plug is
	// pulled.
	bob1, err := newReceiver()
	if err != nil {
		return nil, err
	}
	var wg1 sync.WaitGroup
	wg1.Add(1)
	go receiveLoop(bob1, &wg1)
	for seq := 0; seq < sc.CrashAfter; seq++ {
		alice.SendTo(receiver, payload(uint32(seq)), sc.Secret)
	}
	drained := drain(bob1)
	m1 := bob1.Snapshot()
	report.Accepted1 = m1.Received
	report.Drops1 = sumDrops(m1.Drops)
	report.Port1 = net.PortStats(receiver)
	report.CrashAfter = uint64(sc.CrashAfter)

	// The crash: the endpoint dies and its address falls off the
	// network. No state is saved — everything the incarnation knew
	// (flow keys, peer certificates, replay window, FAM) dies with it.
	bob1.Close()
	wg1.Wait()
	net.Detach(receiver)

	// The sender, unaware, keeps transmitting into the void.
	for seq := sc.CrashAfter; seq < sc.Datagrams; seq++ {
		if alice.SendTo(receiver, payload(uint32(seq)), sc.Secret) == nil {
			report.DownSends++
		}
	}
	net.Quiesce(time.Second)
	report.NoRoute = net.NoRoute()

	// Epoch 2: restart with the same identity and cold caches. The port
	// reattaches with zeroed counters; the endpoint rebuilds every piece
	// of soft state through normal operation.
	bob2, err := newReceiver()
	if err != nil {
		return nil, err
	}
	var wg2 sync.WaitGroup
	wg2.Add(1)
	go receiveLoop(bob2, &wg2)

	// Recovery: retransmission rounds complete the transfer.
	for report.Rounds < sc.MaxRounds {
		missing := rs.missing()
		if len(missing) == 0 {
			break
		}
		report.Rounds++
		for _, seq := range missing {
			alice.SendTo(receiver, payload(seq), sc.Secret)
		}
		drained = drain(bob2) && drained
	}
	report.Complete = len(rs.missing()) == 0

	m2 := bob2.Snapshot()
	report.Accepted2 = m2.Received
	report.Drops2 = sumDrops(m2.Drops)
	report.Port2 = net.PortStats(receiver)
	report.Keys = m2.Keying
	report.Upcalls = m2.MKDUpcalls

	bob2.Close()
	wg2.Wait()

	if !drained {
		report.Violations = append(report.Violations, "network failed to drain before the books were read")
	}
	report.reconcile(sc)
	return report, nil
}

// reconcile checks both incarnations' accounting equations.
func (r *CrashReport) reconcile(sc CrashScenario) {
	fail := func(format string, args ...any) {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
	if !r.Complete {
		fail("transfer incomplete after %d retransmission rounds", r.Rounds)
	}
	if r.Rounds == 0 {
		fail("crash cost no retransmission round; the harness did not crash mid-transfer")
	}

	// Epoch 1: everything sent before the crash was accepted; the books
	// balanced before the plug was pulled.
	enq1 := r.Port1.DeliveredClean + r.Port1.DeliveredDup + r.Port1.DeliveredCorrupt + r.Port1.Injected
	if got := r.Accepted1 + r.Drops1; got != enq1 {
		fail("epoch 1 conservation: accepted(%d)+drops(%d) != enqueued(%d)", r.Accepted1, r.Drops1, enq1)
	}
	if r.Accepted1 != r.CrashAfter {
		fail("epoch 1 accepted %d of %d pre-crash datagrams", r.Accepted1, r.CrashAfter)
	}

	// The void: every datagram sent while the receiver was down is
	// accounted as unroutable — not lost silently, not delivered late.
	if r.NoRoute != r.DownSends {
		fail("no-route count %d != sends into the void %d", r.NoRoute, r.DownSends)
	}

	// Epoch 2: the restarted incarnation's books balance, and recovery
	// shows up ONLY in upcall/miss counters. A single drop or keying
	// failure means the restart corrupted correctness, not just caches.
	enq2 := r.Port2.DeliveredClean + r.Port2.DeliveredDup + r.Port2.DeliveredCorrupt + r.Port2.Injected
	if got := r.Accepted2 + r.Drops2; got != enq2 {
		fail("epoch 2 conservation: accepted(%d)+drops(%d) != enqueued(%d)", r.Accepted2, r.Drops2, enq2)
	}
	if r.Drops2 != 0 {
		fail("restarted receiver dropped %d datagrams; recovery must be error-free", r.Drops2)
	}
	if r.Keys.Failures != 0 {
		fail("restarted keying plane recorded %d failures", r.Keys.Failures)
	}
	if r.Upcalls == 0 || r.Keys.MasterKeyComputes == 0 || r.Keys.CertFetches == 0 {
		fail("restarted receiver shows no rekeying work (upcalls=%d computes=%d fetches=%d); caches were not cold",
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
	if len(r.Violations) == 0 {
		s += "  reconciliation: exact\n"
	}
	for _, v := range r.Violations {
		s += "  VIOLATION: " + v + "\n"
	}
	return s
}
