package netsim

import (
	"errors"
	"fmt"
	"sync/atomic"

	"fbs/internal/cert"
	"fbs/internal/core"
	obstrace "fbs/internal/obs/trace"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// This file is the chaos soak harness: a two-endpoint world (CA,
// directory, FBS endpoints) over an impaired network, driven to completion
// through link faults, a keying-plane outage, and adversary injections,
// with exact reconciliation of every induced fault against the drop
// counters the endpoints report. The chaos test matrix and the fbschaos
// command both run scenarios through RunChaos.

// FlakyDirectory wraps a certificate directory with a switchable
// outage, modelling the reachable-but-failing directory the keying
// plane must recover from. It counts lookups so the harness can assert
// each refused datagram cost at most one failed call.
type FlakyDirectory struct {
	Inner cert.Directory

	down  atomic.Bool
	calls atomic.Uint64
	fails atomic.Uint64
}

// ErrDirectoryDown is what a downed FlakyDirectory returns.
var ErrDirectoryDown = errors.New("netsim: certificate directory unavailable")

// Lookup implements cert.Directory.
func (d *FlakyDirectory) Lookup(addr principal.Address) (*cert.Certificate, error) {
	d.calls.Add(1)
	if d.down.Load() {
		d.fails.Add(1)
		return nil, ErrDirectoryDown
	}
	return d.Inner.Lookup(addr)
}

// SetDown switches the outage on or off.
func (d *FlakyDirectory) SetDown(down bool) { d.down.Store(down) }

// Calls returns total lookups; Fails the subset refused while down.
func (d *FlakyDirectory) Calls() uint64 { return d.calls.Load() }

// Fails returns how many lookups were refused while down.
func (d *FlakyDirectory) Fails() uint64 { return d.fails.Load() }

// ChaosScenario parameterises one soak run.
type ChaosScenario struct {
	// Name labels the scenario in reports.
	Name string
	// Seed drives every random choice (link faults, adversary); the
	// same scenario and seed reproduce the same run byte for byte on
	// the fault side.
	Seed uint64
	// Link is the fault model of every direction; its Seed is the
	// scenario's.
	Link transport.Impairments
	// Datagrams is how many unique datagrams the sender must get
	// across; PayloadBytes sizes each (minimum 8: a sequence number
	// plus filler).
	Datagrams    int
	PayloadBytes int
	// Secret encrypts the payloads (required by the no-cipher
	// injection).
	Secret bool
	// Suite selects the cipher suite both endpoints run
	// (core.CipherNone selects core's default, DES). The adversary
	// matrix and the reconciliation equations hold for every
	// registered suite.
	Suite core.CipherID
	// Inject asks the adversary for this many datagrams of each kind.
	Inject map[InjectKind]int
	// ExactBuckets asserts per-DropReason equality between injections
	// and drops. Valid only when the link itself is clean of corruption
	// (corrupted copies land in seed-dependent buckets).
	ExactBuckets bool
	// KeyOutage takes the directory down for OutageDatagrams sends with
	// the receiver's key caches flushed, exercising DropKeying accounting
	// and recovery on soft state alone. The keying drop count
	// is asserted exactly, so outage scenarios must use a link that
	// neither loses, duplicates, nor corrupts (delay/jitter is fine) —
	// otherwise an outage datagram can vanish or be double-dropped.
	KeyOutage       bool
	OutageDatagrams int
	// MaxRounds bounds post-heal retransmission rounds (default 10).
	MaxRounds int
	// Trace samples every datagram through a trace collector shared by
	// both endpoints and the network's link-fault model; the assembled
	// traces land in Report.TraceReport. Off by default (tracing every
	// datagram is for debugging runs, not soak throughput).
	Trace bool
	// Batch drives the receiver through the batched data plane
	// (Endpoint.ReceiveBatch → OpenBatch) instead of one Receive per
	// datagram. Every reconciliation equation must hold unchanged: the
	// batch engine accounts per datagram, so the ledger cannot tell the
	// two modes apart.
	Batch bool
}

// ChaosReport is the outcome of a soak run plus its reconciliation.
type ChaosReport struct {
	ReportHeader
	// Unique is the number of distinct datagrams the transfer needed;
	// Sent counts transmissions including retransmissions.
	Unique int
	Sent   uint64
	// Accepted is the receiver's count of datagrams that passed every
	// check.
	Accepted uint64
	// SenderDrops and ReceiverDrops are the endpoints' per-reason
	// counters.
	SenderDrops   [core.NumDropReasons]uint64
	ReceiverDrops [core.NumDropReasons]uint64
	// Port classifies every copy enqueued at the receiver.
	Port transport.PortStats
	// Links snapshots each direction's fault stats.
	Links map[string]transport.LinkStats
	// Injected counts adversary datagrams actually placed.
	Injected [NumInjectKinds]uint64
	// Keying plane counters from the receiver.
	Keys       core.KeyServiceStats
	MKDUpcalls uint64
	// DirectoryCalls and DirectoryFails count certificate lookups (the
	// one-call-per-refusal evidence).
	DirectoryCalls uint64
	DirectoryFails uint64
	// Rounds is how many retransmission rounds completion took.
	Rounds int
	// TraceReport holds the assembled per-datagram traces when the
	// scenario ran with Trace set (nil otherwise).
	TraceReport *obstrace.Report
}

// RunChaos executes one scenario to completion and reconciles the
// books. The returned report's Violations field is the verdict: an
// empty slice means every induced fault was accounted for exactly and
// the transfer completed.
func RunChaos(sc ChaosScenario) (*ChaosReport, error) {
	transferDefaults(&sc.Datagrams, &sc.PayloadBytes, &sc.MaxRounds, 256)
	const (
		sender   principal.Address = "chaos-alice"
		receiver principal.Address = "chaos-bob"
	)
	unique := sc.Datagrams
	if sc.KeyOutage {
		if sc.OutageDatagrams <= 0 {
			sc.OutageDatagrams = 16
		}
		unique += sc.OutageDatagrams
	}
	report := &ChaosReport{ReportHeader: ReportHeader{Scenario: sc.Name}, Unique: unique}
	link := sc.Link
	link.Seed = sc.Seed
	r, err := newRig(&report.ReportHeader, "chaos-root", link, sc.PayloadBytes, unique, receiver, sender)
	if err != nil {
		return nil, err
	}
	// The directory is flaky so outages can be injected.
	dir := &FlakyDirectory{Inner: r.dir}

	cfg := core.Config{
		Directory: dir,
		Cipher:    sc.Suite,
		// Keyed-MD5 (or the AEAD's intrinsic MAC) with a replay
		// cache: every exact duplicate must surface as DropReplay,
		// which is what makes duplicate accounting exact.
		EnableReplayCache: true,
	}
	// Tracing samples every datagram: the collector is shared by both
	// endpoints and the adversary's view of the link, so one trace
	// covers seal → link → open.
	var col *obstrace.Collector
	if sc.Trace {
		col = obstrace.New(obstrace.Config{SampleEvery: 1, RingSize: 1 << 15})
		cfg.Tracer = col
	}
	adv := NewAdversary(r.net, sc.Seed, cfg.Tracer)
	alice, err := r.attach(sender, cfg)
	if err != nil {
		return nil, err
	}
	defer alice.Close()
	bob, err := r.attach(receiver, cfg)
	if err != nil {
		return nil, err
	}
	defer bob.Close()
	r.receive(bob, sc.Batch)

	send := func(seq uint32) {
		// Seal failures (keying) are counted by the sender endpoint;
		// link loss is silent by design.
		if alice.SendTo(receiver, r.payload(seq), sc.Secret) == nil {
			report.Sent++
		}
	}

	// Phase 1: the transfer, through the impaired link.
	for seq := 0; seq < sc.Datagrams; seq++ {
		send(uint32(seq))
	}
	r.drain(bob)

	// Phase 2: keying outage. The directory goes down, the receiver's
	// key caches are flushed, and fresh datagrams arrive: every one must
	// be dropped DropKeying after one failed directory call.
	if sc.KeyOutage {
		dir.SetDown(true)
		bob.FlushKeys()
		for seq := sc.Datagrams; seq < unique; seq++ {
			send(uint32(seq))
		}
		r.drain(bob)
		dir.SetDown(false)
	}

	// Phase 3: the adversary mutates captured traffic mid-stream.
	// Kinds are injected in declaration order so the adversary's RNG
	// draws — and therefore the whole run — stay reproducible.
	for kind := 0; kind < NumInjectKinds; kind++ {
		for i := 0; i < sc.Inject[InjectKind(kind)]; i++ {
			adv.Inject(InjectKind(kind))
		}
	}
	r.drain(bob)

	// Phase 4: the network heals; retransmission rounds must complete
	// the transfer on soft state alone.
	r.net.Heal()
	report.Rounds = r.recover(bob, sc.MaxRounds, send, nil)

	// Collect the books before closing (Close drops the transports).
	am, bm := alice.Snapshot(), bob.Snapshot()
	report.Accepted = bm.Received
	report.SenderDrops = am.Drops
	report.ReceiverDrops = bm.Drops
	report.Port = r.net.PortStats(receiver)
	report.Links = r.net.Links()
	report.Injected = adv.Injected()
	report.Keys = bm.Keying
	report.MKDUpcalls = bm.MKDUpcalls
	report.DirectoryCalls = dir.Calls()
	report.DirectoryFails = dir.Fails()
	if sc.Trace {
		tr := obstrace.NewReport(col)
		report.TraceReport = &tr
	}
	r.stop(bob)

	r.verdict(report.Rounds, report.Accepted, sumDrops(report.ReceiverDrops), report.Port)
	report.reconcile(&sc)
	return report, nil
}

// reconcile checks the accounting equations only a chaos run asserts
// and appends a line per violation.
func (r *ChaosReport) reconcile(sc *ChaosScenario) {
	var injected uint64
	for _, n := range r.Injected {
		injected += n
	}
	if r.Port.Injected != injected {
		r.fail("injection accounting: port saw %d, adversary placed %d", r.Port.Injected, injected)
	}

	// With the replay cache on and a corruption-free link, buckets are
	// exact: one accepted copy per clean datagram, every extra clean
	// copy a replay, every injection in its designated bucket.
	if sc.ExactBuckets {
		if r.Port.DeliveredCorrupt != 0 {
			r.fail("ExactBuckets scenario delivered %d corrupt copies; link must be corruption-free", r.Port.DeliveredCorrupt)
		}
		keying := r.ReceiverDrops[core.DropKeying]
		if got, want := r.Accepted, r.Port.DeliveredClean-keying; got != want {
			r.fail("accepted %d, want clean(%d)-keying(%d)=%d", got, r.Port.DeliveredClean, keying, want)
		}
		wantByReason := [core.NumDropReasons]uint64{}
		wantByReason[core.DropReplay] = r.Port.DeliveredDup
		for kind := 0; kind < NumInjectKinds; kind++ {
			wantByReason[InjectKind(kind).DropReason()] += r.Injected[kind]
		}
		for reason := core.DropReason(1); int(reason) < core.NumDropReasons; reason++ {
			if reason == core.DropKeying {
				continue // asserted separately below for outage scenarios
			}
			if got, want := r.ReceiverDrops[reason], wantByReason[reason]; got != want {
				r.fail("drops[%s]=%d, want %d", reason, got, want)
			}
		}
	}

	if sc.KeyOutage {
		outage := uint64(sc.OutageDatagrams)
		if got := r.ReceiverDrops[core.DropKeying]; got != outage {
			r.fail("drops[keying]=%d, want one per outage datagram (%d)", got, outage)
		}
		// No retry loop: a refused datagram costs at most one failed
		// directory call.
		if r.DirectoryFails > outage {
			r.fail("%d failed directory calls exceed one per outage datagram (%d)", r.DirectoryFails, outage)
		}
	} else if r.ReceiverDrops[core.DropKeying] != 0 && sc.ExactBuckets {
		r.fail("drops[keying]=%d with no keying fault injected", r.ReceiverDrops[core.DropKeying])
	}
}

// Summary renders the report as a compact multi-line string for the
// fbschaos command.
func (r *ChaosReport) Summary() string {
	s := fmt.Sprintf("scenario %s: unique=%d sent=%d accepted=%d rounds=%d complete=%v\n",
		r.Scenario, r.Unique, r.Sent, r.Accepted, r.Rounds, r.Complete)
	s += fmt.Sprintf("  port: clean=%d dup=%d corrupt=%d injected=%d overflow=%d\n",
		r.Port.DeliveredClean, r.Port.DeliveredDup, r.Port.DeliveredCorrupt, r.Port.Injected, r.Port.Overflow)
	for name, ls := range r.Links {
		s += fmt.Sprintf("  link %s: offered=%d lost=%d burst=%d dup=%d corrupt=%d reorder=%d\n",
			name, ls.Offered, ls.Lost, ls.BurstLost, ls.Duplicated, ls.Corrupted, ls.Reordered)
	}
	s += dropLines(r.ReceiverDrops)
	s += fmt.Sprintf("  keying: dircalls=%d dirfails=%d upcalls=%d\n",
		r.DirectoryCalls, r.DirectoryFails, r.MKDUpcalls)
	return s + r.verdictLines()
}
