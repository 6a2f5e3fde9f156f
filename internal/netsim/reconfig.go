package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fbs/internal/core"
	"fbs/internal/gateway"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// This file is the reconfiguration-under-load harness. The gateway's
// zero-downtime claim is that a config-epoch swap is invisible to
// in-flight traffic: a batch that raced the swap finishes under the
// epoch it pinned, and the swap waits for it instead of cutting it off;
// established peers keep flowing without recomputing a single master key
// (warm handoff); and the books still reconcile exactly — every datagram
// pulled off a listener is accounted once, under the epoch its batch
// pinned.

// ReconfigScenario parameterises one reconfiguration-under-load run.
type ReconfigScenario struct {
	// Name labels the scenario in reports.
	Name string
	// Seed feeds the (clean) link model.
	Seed uint64
	// Senders is how many concurrent clients stream lockstep round
	// trips; Datagrams is the round-trip count per sender.
	// PayloadBytes sizes each datagram (minimum 8).
	Senders      int
	Datagrams    int
	PayloadBytes int
	// Secret encrypts the payloads.
	Secret bool
	// Shards is the initial shard count; swaps alternate it with
	// Shards+2 so the handoff fan-out across different shard counts is
	// exercised too.
	Shards int
	// Swaps is how many config swaps land mid-stream, spread evenly
	// across the transfer (default 3).
	Swaps int
	// DrainTimeout bounds each retiring epoch's drain (default 2s).
	DrainTimeout time.Duration
}

// ReconfigReport is the outcome of a reconfiguration run plus its
// reconciliation.
type ReconfigReport struct {
	ReportHeader
	Senders int
	// RoundTrips is how many send→echo→verify cycles completed; a
	// complete run has Senders×Datagrams of them.
	RoundTrips uint64
	Swaps      uint64
	FinalEpoch uint64
	// CertsHandedOff and MasterKeysHandedOff sum what the swaps carried
	// across; SuccessorComputes counts master-key exponentiations
	// performed by post-swap epochs — warm handoff means zero.
	CertsHandedOff      int
	MasterKeysHandedOff int
	SuccessorComputes   uint64
	// Port classifies every datagram copy the network enqueued at the
	// gateway's listener.
	Port transport.PortStats
	// Final is the gateway's cumulative accounting after drain.
	Final gateway.Stats
	// DrainErrs lists retiring epochs that missed the drain deadline.
	DrainErrs []string
}

// RunReconfig executes one reconfiguration-under-load scenario and
// reconciles the books.
func RunReconfig(sc ReconfigScenario) (*ReconfigReport, error) {
	if sc.Senders <= 0 {
		sc.Senders = 3
	}
	if sc.Datagrams <= 0 {
		sc.Datagrams = 40
	}
	if sc.PayloadBytes < 8 {
		sc.PayloadBytes = 64
	}
	if sc.Shards <= 0 {
		sc.Shards = 2
	}
	if sc.Swaps <= 0 {
		sc.Swaps = 3
	}
	if sc.DrainTimeout <= 0 {
		sc.DrainTimeout = 2 * time.Second
	}
	const tenant = "edge"
	gwAddr := principal.Address("reconfig-gw")

	clientAddrs := make([]principal.Address, sc.Senders)
	for i := range clientAddrs {
		clientAddrs[i] = principal.Address(fmt.Sprintf("reconfig-c%d", i))
	}
	report := &ReconfigReport{ReportHeader: ReportHeader{Scenario: sc.Name}, Senders: sc.Senders}
	// A clean link: the swap is the event. No one-way transfer runs over
	// it, so the rig's receiver loop, drain and recovery stay unused.
	r, err := newRig(&report.ReportHeader, "reconfig-root", transport.Impairments{Seed: sc.Seed}, sc.PayloadBytes, 0, gwAddr, clientAddrs...)
	if err != nil {
		return nil, err
	}
	gw, err := gateway.New(gateway.Options{
		Identity: func(tc gateway.TenantConfig) (*principal.Identity, error) {
			id := r.ids[principal.Address(tc.Address)]
			if id == nil {
				return nil, fmt.Errorf("netsim: no identity for %q", tc.Address)
			}
			return id, nil
		},
		Listen: func(tc gateway.TenantConfig) (transport.Transport, error) {
			return r.net.Attach(principal.Address(tc.Address), r.queue)
		},
		Directory: r.dir,
		Verifier:  r.ver,
	})
	if err != nil {
		return nil, err
	}
	cfg := func(shards int, flowMax uint64) *gateway.Config {
		return &gateway.Config{
			DrainTimeout: gateway.Duration(sc.DrainTimeout),
			Tenants: []gateway.TenantConfig{{
				Name:           tenant,
				Address:        string(gwAddr),
				Shards:         shards,
				ReplayCache:    true,
				FlowMaxPackets: flowMax,
			}},
		}
	}
	if err := gw.Start(cfg(sc.Shards, 0)); err != nil {
		return nil, err
	}
	defer gw.Shutdown(sc.DrainTimeout) //nolint:errcheck // idempotent safety net

	// A client reads its echo off its own port and opens it, so a refused
	// echo is a violation that names its error.
	clients := make([]*core.Endpoint, sc.Senders)
	ports := make([]transport.Transport, sc.Senders)
	for i, addr := range clientAddrs {
		if ports[i], err = r.net.Attach(addr, r.queue); err != nil {
			return nil, err
		}
		if clients[i], err = r.attach(addr, core.Config{Cipher: core.CipherAES128GCM, Transport: ports[i]}); err != nil {
			return nil, err
		}
		defer clients[i].Close()
	}

	var completed atomic.Uint64
	violCh := make(chan string, sc.Senders*4)
	roundTrip := func(sender, seq int) bool {
		want := r.payload(uint32(sender)<<16 | uint32(seq))
		if err := clients[sender].SendTo(gwAddr, want, sc.Secret); err != nil {
			violCh <- fmt.Sprintf("sender %d send %d: %v", sender, seq, err)
			return false
		}
		wire, err := ports[sender].Receive()
		if err != nil {
			violCh <- fmt.Sprintf("sender %d echo %d: %v", sender, seq, err)
			return false
		}
		dg, err := clients[sender].Open(wire)
		if err != nil {
			violCh <- fmt.Sprintf("sender %d echo %d: %v", sender, seq, err)
			return false
		}
		if string(dg.Payload) != string(want) {
			violCh <- fmt.Sprintf("sender %d echo %d: payload mismatch", sender, seq)
			return false
		}
		completed.Add(1)
		return true
	}

	// Warm-up: one synchronous round trip per sender before the stream
	// (and any swap) starts, so every peer's pair master key exists in
	// epoch 1. From then on, warm handoff must make every successor
	// epoch's master-key-compute count exactly zero.
	for i := 0; i < sc.Senders; i++ {
		if !roundTrip(i, 0) {
			return nil, fmt.Errorf("netsim: warm-up round trip failed: %s", <-violCh)
		}
	}

	// Watchdog: a reconfiguration that drops an in-flight flow shows up
	// as a sender blocked in Receive forever; close the clients so the
	// run fails with a violation instead of hanging.
	timedOut := make(chan struct{})
	watchdog := time.AfterFunc(60*time.Second, func() {
		close(timedOut)
		for _, c := range clients {
			c.Close()
		}
	})
	defer watchdog.Stop()

	var wg sync.WaitGroup
	for i := 0; i < sc.Senders; i++ {
		wg.Add(1)
		go func(sender int) {
			defer wg.Done()
			for seq := 1; seq < sc.Datagrams; seq++ {
				if !roundTrip(sender, seq) {
					return
				}
			}
		}(i)
	}

	// The swaps land at even marks across the stream. Each alternates
	// the shard count (exercising handoff fan-out across different
	// shard topologies) and varies a flow policy knob, which is the
	// kind of change operators hot-apply.
	total := uint64(sc.Senders * sc.Datagrams)
	successorComputes := func() {
		if gw.Epoch() < 2 {
			return
		}
		if s, err := gw.TenantSnapshot(tenant); err == nil {
			report.SuccessorComputes += s.Keying.MasterKeyComputes
		}
	}
	for k := 1; k <= sc.Swaps; k++ {
		mark := uint64(k) * total / uint64(sc.Swaps+1)
		for completed.Load() < mark {
			select {
			case <-timedOut:
				report.fail("timed out waiting for round-trip mark %d", mark)
				goto drain
			default:
			}
			time.Sleep(time.Millisecond)
		}
		// Before retiring the live epoch, read its keying books: if it
		// is itself a successor, it must not have computed any keys.
		successorComputes()
		shards := sc.Shards
		if k%2 == 1 {
			shards += 2
		}
		rep, err := gw.Swap(cfg(shards, uint64(100000+k)))
		if err != nil {
			report.fail("swap %d: %v", k, err)
			break
		}
		if rep.MasterKeys < sc.Senders {
			report.fail("swap %d handed off %d master keys; every one of the %d established peers must cross",
				k, rep.MasterKeys, sc.Senders)
		}
		if rep.Certs == 0 {
			report.fail("swap %d handed off no certificates", k)
		}
		report.CertsHandedOff += rep.Certs
		report.MasterKeysHandedOff += rep.MasterKeys
		if rep.DrainErr != "" {
			report.DrainErrs = append(report.DrainErrs, rep.DrainErr)
		}
	}

drain:
	wg.Wait()
	watchdog.Stop()
	close(violCh)
	for v := range violCh {
		report.fail("%s", v)
	}
	r.net.Quiesce(time.Second)
	successorComputes() // the final epoch's books, before drain retires them
	report.RoundTrips = completed.Load()
	report.Complete = report.RoundTrips == total
	report.Port = r.net.PortStats(gwAddr)
	final, err := gw.Shutdown(sc.DrainTimeout)
	if err != nil {
		report.DrainErrs = append(report.DrainErrs, err.Error())
	}
	report.Final = final
	report.Swaps = final.Swaps
	report.FinalEpoch = final.Epoch
	report.reconcile(sc)
	return report, nil
}

// reconcile checks the zero-downtime equations.
func (r *ReconfigReport) reconcile(sc ReconfigScenario) {
	total := uint64(sc.Senders * sc.Datagrams)
	if !r.Complete {
		r.fail("transfer incomplete: %d of %d round trips", r.RoundTrips, total)
	}
	if want := uint64(sc.Swaps + 1); r.Swaps != want || r.FinalEpoch != want {
		r.fail("epoch bookkeeping: swaps=%d epoch=%d, want %d each", r.Swaps, r.FinalEpoch, want)
	}

	// The network delivered every client datagram to the listener
	// exactly once — the link is clean, so anything else is a harness
	// fault, not a gateway one.
	if r.Port.DeliveredClean != total || r.Port.DeliveredDup != 0 ||
		r.Port.DeliveredCorrupt != 0 || r.Port.Injected != 0 || r.Port.Overflow != 0 {
		r.fail("listener port: clean=%d dup=%d corrupt=%d injected=%d overflow=%d, want %d/0/0/0/0",
			r.Port.DeliveredClean, r.Port.DeliveredDup, r.Port.DeliveredCorrupt,
			r.Port.Injected, r.Port.Overflow, total)
	}

	// Zero dropped in-flight flows: every datagram pulled off the
	// listener was accepted and echoed, across every epoch it may have
	// finished under.
	f := r.Final
	if f.Received != total || f.Accepted != total || f.Echoed != total {
		r.fail("gateway books: received=%d accepted=%d echoed=%d, want %d each",
			f.Received, f.Accepted, f.Echoed, total)
	}
	var drops uint64
	for reason, n := range f.Drops {
		drops += n
		r.fail("dropped %d datagrams (%s); a swap must not cost a single one", n, reason)
	}
	if f.EchoFailures != 0 || f.NoTenant != 0 {
		r.fail("echoFailures=%d noTenant=%d, want 0 each", f.EchoFailures, f.NoTenant)
	}
	if f.Received != f.Accepted+drops+f.NoTenant+f.Absorbed {
		r.fail("ledger does not reconcile: received %d != accepted %d + drops %d + noTenant %d + absorbed %d",
			f.Received, f.Accepted, drops, f.NoTenant, f.Absorbed)
	}

	// Warm handoff: the successors served the whole tail of the stream
	// without recomputing a single master key.
	if r.SuccessorComputes != 0 {
		r.fail("successor epochs performed %d master-key computes; warm handoff means zero", r.SuccessorComputes)
	}
	if len(r.DrainErrs) != 0 {
		r.fail("%d retiring epochs missed the drain deadline: %v", len(r.DrainErrs), r.DrainErrs)
	}
}

// Summary renders the report as a compact multi-line string for the
// fbschaos command.
func (r *ReconfigReport) Summary() string {
	s := fmt.Sprintf("reconfig %s: senders=%d roundtrips=%d swaps=%d epoch=%d complete=%v\n",
		r.Scenario, r.Senders, r.RoundTrips, r.Swaps, r.FinalEpoch, r.Complete)
	s += fmt.Sprintf("  handoff: certs=%d masterkeys=%d successor-computes=%d\n",
		r.CertsHandedOff, r.MasterKeysHandedOff, r.SuccessorComputes)
	s += fmt.Sprintf("  books: received=%d accepted=%d echoed=%d\n",
		r.Final.Received, r.Final.Accepted, r.Final.Echoed)
	return s + r.verdictLines()
}
