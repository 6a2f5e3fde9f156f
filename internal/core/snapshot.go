package core

import "sync/atomic"

// The four soft caches of Figure 5, in the order Snapshot.Caches lists
// them and /metrics labels them.
const (
	CacheTFKC = iota
	CacheRFKC
	CachePVC
	CacheMKC
	NumCaches
)

// CacheInfo describes one key/certificate cache for monitoring: its
// name, occupancy, geometry and counters. Occupancy is counted under
// the stripe locks, so it is exact at the instant each stripe is visited.
type CacheInfo struct {
	Name  string
	Used  int
	Slots int
	Stats CacheStats
}

// Snapshot is everything an endpoint counts, as one fixed-size value (no
// maps, no slices: it copies and compares). Endpoint.Snapshot is the
// only way statistics leave an endpoint and Merge the only place two
// endpoints' statistics are added, so a new counter is one field here,
// one line in each of those and one exposition row in internal/obs. The
// unbounded listings (Flows, ReplayPerPeer) are not counters and are not
// here.
type Snapshot struct {
	// Data plane; every counter is cumulative.
	Sent             uint64
	SentSecret       uint64
	SentBytes        uint64
	Received         uint64
	ReceivedBytes    uint64
	BypassedSent     uint64
	BypassedReceived uint64

	// Drops counts refused datagrams, either direction, indexed by
	// DropReason. Drops[DropNone] is always zero.
	Drops [NumDropReasons]uint64

	// SuiteSeals and SuiteOpens count successful seals and accepted
	// opens per cipher nibble. Slots with no registered suite stay zero.
	SuiteSeals [maxAlgNibble + 1]uint64
	SuiteOpens [maxAlgNibble + 1]uint64

	Batch       BatchStats
	FAM         FAMStats
	ActiveFlows int // live flow state table entries

	// Caches is indexed by CacheTFKC … CacheMKC.
	Caches [NumCaches]CacheInfo

	Keying     KeyServiceStats
	MKDUpcalls uint64

	// Overload plane; zero for a component the endpoint runs without.
	Budget         BudgetStats
	Admission      AdmissionStats
	Replay         ReplayStats
	Prefilter      PrefilterStats
	PressureSweeps uint64
}

// Snapshot reads every counter the endpoint keeps: the atomics, plus one
// pass over the flow table and the caches, a stripe lock at a time, for
// the occupancies. It is not one atomic cut, but each counter is exact.
// The key plane (PVC, MKC, Keying, MKD*) is read by the endpoint that
// carries it and zero on the shards that borrow it: a group adds up.
func (e *Endpoint) Snapshot() Snapshot {
	c := &e.metrics
	s := Snapshot{
		Sent:             c.sent.Load(),
		SentSecret:       c.sentSecret.Load(),
		SentBytes:        c.sentBytes.Load(),
		Received:         c.received.Load(),
		ReceivedBytes:    c.receivedBytes.Load(),
		BypassedSent:     c.bypassedSent.Load(),
		BypassedReceived: c.bypassedReceived.Load(),
		FAM:              e.fam.Stats(),
		ActiveFlows:      e.fam.ActiveFlows(),
		Caches: [NumCaches]CacheInfo{
			CacheTFKC: {"tfkc", e.tfkc.Occupancy(), e.tfkc.Size(), e.tfkc.Stats()},
			CacheRFKC: {"rfkc", e.rfkc.Occupancy(), e.rfkc.Size(), e.rfkc.Stats()},
			CachePVC:  {Name: "pvc"},
			CacheMKC:  {Name: "mkc"},
		},
		Budget:         e.cfg.StateBudget.Stats(),
		Admission:      e.gate.Stats(),
		Replay:         e.rc.Stats(),
		Prefilter:      e.pf.stats(e.cfg.Clock.Now()),
		PressureSweeps: e.pressureSweeps.Load(),
	}
	if e.carriesPlane {
		ks, mkd := e.plane.ks, e.plane.mkd
		s.Caches[CachePVC] = CacheInfo{"pvc", ks.pvc.Occupancy(), ks.pvc.Size(), ks.pvc.Stats()}
		s.Caches[CacheMKC] = CacheInfo{"mkc", ks.mkc.Occupancy(), ks.mkc.Size(), ks.mkc.Stats()}
		s.Keying, s.MKDUpcalls = ks.Stats(), mkd.Upcalls()
	}
	loadEach(s.Drops[:], c.drops[:])
	loadEach(s.SuiteSeals[:], c.sealsBySuite[:])
	loadEach(s.SuiteOpens[:], c.opensBySuite[:])
	loadEach(s.Batch.SealCalls[:], c.sealBatchCalls[:])
	loadEach(s.Batch.OpenCalls[:], c.openBatchCalls[:])
	s.Batch.SealDatagrams = c.sealBatchDatagrams.Load()
	s.Batch.OpenDatagrams = c.openBatchDatagrams.Load()
	return s
}

func loadEach(dst []uint64, src []atomic.Uint64) {
	for i := range dst {
		dst[i] = src[i].Load()
	}
}

func addEach(dst, src []uint64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// Merge folds o into s: two endpoints' statistics read as one. Counters
// and occupancies add; the values that are a setting or a position, not
// an amount — the budget's marks, the pre-filter's rung and secret epoch
// — take the larger. Budget amounts add too, so a *Budget that several
// endpoints share must reach a fold once (see ShardGroup.Snapshots).
func (s *Snapshot) Merge(o Snapshot) {
	s.Sent += o.Sent
	s.SentSecret += o.SentSecret
	s.SentBytes += o.SentBytes
	s.Received += o.Received
	s.ReceivedBytes += o.ReceivedBytes
	s.BypassedSent += o.BypassedSent
	s.BypassedReceived += o.BypassedReceived
	addEach(s.Drops[:], o.Drops[:])
	addEach(s.SuiteSeals[:], o.SuiteSeals[:])
	addEach(s.SuiteOpens[:], o.SuiteOpens[:])

	addEach(s.Batch.SealCalls[:], o.Batch.SealCalls[:])
	addEach(s.Batch.OpenCalls[:], o.Batch.OpenCalls[:])
	s.Batch.SealDatagrams += o.Batch.SealDatagrams
	s.Batch.OpenDatagrams += o.Batch.OpenDatagrams

	s.FAM.add(o.FAM)
	s.ActiveFlows += o.ActiveFlows

	for i := range s.Caches {
		c, oc := &s.Caches[i], &o.Caches[i]
		c.Name = oc.Name
		c.Used += oc.Used
		c.Slots += oc.Slots
		c.Stats.add(oc.Stats)
	}

	s.Keying.MasterKeyRequests += o.Keying.MasterKeyRequests
	s.Keying.MasterKeyComputes += o.Keying.MasterKeyComputes
	s.Keying.CertFetches += o.Keying.CertFetches
	s.Keying.CertVerifies += o.Keying.CertVerifies
	s.Keying.Failures += o.Keying.Failures
	s.MKDUpcalls += o.MKDUpcalls

	s.Budget.Used += o.Budget.Used
	s.Budget.Peak += o.Budget.Peak
	s.Budget.HighWater = max(s.Budget.HighWater, o.Budget.HighWater)
	s.Budget.HardLimit = max(s.Budget.HardLimit, o.Budget.HardLimit)
	s.Budget.PressureEvents += o.Budget.PressureEvents
	s.Budget.Denials += o.Budget.Denials

	s.Admission.Admitted += o.Admission.Admitted
	s.Admission.ShedOverload += o.Admission.ShedOverload
	s.Admission.Depth += o.Admission.Depth

	s.Replay.Entries += o.Replay.Entries
	s.Replay.Peers += o.Replay.Peers
	s.Replay.Refusals += o.Replay.Refusals

	p, op := &s.Prefilter, &o.Prefilter
	p.Level = max(p.Level, op.Level)
	p.Epoch = max(p.Epoch, op.Epoch)
	p.Escalations += op.Escalations
	p.Deescalations += op.Deescalations
	p.SketchSheds += op.SketchSheds
	p.Challenged += op.Challenged
	p.ChallengeSuppressed += op.ChallengeSuppressed
	p.EchoAccepted += op.EchoAccepted
	p.EchoRejected += op.EchoRejected
	p.CookiesLearned += op.CookiesLearned
	p.CookiesAttached += op.CookiesAttached
	p.HeaderParses += op.HeaderParses
	p.SketchDecays += op.SketchDecays

	s.PressureSweeps += o.PressureSweeps
}
