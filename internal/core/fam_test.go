package core

import (
	"sync"
	"testing"
	"time"
)

var famEpoch = time.Date(2026, 7, 4, 0, 0, 0, 0, time.UTC)

func testFAM(threshold time.Duration, size int) *FAM {
	return newFAMWithSeed(ThresholdPolicy{Threshold: threshold}, size, 1000)
}

func TestFAMSameTupleSameFlow(t *testing.T) {
	f := testFAM(10*time.Minute, 64)
	id := FlowID{Src: "a", Dst: "b", Proto: 6, SrcPort: 1234, DstPort: 80}
	sfl1, new1 := f.Classify(id, famEpoch, 100)
	sfl2, new2 := f.Classify(id, famEpoch.Add(time.Minute), 200)
	if !new1 || new2 {
		t.Fatalf("newness: got %v,%v want true,false", new1, new2)
	}
	if sfl1 != sfl2 {
		t.Fatal("same 5-tuple within threshold got different sfls")
	}
	s := f.Stats()
	if s.FlowsCreated != 1 || s.Hits != 1 || s.Lookups != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestFAMThresholdExpiry(t *testing.T) {
	f := testFAM(10*time.Minute, 64)
	id := FlowID{Src: "a", Dst: "b", Proto: 17, SrcPort: 53, DstPort: 53}
	sfl1, _ := f.Classify(id, famEpoch, 1)
	// Just inside the threshold: same flow.
	sfl2, isNew := f.Classify(id, famEpoch.Add(10*time.Minute), 1)
	if isNew || sfl1 != sfl2 {
		t.Fatal("flow expired too early")
	}
	// The gap is measured from the LAST datagram.
	sfl3, isNew := f.Classify(id, famEpoch.Add(20*time.Minute), 1)
	if isNew || sfl3 != sfl1 {
		t.Fatal("threshold should measure from last arrival, not creation")
	}
	// Beyond the threshold: new flow, fresh sfl.
	sfl4, isNew := f.Classify(id, famEpoch.Add(31*time.Minute), 1)
	if !isNew || sfl4 == sfl1 {
		t.Fatal("idle flow not expired")
	}
}

func TestFAMDistinctTuplesDistinctFlows(t *testing.T) {
	f := testFAM(10*time.Minute, 1024)
	ids := []FlowID{
		{Src: "a", Dst: "b", Proto: 6, SrcPort: 1, DstPort: 80},
		{Src: "a", Dst: "b", Proto: 6, SrcPort: 2, DstPort: 80},
		{Src: "a", Dst: "b", Proto: 17, SrcPort: 1, DstPort: 80},
		{Src: "a", Dst: "c", Proto: 6, SrcPort: 1, DstPort: 80},
		{Src: "d", Dst: "b", Proto: 6, SrcPort: 1, DstPort: 80},
		{Src: "a", Dst: "b", Proto: 6, SrcPort: 1, DstPort: 81},
		{Src: "a", Dst: "b", Proto: 6, SrcPort: 1, DstPort: 80, Aux: 9},
	}
	seen := make(map[SFL]bool)
	for _, id := range ids {
		sfl, _ := f.Classify(id, famEpoch, 1)
		if seen[sfl] {
			t.Fatalf("sfl %d reused across different attribute sets", sfl)
		}
		seen[sfl] = true
	}
}

func TestFAMSFLNeverReused(t *testing.T) {
	f := testFAM(time.Minute, 8)
	seen := make(map[SFL]bool)
	now := famEpoch
	// Churn many flows through a tiny table: collisions and expiries
	// must always mint fresh sfls.
	for i := 0; i < 500; i++ {
		id := FlowID{Src: "a", Dst: "b", SrcPort: uint16(i)}
		sfl, isNew := f.Classify(id, now, 1)
		if isNew {
			if seen[sfl] {
				t.Fatalf("sfl %d assigned to two flows", sfl)
			}
			seen[sfl] = true
		}
		now = now.Add(time.Second)
	}
}

func TestFAMCollisionCounted(t *testing.T) {
	f := testFAM(time.Hour, 1) // single slot: every distinct tuple collides
	f.Classify(FlowID{SrcPort: 1}, famEpoch, 1)
	f.Classify(FlowID{SrcPort: 2}, famEpoch, 1)
	s := f.Stats()
	if s.Collisions != 1 {
		t.Fatalf("Collisions = %d, want 1", s.Collisions)
	}
}

func TestFAMSweeper(t *testing.T) {
	f := testFAM(10*time.Minute, 64)
	f.Classify(FlowID{SrcPort: 1}, famEpoch, 1)
	f.Classify(FlowID{SrcPort: 2}, famEpoch.Add(5*time.Minute), 1)
	if got := f.ActiveFlows(); got != 2 {
		t.Fatalf("ActiveFlows = %d, want 2", got)
	}
	// At +12min the first flow is idle >10min, the second is not.
	if n := f.Sweep(famEpoch.Add(12 * time.Minute)); n != 1 {
		t.Fatalf("Sweep expired %d, want 1", n)
	}
	if got := f.ActiveFlows(); got != 1 {
		t.Fatalf("ActiveFlows after sweep = %d, want 1", got)
	}
	if f.Stats().Expirations != 1 {
		t.Fatal("expirations not counted")
	}
}

func TestFAMAccounting(t *testing.T) {
	f := testFAM(time.Hour, 4)
	id := FlowID{Src: "a", Dst: "b"}
	_, _, _, slot, _ := f.classifyBatch(id, famEpoch, []int{100})
	f.Classify(id, famEpoch.Add(time.Second), 150)
	e := f.entry(slot)
	if e.Packets != 2 || e.Bytes != 250 {
		t.Fatalf("entry accounting = %d pkts %d bytes", e.Packets, e.Bytes)
	}
	if !e.Created.Equal(famEpoch) || !e.Last.Equal(famEpoch.Add(time.Second)) {
		t.Fatal("entry times wrong")
	}
}

func TestHostPairPolicyAggregates(t *testing.T) {
	f := newFAMWithSeed(HostPairPolicy{}, 64, 5)
	a := FlowID{Src: "a", Dst: "b", Proto: 6, SrcPort: 1, DstPort: 80}
	b := FlowID{Src: "a", Dst: "b", Proto: 17, SrcPort: 999, DstPort: 53}
	c := FlowID{Src: "a", Dst: "c", Proto: 6, SrcPort: 1, DstPort: 80}
	s1, _ := f.Classify(a, famEpoch, 1)
	s2, _ := f.Classify(b, famEpoch.Add(time.Hour*100), 1) // never expires
	s3, _ := f.Classify(c, famEpoch, 1)
	if s1 != s2 {
		t.Fatal("host-pair policy separated same-pair traffic")
	}
	if s1 == s3 {
		t.Fatal("host-pair policy merged different pairs")
	}
}

func TestHostPairPolicyWithThreshold(t *testing.T) {
	f := newFAMWithSeed(HostPairPolicy{Threshold: time.Minute}, 64, 5)
	id := FlowID{Src: "a", Dst: "b"}
	s1, _ := f.Classify(id, famEpoch, 1)
	s2, isNew := f.Classify(id, famEpoch.Add(2*time.Minute), 1)
	if !isNew || s1 == s2 {
		t.Fatal("host-pair flow with threshold did not expire")
	}
	if f.Sweep(famEpoch.Add(10*time.Minute)) != 1 {
		t.Fatal("sweeper did not expire host-pair flow")
	}
}

func TestHostPairPolicyPressureSweepsAsNormal(t *testing.T) {
	// Host-pair flows have no tightened threshold: a pressure sweep must
	// expire exactly what a normal sweep at the same instant would.
	f := newFAMWithSeed(HostPairPolicy{Threshold: 8 * time.Minute}, 64, 5)
	f.Classify(FlowID{Src: "a", Dst: "b"}, famEpoch, 1)
	f.Classify(FlowID{Src: "a", Dst: "c"}, famEpoch.Add(time.Minute), 1)
	// a->b idle 2 min: past Threshold/8, which a ThresholdPolicy would
	// reclaim under pressure, but inside the host-pair threshold.
	if n := f.SweepPressure(famEpoch.Add(2 * time.Minute)); n != 0 {
		t.Fatalf("pressure sweep inside the threshold expired %d flows", n)
	}
	at := famEpoch.Add(8*time.Minute + 30*time.Second)
	if n := f.SweepPressure(at); n != 1 {
		t.Fatalf("pressure sweep expired %d flows, want 1 (only a->b is idle past 8 min)", n)
	}
	if n := f.Sweep(at); n != 0 {
		t.Fatalf("normal sweep after the pressure sweep expired %d more flows", n)
	}
}

func TestHostPairNormalisesBeforeIndex(t *testing.T) {
	// Two 5-tuples of one host pair must land in one slot as one flow: a
	// FAM that indexed before normalising would spread them over the
	// table and count the second as a collision whenever they met.
	f := newFAMWithSeed(HostPairPolicy{}, 64, 5)
	a := FlowID{Src: "a", Dst: "b", Proto: 6, SrcPort: 1, DstPort: 80}
	b := FlowID{Src: "a", Dst: "b", Proto: 17, SrcPort: 999, DstPort: 53, Aux: 7}
	sizes := []int{1}
	_, _, _, slotA, okA := f.classifyBatch(a, famEpoch, sizes)
	_, _, _, slotB, okB := f.classifyBatch(b, famEpoch, sizes)
	if !okA || !okB || slotA != slotB {
		t.Fatalf("slots %d, %d (ok %v, %v): one host pair must map to one slot", slotA, slotB, okA, okB)
	}
	if got, want := f.entry(slotA).ID, (FlowID{Src: "a", Dst: "b"}); got != want {
		t.Fatalf("stored FlowID = %+v, want the normalised pair %+v", got, want)
	}
	want := FAMStats{Lookups: 2, Hits: 1, FlowsCreated: 1}
	if got := f.Stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

func TestNewFAMValidation(t *testing.T) {
	if _, err := NewFAM(nil, 0); err == nil {
		t.Fatal("nil policy accepted")
	}
	f, err := NewFAM(ThresholdPolicy{Threshold: time.Minute}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.table) != DefaultFSTSize {
		t.Fatalf("default table size = %d", len(f.table))
	}
}

func TestNewFAMRandomizesSFL(t *testing.T) {
	f1, _ := NewFAM(ThresholdPolicy{Threshold: time.Minute}, 8)
	f2, _ := NewFAM(ThresholdPolicy{Threshold: time.Minute}, 8)
	s1, _ := f1.Classify(FlowID{}, famEpoch, 1)
	s2, _ := f2.Classify(FlowID{}, famEpoch, 1)
	if s1 == s2 {
		t.Fatal("two fresh FAMs minted the same first sfl; counter not randomised")
	}
}

func TestFlowIDHashSpreadsSequentialPorts(t *testing.T) {
	// Sequential ports from one host pair must spread across a small
	// table (the Section 5.3 argument for CRC-32).
	const size = 32
	var hit [size]bool
	p := ThresholdPolicy{}
	for port := uint16(1024); port < 1024+128; port++ {
		hit[p.Index(FlowID{Src: "10.0.0.1", Dst: "10.0.0.2", Proto: 6, SrcPort: port, DstPort: 80}, size)] = true
	}
	used := 0
	for _, h := range hit {
		if h {
			used++
		}
	}
	if used < size/2 {
		t.Fatalf("128 sequential ports used only %d/%d slots", used, size)
	}
}

func TestFAMSnapshot(t *testing.T) {
	f := testFAM(10*time.Minute, 64)
	if got := f.Snapshot(); len(got) != 0 {
		t.Fatalf("fresh FAM has %d flows", len(got))
	}
	f.Classify(FlowID{Src: "a", Dst: "b", SrcPort: 1}, famEpoch, 100)
	f.Classify(FlowID{Src: "a", Dst: "b", SrcPort: 1}, famEpoch.Add(time.Second), 50)
	f.Classify(FlowID{Src: "a", Dst: "b", SrcPort: 2}, famEpoch, 10)
	snap := f.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d flows, want 2", len(snap))
	}
	for _, fi := range snap {
		if fi.ID.SrcPort == 1 {
			if fi.Packets != 2 || fi.Bytes != 150 {
				t.Fatalf("flow accounting: %+v", fi)
			}
		}
	}
}

func TestFAMSweepAtExactThresholdBoundary(t *testing.T) {
	// The sweeper and the mapper must agree at the boundary: a flow idle
	// for EXACTLY the threshold is still alive (Match keeps it, Sweep
	// leaves it), and one nanosecond past it is dead for both.
	const threshold = 10 * time.Minute
	f := testFAM(threshold, 64)
	id := FlowID{Src: "a", Dst: "b", SrcPort: 7}
	f.Classify(id, famEpoch, 1)
	if n := f.Sweep(famEpoch.Add(threshold)); n != 0 {
		t.Fatalf("sweep at exactly the threshold expired %d flows", n)
	}
	if _, isNew := f.Classify(id, famEpoch.Add(threshold), 1); isNew {
		t.Fatal("mapper expired a flow at exactly the threshold")
	}
	// The hit refreshed Last; idle it out again and cross the boundary.
	last := famEpoch.Add(threshold)
	if n := f.Sweep(last.Add(threshold + time.Nanosecond)); n != 1 {
		t.Fatalf("sweep just past the threshold expired %d flows, want 1", n)
	}
	if _, isNew := f.Classify(id, last.Add(threshold+time.Nanosecond), 1); !isNew {
		t.Fatal("mapper kept a flow just past the threshold")
	}
}

func TestFAMPressureSweepTightensThreshold(t *testing.T) {
	f := newFAMWithSeed(ThresholdPolicy{
		Threshold:         10 * time.Minute,
		PressureThreshold: time.Minute,
	}, 64, 1000)
	f.Classify(FlowID{SrcPort: 1}, famEpoch, 1)
	f.Classify(FlowID{SrcPort: 2}, famEpoch.Add(4*time.Minute), 1)
	at := famEpoch.Add(5 * time.Minute)
	// Neither flow is past the normal threshold...
	if n := f.Sweep(at); n != 0 {
		t.Fatalf("normal sweep expired %d flows", n)
	}
	// ...but under pressure the first (idle 5min > 1min) is reclaimed.
	if n := f.SweepPressure(at); n != 1 {
		t.Fatalf("pressure sweep expired %d flows, want 1", n)
	}
	if got := f.ActiveFlows(); got != 1 {
		t.Fatalf("ActiveFlows after pressure sweep = %d, want 1", got)
	}
}

func TestFAMPressureThresholdDefault(t *testing.T) {
	p := ThresholdPolicy{Threshold: 8 * time.Minute}
	e := &FSTEntry{Valid: true, Last: famEpoch}
	// Default pressure threshold is Threshold/8 = 1 minute.
	if p.Expired(e, famEpoch.Add(time.Minute), true) {
		t.Fatal("expired at exactly the default pressure threshold")
	}
	if !p.Expired(e, famEpoch.Add(time.Minute+time.Nanosecond), true) {
		t.Fatal("not expired just past the default pressure threshold")
	}
}

func TestFAMSweepRacesConcurrentInserts(t *testing.T) {
	// Sweep locks one stripe at a time while classification proceeds in
	// others; under -race this asserts the striping is actually sound,
	// and the budget invariant (used == live entries x cost) must hold
	// exactly once the dust settles.
	b := NewBudget(0, 1<<20)
	f := testFAM(time.Minute, 256)
	f.SetBudget(b)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			now := famEpoch
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f.Classify(FlowID{SrcPort: uint16(i % 512), Aux: uint64(g)}, now, 1)
				now = now.Add(time.Millisecond)
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		f.Sweep(famEpoch.Add(time.Duration(i) * 10 * time.Second))
	}
	close(stop)
	wg.Wait()
	f.Sweep(famEpoch.Add(24 * time.Hour))
	if got, want := b.Used(), int64(f.ActiveFlows())*CostFAMEntry; got != want {
		t.Fatalf("budget used = %d, want %d (%d live flows)", got, want, f.ActiveFlows())
	}
}
