package netsim

import (
	"reflect"
	"testing"
	"time"

	"fbs/internal/transport"
)

// The link faults the chaos harness reconciles against, seen the way
// the adversary sees them: through the network's decision hook.

// transmitN sends n datagrams a→b through a network with fault model
// imp and returns the decisions the hook saw with the a→b books. b is
// never attached, so no copy queues.
func transmitN(imp transport.Impairments, n int) ([]transport.Decision, transport.LinkStats) {
	net := transport.NewNetwork(imp)
	var ds []transport.Decision
	net.Observe(func(_ transport.Datagram, d transport.Decision) { ds = append(ds, d) })
	a, _ := net.Attach("a", 0)
	for i := 0; i < n; i++ {
		a.Send(transport.Datagram{Destination: "b", Payload: []byte{byte(i)}})
	}
	return ds, net.Links()["a->b"]
}

func TestLinkFaultsDeterministic(t *testing.T) {
	imp := transport.Impairments{
		LossProb: 0.01, BurstEnter: 0.05, BurstExit: 0.3, BurstLoss: 0.5,
		DupProb: 0.1, CorruptProb: 0.1,
		Delay: time.Millisecond, Jitter: 2 * time.Millisecond,
		ReorderProb: 0.05, Holdback: 5 * time.Millisecond,
		Seed: 7,
	}
	a, sa := transmitN(imp, 500)
	b, sb := transmitN(imp, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("decisions diverged between identical seeded runs")
	}
	if sa != sb {
		t.Fatalf("stats diverged: %+v vs %+v", sa, sb)
	}
}

func TestLinkSaltIndependence(t *testing.T) {
	net := transport.NewNetwork(transport.Impairments{LossProb: 0.5, Seed: 7})
	lost := map[string]string{} // destination -> "x" lost, "." delivered, in order
	net.Observe(func(dg transport.Datagram, d transport.Decision) {
		if d.Copies == 0 {
			lost[string(dg.Destination)] += "x"
		} else {
			lost[string(dg.Destination)] += "."
		}
	})
	a, _ := net.Attach("a", 0)
	for i := 0; i < 200; i++ {
		a.Send(transport.Datagram{Destination: "b"})
		a.Send(transport.Datagram{Destination: "c"})
	}
	if lost["b"] == lost["c"] {
		t.Fatal("two directions produced identical loss sequences")
	}
}

func TestBernoulliLossRate(t *testing.T) {
	_, st := transmitN(transport.Impairments{LossProb: 0.25}, 4000)
	rate := float64(st.Lost) / float64(st.Offered)
	if rate < 0.20 || rate > 0.30 {
		t.Fatalf("loss rate %.3f outside [0.20, 0.30] for p=0.25", rate)
	}
	if st.BurstLost != 0 {
		t.Fatalf("%d burst losses with the bad regime never entered", st.BurstLost)
	}
}

func TestGilbertElliottBursts(t *testing.T) {
	// A bad regime that is entered rarely but drops heavily must produce
	// burst losses, and more total loss than the good regime alone.
	_, st := transmitN(transport.Impairments{BurstEnter: 0.05, BurstExit: 0.2, BurstLoss: 0.9}, 4000)
	if st.BurstLost == 0 {
		t.Fatal("no burst losses recorded")
	}
	if st.BurstLost != st.Lost {
		t.Fatalf("LossProb=0 yet %d of %d losses were outside the bad regime", st.Lost-st.BurstLost, st.Lost)
	}
}

func TestDuplicateSchedulesExtraCopy(t *testing.T) {
	ds, st := transmitN(transport.Impairments{DupProb: 0.3}, 1000)
	if st.Duplicated == 0 {
		t.Fatal("no duplicates at p=0.3")
	}
	var twoCopies uint64
	for _, d := range ds {
		if d.Copies == 2 {
			twoCopies++
		}
	}
	if twoCopies != st.Duplicated {
		t.Fatalf("%d two-copy decisions but Duplicated=%d", twoCopies, st.Duplicated)
	}
}

func TestCorruptBitsMarksOnce(t *testing.T) {
	// Duplication runs before corruption and the flip applies to every
	// copy: a corrupted datagram never yields a clean duplicate.
	net := transport.NewNetwork(transport.Impairments{CorruptProb: 0.5, DupProb: 1.0})
	a, _ := net.Attach("a", 0)
	net.Attach("b", 1024)
	for i := 0; i < 500; i++ {
		a.Send(transport.Datagram{Destination: "b", Payload: []byte{byte(i)}})
	}
	st, ps := net.Links()["a->b"], net.PortStats("b")
	if st.Corrupted == 0 {
		t.Fatal("no corruption at p=0.5")
	}
	if ps.DeliveredCorrupt != 2*st.Corrupted || ps.DeliveredClean != 500-st.Corrupted || ps.DeliveredDup != ps.DeliveredClean {
		t.Fatalf("port %+v for %d corrupted of 500 duplicated datagrams", ps, st.Corrupted)
	}
}

func TestDelayJitterShiftsFates(t *testing.T) {
	base, jitter := 5*time.Millisecond, 3*time.Millisecond
	ds, _ := transmitN(transport.Impairments{Delay: base, Jitter: jitter}, 200)
	for i, d := range ds {
		if delta := d.Delay[0]; delta < base || delta >= base+jitter {
			t.Fatalf("decision %d delayed %v, want [%v, %v)", i, delta, base, base+jitter)
		}
	}
}

func TestReorderHoldsBack(t *testing.T) {
	hold := 10 * time.Millisecond
	ds, st := transmitN(transport.Impairments{ReorderProb: 0.2, Holdback: hold}, 500)
	if st.Reordered == 0 {
		t.Fatal("no reorders at p=0.2")
	}
	var held uint64
	for _, d := range ds {
		if d.Delay[0] == hold {
			held++
		}
	}
	if held != st.Reordered {
		t.Fatalf("%d held-back decisions but Reordered=%d", held, st.Reordered)
	}
}

func TestHealDeliversEverything(t *testing.T) {
	net := transport.NewNetwork(transport.Impairments{LossProb: 1.0, Delay: time.Second})
	var ds []transport.Decision
	net.Observe(func(_ transport.Datagram, d transport.Decision) { ds = append(ds, d) })
	a, _ := net.Attach("a", 0)
	a.Send(transport.Datagram{Destination: "b"})
	net.Heal()
	a.Send(transport.Datagram{Destination: "b"})
	if ds[0].Copies != 0 {
		t.Fatal("pre-heal datagram survived p=1 loss")
	}
	if ds[1] != (transport.Decision{Copies: 1}) {
		t.Fatalf("healed link decided %+v, want one copy at once", ds[1])
	}
}

func TestZeroModelIsTransparent(t *testing.T) {
	ds, st := transmitN(transport.Impairments{}, 100)
	for i, d := range ds {
		if d != (transport.Decision{Copies: 1}) {
			t.Fatalf("zero model mangled datagram %d: %+v", i, d)
		}
	}
	if st.Lost+st.Duplicated+st.Corrupted+st.Reordered != 0 || st.Offered != 100 {
		t.Fatalf("zero model recorded faults: %+v", st)
	}
}
