package netsim

import (
	"testing"
	"time"
)

// transmitN drives n datagrams through a fresh link
// built from the model and returns the decisions.
func transmitN(m LinkModel, n int) ([]Decision, *Link) {
	l := m.Instantiate(0)
	out := make([]Decision, n)
	for i := range out {
		out[i] = l.Transmit(time.Duration(i) * time.Millisecond)
	}
	return out, l
}

func TestLinkModelDeterministic(t *testing.T) {
	m := LinkModel{Seed: 7, Stages: []Stage{
		GilbertElliott(0.05, 0.3, 0.01, 0.5),
		Duplicate(0.1),
		CorruptBits(0.1),
		DelayJitter(time.Millisecond, 2*time.Millisecond),
		Reorder(0.05, 5*time.Millisecond),
	}}
	a, la := transmitN(m, 500)
	b, lb := transmitN(m, 500)
	for i := range a {
		if len(a[i].Fates) != len(b[i].Fates) || a[i].Corrupt != b[i].Corrupt || a[i].CorruptBit != b[i].CorruptBit {
			t.Fatalf("decision %d diverged between identical seeded runs", i)
		}
		for j := range a[i].Fates {
			if a[i].Fates[j] != b[i].Fates[j] {
				t.Fatalf("fate %d/%d diverged between identical seeded runs", i, j)
			}
		}
	}
	if la.Stats() != lb.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", la.Stats(), lb.Stats())
	}
}

// bernoulliLoss drops each datagram independently with probability p:
// Gilbert-Elliott that never enters its bad regime.
func bernoulliLoss(p float64) Stage { return GilbertElliott(0, 0, p, 0) }

func TestLinkModelSaltIndependence(t *testing.T) {
	m := LinkModel{Seed: 7, Stages: []Stage{bernoulliLoss(0.5)}}
	la, lb := m.Instantiate(1), m.Instantiate(2)
	same := true
	for i := 0; i < 200; i++ {
		a := la.Transmit(0)
		b := lb.Transmit(0)
		if a.Lost() != b.Lost() {
			same = false
		}
	}
	if same {
		t.Fatal("two salts produced identical loss sequences")
	}
}

func TestBernoulliLossRate(t *testing.T) {
	_, l := transmitN(LinkModel{Stages: []Stage{bernoulliLoss(0.25)}}, 4000)
	st := l.Stats()
	rate := float64(st.Lost) / float64(st.Offered)
	if rate < 0.20 || rate > 0.30 {
		t.Fatalf("loss rate %.3f outside [0.20, 0.30] for p=0.25", rate)
	}
}

func TestGilbertElliottBursts(t *testing.T) {
	// A bad regime that is entered rarely but drops heavily must produce
	// burst losses, and more total loss than the good regime alone.
	_, l := transmitN(LinkModel{Stages: []Stage{GilbertElliott(0.05, 0.2, 0.0, 0.9)}}, 4000)
	st := l.Stats()
	if st.BurstLost == 0 {
		t.Fatal("no burst losses recorded")
	}
	if st.BurstLost != st.Lost {
		t.Fatalf("lossGood=0 yet %d of %d losses were outside the bad regime", st.Lost-st.BurstLost, st.Lost)
	}
}

func TestDuplicateSchedulesExtraCopy(t *testing.T) {
	ds, l := transmitN(LinkModel{Stages: []Stage{Duplicate(0.3)}}, 1000)
	st := l.Stats()
	if st.Duplicated == 0 {
		t.Fatal("no duplicates at p=0.3")
	}
	var twoCopies uint64
	for _, d := range ds {
		if len(d.Fates) == 2 {
			twoCopies++
		}
	}
	if twoCopies != st.Duplicated {
		t.Fatalf("%d two-copy decisions but Duplicated=%d", twoCopies, st.Duplicated)
	}
}

func TestCorruptBitsMarksOnce(t *testing.T) {
	ds, l := transmitN(LinkModel{Stages: []Stage{CorruptBits(0.5), Duplicate(1.0)}}, 500)
	if l.Stats().Corrupted == 0 {
		t.Fatal("no corruption at p=0.5")
	}
	for i, d := range ds {
		// Duplication after corruption must not produce a clean copy:
		// the decision carries one Corrupt flag for every fate.
		if d.Corrupt && len(d.Fates) != 2 {
			t.Fatalf("decision %d corrupt but not duplicated despite p=1", i)
		}
	}
}

func TestDelayJitterShiftsFates(t *testing.T) {
	base := 5 * time.Millisecond
	ds, _ := transmitN(LinkModel{Stages: []Stage{DelayJitter(base, 3*time.Millisecond)}}, 200)
	for i, d := range ds {
		for _, f := range d.Fates {
			delta := f.At - d.Now
			if delta < base || delta >= base+3*time.Millisecond {
				t.Fatalf("decision %d delayed %v, want [%v, %v)", i, delta, base, base+3*time.Millisecond)
			}
		}
	}
}

func TestReorderHoldsBack(t *testing.T) {
	hold := 10 * time.Millisecond
	ds, l := transmitN(LinkModel{Stages: []Stage{Reorder(0.2, hold)}}, 500)
	st := l.Stats()
	if st.Reordered == 0 {
		t.Fatal("no reorders at p=0.2")
	}
	var held uint64
	for _, d := range ds {
		if d.Fates[0].At == d.Now+hold {
			held++
		}
	}
	if held != st.Reordered {
		t.Fatalf("%d held-back decisions but Reordered=%d", held, st.Reordered)
	}
}

func TestHealDeliversEverything(t *testing.T) {
	l := LinkModel{Stages: []Stage{bernoulliLoss(1.0), DelayJitter(time.Second, 0)}}.Instantiate(0)
	if pre := l.Transmit(0); !pre.Lost() {
		t.Fatal("pre-heal datagram survived p=1 loss")
	}
	l.Heal()
	d := l.Transmit(0)
	if d.Lost() {
		t.Fatal("healed link lost a datagram")
	}
	if d.Fates[0].At != 0 {
		t.Fatalf("healed link delayed delivery to %v", d.Fates[0].At)
	}
}

func TestZeroModelIsTransparent(t *testing.T) {
	ds, l := transmitN(LinkModel{}, 100)
	for i, d := range ds {
		if d.Lost() || d.Corrupt || len(d.Fates) != 1 || d.Fates[0].At != d.Now {
			t.Fatalf("stage-free model mangled datagram %d: %+v", i, d)
		}
	}
	st := l.Stats()
	if st.Lost+st.Duplicated+st.Corrupted+st.Reordered != 0 {
		t.Fatalf("stage-free model recorded faults: %+v", st)
	}
}
