package netsim

import (
	"sync"
	"time"

	"fbs/internal/cryptolib"
)

// This file is the composable link fault model: a LinkModel is a seeded
// pipeline of impairment Stages (Bernoulli and Gilbert-Elliott burst
// loss, reordering, duplication, bit corruption, delay/jitter)
// instantiated per direction. The model decides the fate of each
// datagram — lost, delivered once or several times, at what offset,
// corrupted or clean — deterministically from the seed and the
// submission sequence, so a chaos run can be replayed exactly and every
// induced fault reconciled against a drop counter.

// Fate is one delivery of a datagram copy decided by the link.
type Fate struct {
	// At is the delivery time as an offset on the link's clock (the
	// submission time plus delay, jitter and reorder holdback).
	At time.Duration
}

// Decision is the link's verdict for one submitted datagram. An empty
// Fates slice means the datagram was lost. Corruption applies to every
// copy (the same CorruptBit in each), so a corrupted datagram never
// yields a clean duplicate and per-datagram accounting stays exact.
type Decision struct {
	// Now is the submission time the decision was computed at.
	Now time.Duration
	// Corrupt marks the datagram for a single-bit flip on delivery.
	Corrupt bool
	// CorruptBit selects the flipped bit: byte CorruptBit/8 mod size,
	// bit CorruptBit%8.
	CorruptBit uint32
	// Fates are the scheduled deliveries; empty means lost.
	Fates []Fate
}

// Lost reports whether the link dropped every copy.
func (d *Decision) Lost() bool { return len(d.Fates) == 0 }

// LinkStats counts what a link's fault pipeline did. Lost counts
// datagrams (all copies dropped); Duplicated, Corrupted, Reordered and
// BurstLost count stage activations.
type LinkStats struct {
	// Offered datagrams submitted to the link.
	Offered uint64
	// Lost datagrams (no delivery at all).
	Lost uint64
	// BurstLost is the subset of Lost dropped while a Gilbert-Elliott
	// stage was in its bad regime.
	BurstLost uint64
	// Duplicated datagrams (one extra copy scheduled).
	Duplicated uint64
	// Corrupted datagrams (every copy gets the same flipped bit).
	Corrupted uint64
	// Reordered datagrams (held back behind later traffic).
	Reordered uint64
}

// stageFn mutates a decision using the link's RNG; it runs under the
// link mutex so stage state needs no further synchronisation.
type stageFn func(rng *cryptolib.LCG, d *Decision, st *LinkStats)

// Stage is one impairment in a link pipeline. Stages carry per-link
// state (a Gilbert-Elliott regime), so a Stage value is a spec: each
// Link instantiated from a model builds fresh state. Construct stages
// with the exported constructors below and compose them in the order
// faults should apply.
type Stage struct {
	name  string
	build func() stageFn
}

// Name labels the stage in reports.
func (s Stage) Name() string { return s.name }

// chance draws a Bernoulli trial from the link RNG.
func chance(rng *cryptolib.LCG, p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(rng.Uint32())/float64(1<<32) < p
}

// GilbertElliott is two-state burst loss: the link moves between a good
// and a bad regime with the given per-packet transition probabilities
// and drops with lossGood/lossBad in each. It models the correlated
// loss trains of congested or fading links that independent Bernoulli
// trials cannot produce.
func GilbertElliott(pEnterBad, pExitBad, lossGood, lossBad float64) Stage {
	return Stage{name: "gilbert-elliott", build: func() stageFn {
		bad := false
		return func(rng *cryptolib.LCG, d *Decision, st *LinkStats) {
			if bad {
				if chance(rng, pExitBad) {
					bad = false
				}
			} else if chance(rng, pEnterBad) {
				bad = true
			}
			loss := lossGood
			if bad {
				loss = lossBad
			}
			if !d.Lost() && chance(rng, loss) {
				d.Fates = nil
				if bad {
					st.BurstLost++
				}
			}
		}
	}}
}

// Duplicate delivers an extra copy of the datagram with probability p.
func Duplicate(p float64) Stage {
	return Stage{name: "duplicate", build: func() stageFn {
		return func(rng *cryptolib.LCG, d *Decision, st *LinkStats) {
			if !d.Lost() && chance(rng, p) {
				d.Fates = append(d.Fates, d.Fates[0])
				st.Duplicated++
			}
		}
	}}
}

// CorruptBits flips one seeded bit of the datagram with probability p.
// The same bit is flipped in every copy, so duplication never turns a
// corrupted datagram back into a clean one.
func CorruptBits(p float64) Stage {
	return Stage{name: "corrupt", build: func() stageFn {
		return func(rng *cryptolib.LCG, d *Decision, st *LinkStats) {
			if !d.Lost() && !d.Corrupt && chance(rng, p) {
				d.Corrupt = true
				d.CorruptBit = rng.Uint32()
				st.Corrupted++
			}
		}
	}}
}

// DelayJitter adds a fixed base delay plus uniform jitter in [0, jitter)
// to every copy. Jitter alone reorders closely spaced datagrams.
func DelayJitter(base, jitter time.Duration) Stage {
	return Stage{name: "delay", build: func() stageFn {
		return func(rng *cryptolib.LCG, d *Decision, st *LinkStats) {
			for i := range d.Fates {
				d.Fates[i].At += base
				if jitter > 0 {
					d.Fates[i].At += time.Duration(rng.Uint64() % uint64(jitter))
				}
			}
		}
	}}
}

// Reorder holds a datagram back by holdback with probability p, letting
// traffic submitted after it arrive first.
func Reorder(p float64, holdback time.Duration) Stage {
	return Stage{name: "reorder", build: func() stageFn {
		return func(rng *cryptolib.LCG, d *Decision, st *LinkStats) {
			if !d.Lost() && chance(rng, p) {
				for i := range d.Fates {
					d.Fates[i].At += holdback
				}
				st.Reordered++
			}
		}
	}}
}

// LinkModel is a seeded pipeline of impairment stages. Instantiate
// builds an independent Link per direction; two links built from the
// same model share the spec but not the RNG or stage state, so each
// direction of a path degrades independently and deterministically.
type LinkModel struct {
	// Seed makes every fault decision reproducible; 0 selects a fixed
	// default so the zero model is still deterministic.
	Seed uint64
	// Stages apply in order to each submitted datagram.
	Stages []Stage
}

// Link is one instantiated direction of a LinkModel. Transmit is safe
// for concurrent use; decisions are serialised under a mutex, so a
// single-sender call sequence is bit-reproducible given the seed.
type Link struct {
	mu     sync.Mutex
	rng    *cryptolib.LCG
	stages []stageFn
	stats  LinkStats
	healed bool
}

// Instantiate builds a link for one direction. salt distinguishes
// directions instantiated from the same model (hash the endpoint pair).
func (m LinkModel) Instantiate(salt uint64) *Link {
	seed := m.Seed
	if seed == 0 {
		seed = 0xC4A05FB5
	}
	l := &Link{rng: cryptolib.NewLCGSeeded(seed*0x9E3779B97F4A7C15 + salt)}
	for _, s := range m.Stages {
		l.stages = append(l.stages, s.build())
	}
	return l
}

// Transmit decides the fate of one datagram submitted at now on the
// link clock. A healed link delivers everything immediately.
func (l *Link) Transmit(now time.Duration) Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats.Offered++
	d := Decision{Now: now, Fates: []Fate{{At: now}}}
	if !l.healed {
		for _, s := range l.stages {
			s(l.rng, &d, &l.stats)
		}
	}
	if d.Lost() {
		l.stats.Lost++
	}
	return d
}

// Heal turns off every impairment: subsequent datagrams are delivered
// immediately and intact. It models the network recovering, which the
// chaos matrix uses to assert a stalled transfer completes on soft
// state alone.
func (l *Link) Heal() {
	l.mu.Lock()
	l.healed = true
	l.mu.Unlock()
}

// Stats snapshots the link counters.
func (l *Link) Stats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}
