package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// Keying admission control. The most expensive thing an unauthenticated
// datagram can make a receiver do is key a brand-new peer: a directory
// round trip, a certificate verification, and a modular exponentiation
// (Section 5.3's miss path). A spoofed-source flood therefore buys an
// attacker one exponentiation per forged address — the classic
// verification-flooding DoS against datagram authentication. The gate
// here sits in front of the MKD upcall on the receive path and sheds
// such packets *before* any expensive work:
//
//   - peers whose master key is already cached bypass the gate entirely
//     (their keying cost is one hash, not an exponentiation);
//   - a global token bucket bounds the sustained rate of new-peer
//     keying attempts (DropKeyingOverload beyond it).
//
// The gate keeps no per-source book. Per-prefix fairness — one network's
// flood must not starve first contacts from everywhere else — is the
// pre-filter's counting sketch (prefilter.go): every shed here charges
// the source's prefix there, and at the sketch rung a heated prefix is
// refused before it reaches the bucket, so the refill goes to the cold
// prefixes. The flood matrix's fairness rows hold that to a floor.
//
// Everything the gate sheds is recoverable soft-state behaviour: the
// legitimate peer's next datagram simply retries admission.

// AdmissionConfig bounds receive-path keying work for unknown peers.
// The zero value disables the gate (historic behaviour).
type AdmissionConfig struct {
	// UpcallRate is the sustained rate (per second) of admitted keying
	// attempts for peers not yet in the master key cache. <= 0 disables
	// the gate.
	UpcallRate float64
	// UpcallBurst is the token bucket depth; default max(8, UpcallRate).
	UpcallBurst int
}

// enabled reports whether the configuration turns the gate on.
func (c AdmissionConfig) enabled() bool { return c.UpcallRate > 0 }

// AdmissionStats snapshots gate activity for Snapshot and
// /metrics.
type AdmissionStats struct {
	// Admitted counts keying attempts that passed the gate.
	Admitted uint64
	// ShedOverload counts datagrams refused by the token bucket.
	ShedOverload uint64
	// Depth is the number of admitted upcalls currently in flight
	// behind the gate (the keying queue depth gauge).
	Depth int64
}

// admissionGate implements AdmissionConfig. Admit is called only on
// the RFKC-miss + unknown-peer path, so the mutex is far off the
// steady-state hot path.
type admissionGate struct {
	clock Clock
	rate  float64
	burst float64

	mu     sync.Mutex
	tokens float64
	last   time.Time

	admitted     atomic.Uint64
	shedOverload atomic.Uint64
	depth        atomic.Int64
}

// newAdmissionGate builds the gate, or returns nil when the
// configuration disables it.
func newAdmissionGate(cfg AdmissionConfig, clock Clock) *admissionGate {
	if !cfg.enabled() {
		return nil
	}
	burst := float64(cfg.UpcallBurst)
	if burst <= 0 {
		burst = cfg.UpcallRate
		if burst < 8 {
			burst = 8
		}
	}
	return &admissionGate{
		clock:  clock,
		rate:   cfg.UpcallRate,
		burst:  burst,
		tokens: burst,
	}
}

// Admit decides whether a keying attempt for an unknown peer may
// proceed, returning nil or ErrKeyingOverload.
func (g *admissionGate) Admit() error {
	now := g.clock.Now()
	g.mu.Lock()
	// Refill the bucket for the elapsed time, then take one token. A
	// negative elapsed (backward clock step) must not drain the bucket:
	// refill only moves forward, and last is rewound to now so refill
	// resumes from the stepped-back time.
	if !g.last.IsZero() {
		if elapsed := now.Sub(g.last).Seconds(); elapsed > 0 {
			g.tokens += elapsed * g.rate
			if g.tokens > g.burst {
				g.tokens = g.burst
			}
		}
	}
	g.last = now
	if g.tokens < 1 {
		g.mu.Unlock()
		g.shedOverload.Add(1)
		return ErrKeyingOverload
	}
	g.tokens--
	g.mu.Unlock()
	g.admitted.Add(1)
	return nil
}

// enter/leave bracket an admitted upcall for the depth gauge.
func (g *admissionGate) enter() {
	if g != nil {
		g.depth.Add(1)
	}
}

func (g *admissionGate) leave() {
	if g != nil {
		g.depth.Add(-1)
	}
}

// Stats snapshots the gate. Safe on nil (all zero).
func (g *admissionGate) Stats() AdmissionStats {
	if g == nil {
		return AdmissionStats{}
	}
	return AdmissionStats{
		Admitted:     g.admitted.Load(),
		ShedOverload: g.shedOverload.Load(),
		Depth:        g.depth.Load(),
	}
}
