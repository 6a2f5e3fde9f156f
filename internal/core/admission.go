package core

import (
	"sync"
	"sync/atomic"
	"time"

	"fbs/internal/principal"
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
//     keying attempts (DropKeyingOverload beyond it);
//   - a per-source-prefix quota keeps any one prefix from monopolising
//     the bucket (DropPeerQuota), so a flood from one network cannot
//     starve first-contact traffic from everywhere else.
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
	// PrefixQuota caps admitted attempts per source prefix per
	// QuotaWindow; 0 means no per-prefix quota.
	PrefixQuota int
	// PrefixLen is how many leading bytes of the source address form
	// its prefix; default 8 (longer addresses aggregate, shorter ones
	// stand alone).
	PrefixLen int
	// QuotaWindow is the per-prefix accounting window; default 1s.
	QuotaWindow time.Duration
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
	// ShedQuota counts datagrams refused by the per-prefix quota.
	ShedQuota uint64
	// Depth is the number of admitted upcalls currently in flight
	// behind the gate (the keying queue depth gauge).
	Depth int64
	// ActivePrefixes is the number of source prefixes currently
	// tracked by the quota.
	ActivePrefixes int
}

// prefixQuotaCap bounds the per-prefix tracking map so an address-scan
// flood cannot grow the gate's own state without limit.
const prefixQuotaCap = 4096

// prefixWindow is one prefix's admission count within the current
// quota window.
type prefixWindow struct {
	start time.Time
	count int
}

// admissionGate implements AdmissionConfig. Admit is called only on
// the RFKC-miss + unknown-peer path, so the mutex is far off the
// steady-state hot path.
type admissionGate struct {
	clock  Clock
	rate   float64
	burst  float64
	quota  int
	plen   int
	window time.Duration

	mu       sync.Mutex
	tokens   float64
	last     time.Time
	prefixes map[string]*prefixWindow

	admitted     atomic.Uint64
	shedOverload atomic.Uint64
	shedQuota    atomic.Uint64
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
	plen := cfg.PrefixLen
	if plen <= 0 {
		plen = 8
	}
	window := cfg.QuotaWindow
	if window <= 0 {
		window = time.Second
	}
	return &admissionGate{
		clock:    clock,
		rate:     cfg.UpcallRate,
		burst:    burst,
		quota:    cfg.PrefixQuota,
		plen:     plen,
		window:   window,
		tokens:   burst,
		prefixes: make(map[string]*prefixWindow),
	}
}

// prefix reduces a source address to its quota key.
func (g *admissionGate) prefix(src principal.Address) string {
	s := string(src)
	if len(s) > g.plen {
		s = s[:g.plen]
	}
	return s
}

// Admit decides whether a keying attempt for src may proceed,
// returning nil or the shed error. The per-prefix quota is checked
// before the bucket so an over-quota prefix cannot drain tokens that
// first-contact traffic from other prefixes needs.
func (g *admissionGate) Admit(src principal.Address) error {
	now := g.clock.Now()
	g.mu.Lock()
	if g.quota > 0 {
		p := g.prefix(src)
		w := g.prefixes[p]
		// A window is stale when its start is at least one window in the
		// past — or in the future, which happens when the clock steps
		// backwards. Without the clamp a future start yields a negative
		// elapsed that never expires, pinning the window (and its count)
		// until the clock catches back up.
		if w == nil || now.Sub(w.start) >= g.window || now.Before(w.start) {
			if w == nil {
				if len(g.prefixes) >= prefixQuotaCap {
					g.evictStalest()
				}
				w = &prefixWindow{}
				g.prefixes[p] = w
			}
			w.start = now
			w.count = 0
		}
		if w.count >= g.quota {
			g.mu.Unlock()
			g.shedQuota.Add(1)
			return ErrPeerQuota
		}
		w.count++
	}
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

// evictStalest removes the prefix window with the oldest start, so an
// attacker cycling through fresh prefixes ages out idle windows instead
// of flushing the ones tracking active offenders (an arbitrary map
// delete let exactly that happen). Caller holds mu.
func (g *admissionGate) evictStalest() {
	var stalest string
	var oldest time.Time
	first := true
	for k, w := range g.prefixes {
		if first || w.start.Before(oldest) {
			stalest, oldest, first = k, w.start, false
		}
	}
	if !first {
		delete(g.prefixes, stalest)
	}
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
	g.mu.Lock()
	active := len(g.prefixes)
	g.mu.Unlock()
	return AdmissionStats{
		Admitted:       g.admitted.Load(),
		ShedOverload:   g.shedOverload.Load(),
		ShedQuota:      g.shedQuota.Load(),
		Depth:          g.depth.Load(),
		ActivePrefixes: active,
	}
}
