package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fbs/internal/cryptolib"
	"fbs/internal/principal"
)

// Impairments is the fault model of the in-memory Network. Every
// direction between two principals draws its faults from its own RNG,
// seeded from Seed and the pair, in one fixed order: loss, duplication,
// corruption, delay and jitter, reordering. The zero value is a lossless
// link that delivers at once. Probabilities are in [0, 1].
//
// Loss is Gilbert-Elliott: the link moves between a good and a bad
// regime, entering the bad one with probability BurstEnter per datagram
// and leaving it with BurstExit, and drops with LossProb in the good
// regime and BurstLoss in the bad. With the Burst fields zero the bad
// regime is never entered and loss is independent at LossProb.
//
// NewNetwork refuses a field that another field's zero value would
// silently disable: the three Burst fields are set together or not at
// all, and so are ReorderProb and Holdback.
type Impairments struct {
	LossProb   float64
	BurstEnter float64
	BurstExit  float64
	BurstLoss  float64
	// DupProb delivers a second copy.
	DupProb float64
	// CorruptProb flips one bit, the same one in every copy.
	CorruptProb float64
	// Delay is every copy's transit time, plus a uniform draw in
	// [0, Jitter) per copy; jitter alone reorders closely spaced
	// datagrams.
	Delay  time.Duration
	Jitter time.Duration
	// ReorderProb holds a datagram back by Holdback more, so traffic
	// sent after it arrives first.
	ReorderProb float64
	Holdback    time.Duration
	// Seed makes every fault reproducible; 0 selects a fixed default.
	Seed uint64
}

// check reports the first field NewNetwork cannot honour.
func (imp Impairments) check() error {
	for _, p := range [...]float64{imp.LossProb, imp.BurstEnter, imp.BurstExit, imp.BurstLoss,
		imp.DupProb, imp.CorruptProb, imp.ReorderProb} {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("probability %v outside [0, 1]", p)
		}
	}
	if imp.Delay < 0 || imp.Jitter < 0 || imp.Holdback < 0 {
		return fmt.Errorf("negative Delay, Jitter or Holdback")
	}
	if burst := imp.BurstEnter > 0; burst != (imp.BurstExit > 0) || burst != (imp.BurstLoss > 0) {
		return fmt.Errorf("BurstEnter, BurstExit and BurstLoss are set together or not at all")
	}
	if (imp.ReorderProb > 0) != (imp.Holdback > 0) {
		return fmt.Errorf("ReorderProb and Holdback are set together or not at all")
	}
	return nil
}

// Decision is the link's verdict on one sent datagram, as Observe
// reports it.
type Decision struct {
	// Copies is how many copies are delivered: 0 when the datagram was
	// lost, 2 when it was duplicated.
	Copies int
	// Corrupt flips bit CorruptBit%8 of byte CorruptBit/8 (mod the
	// payload size) in every copy, so a corrupted datagram never yields
	// a clean duplicate.
	Corrupt    bool
	CorruptBit uint32
	// Delay is each copy's transit time: delay, jitter and holdback.
	Delay [2]time.Duration
}

// PortStats classifies every datagram copy enqueued at (or refused by)
// one attachment point, so a receiver's drop counters can be reconciled
// against what the network did.
type PortStats struct {
	// DeliveredClean counts the first uncorrupted copy of each datagram.
	DeliveredClean uint64
	// DeliveredDup counts uncorrupted copies beyond the first: exact
	// duplicates a replay cache must absorb.
	DeliveredDup uint64
	// DeliveredCorrupt counts copies carrying the link's bit flip.
	DeliveredCorrupt uint64
	// Injected counts datagrams placed by Inject.
	Injected uint64
	// Overflow counts copies refused because the queue was full.
	Overflow uint64
}

// LinkStats counts what one direction's fault model did. Lost counts
// datagrams with no copy delivered; BurstLost the subset dropped in the
// bad regime.
type LinkStats struct {
	Offered    uint64
	Lost       uint64
	BurstLost  uint64
	Duplicated uint64
	Corrupted  uint64
	Reordered  uint64
}

// Network is an in-memory datagram service connecting any number of
// principals. It is safe for concurrent use.
type Network struct {
	impair Impairments

	mu      sync.Mutex
	ports   map[principal.Address]*netPort
	links   map[[2]principal.Address]*link
	healed  bool
	noRoute uint64
	observe func(Datagram, Decision)
	pending atomic.Int64 // delayed copies not yet enqueued
}

// link is one direction's fault state.
type link struct {
	rng   *cryptolib.LCG
	bad   bool // Gilbert-Elliott regime
	stats LinkStats
}

type netPort struct {
	ch     chan Datagram
	closed chan struct{}
	once   sync.Once
	net    *Network
	addr   principal.Address
	stats  PortStats // under net.mu
}

// copyClass names the PortStats counter a delivered copy lands in.
type copyClass int

const (
	classClean copyClass = iota
	classDup
	classCorrupt
	classInjected
)

// NewNetwork creates an in-memory datagram network with the given fault
// model. It panics on an Impairments that fails the rules above.
func NewNetwork(impair Impairments) *Network {
	if err := impair.check(); err != nil {
		panic("transport: " + err.Error())
	}
	return &Network{
		impair: impair,
		ports:  make(map[principal.Address]*netPort),
		links:  make(map[[2]principal.Address]*link),
	}
}

// Attach connects a principal to the network and returns its endpoint.
// The queue holds up to queueLen datagrams (256 when queueLen ≤ 0);
// further arrivals are dropped and counted as Overflow, matching real
// datagram services. Closing the endpoint detaches the address, as a
// host crash would: copies addressed to it count as NoRoute, including
// delayed ones already in flight, and a later Attach may reuse it with
// a fresh queue and zeroed PortStats.
func (n *Network) Attach(addr principal.Address, queueLen int) (Transport, error) {
	if queueLen <= 0 {
		queueLen = 256
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.ports[addr]; dup {
		return nil, fmt.Errorf("transport: %q already attached", addr)
	}
	p := &netPort{
		ch:     make(chan Datagram, queueLen),
		closed: make(chan struct{}),
		net:    n,
		addr:   addr,
	}
	n.ports[addr] = p
	return p, nil
}

// Observe installs fn to see every sent datagram with the fault model's
// decision on it, in send order, before any copy is enqueued. fn runs
// with the network locked: it must not call the Network, and it must
// clone dg to keep it. A later call replaces fn.
func (n *Network) Observe(fn func(dg Datagram, d Decision)) {
	n.mu.Lock()
	n.observe = fn
	n.mu.Unlock()
}

// Heal turns the fault model off on every direction, present and
// future: later datagrams are delivered at once and intact. It models
// the network recovering.
func (n *Network) Heal() {
	n.mu.Lock()
	n.healed = true
	n.mu.Unlock()
}

// PortStats returns the delivery classification for addr's queue; an
// unattached address has none.
func (n *Network) PortStats(addr principal.Address) PortStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p := n.ports[addr]; p != nil {
		return p.stats
	}
	return PortStats{}
}

// Links snapshots every direction that has carried a datagram, keyed
// "src->dst".
func (n *Network) Links() map[string]LinkStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]LinkStats, len(n.links))
	for k, l := range n.links {
		out[string(k[0])+"->"+string(k[1])] = l.stats
	}
	return out
}

// NoRoute counts copies addressed to unattached principals.
func (n *Network) NoRoute() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.noRoute
}

// Pending reports delayed copies not yet enqueued.
func (n *Network) Pending() int { return int(n.pending.Load()) }

// Quiesce blocks until every delayed copy has been enqueued or the
// timeout expires; it reports whether the network drained.
func (n *Network) Quiesce(timeout time.Duration) bool {
	for deadline := time.Now().Add(timeout); n.pending.Load() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// Inject places a copy of dg in at's queue, bypassing the fault model,
// and counts it as Injected. at need not be dg.Destination: an on-path
// attacker may hand a datagram to the wrong host.
func (n *Network) Inject(at principal.Address, dg Datagram) {
	dg = dg.Clone()
	n.mu.Lock()
	n.enqueueLocked(at, dg, classInjected)
	n.mu.Unlock()
}

// enqueueLocked places dg in at's queue, counting it under class.
func (n *Network) enqueueLocked(at principal.Address, dg Datagram, class copyClass) {
	p := n.ports[at]
	if p == nil {
		n.noRoute++
		return
	}
	select {
	case p.ch <- dg:
	default:
		p.stats.Overflow++
		return
	}
	switch class {
	case classClean:
		p.stats.DeliveredClean++
	case classDup:
		p.stats.DeliveredDup++
	case classCorrupt:
		p.stats.DeliveredCorrupt++
	case classInjected:
		p.stats.Injected++
	}
}

// transmitLocked runs one datagram through its direction's fault model
// and enqueues or schedules its copies. The caller holds n.mu, so a
// batch pays one lock acquisition while each datagram still draws in
// order: batch and loop sends decide identically.
func (n *Network) transmitLocked(dg Datagram) {
	key := [2]principal.Address{dg.Source, dg.Destination}
	l := n.links[key]
	if l == nil {
		l = n.newLink(dg.Source, dg.Destination)
		n.links[key] = l
	}
	d := l.decide(&n.impair, n.healed)
	if n.observe != nil {
		n.observe(dg, d)
	}
	if d.Copies == 0 {
		return
	}
	// Both copies are cut before either is enqueued: a receiver may
	// open the first in place.
	var copies [2]Datagram
	copies[0] = dg.Clone()
	class := classClean
	if d.Corrupt {
		class = classCorrupt
		if p := copies[0].Payload; len(p) > 0 {
			p[int(d.CorruptBit/8)%len(p)] ^= 1 << (d.CorruptBit % 8)
		}
	}
	if d.Copies == 2 {
		copies[1] = copies[0].Clone()
	}
	for i, cp := range copies[:d.Copies] {
		if i > 0 && class == classClean {
			class = classDup
		}
		if d.Delay[i] <= 0 {
			n.enqueueLocked(cp.Destination, cp, class)
			continue
		}
		n.pending.Add(1)
		cl := class
		time.AfterFunc(d.Delay[i], func() {
			n.mu.Lock()
			n.enqueueLocked(cp.Destination, cp, cl)
			n.mu.Unlock()
			n.pending.Add(-1)
		})
	}
}

// newLink seeds the src→dst direction's RNG from the model's seed
// salted by the pair, so every direction draws its own reproducible
// fault sequence.
func (n *Network) newLink(src, dst principal.Address) *link {
	seed := n.impair.Seed
	if seed == 0 {
		seed = 0xC4A05FB5
	}
	salt := uint64(cryptolib.CRC32UpdateString(cryptolib.CRC32UpdateString(0xFFFFFFFF, string(src)+"\x00"), string(dst)))
	return &link{rng: cryptolib.NewLCGSeeded(seed*0x9E3779B97F4A7C15 + salt)}
}

// decide draws one datagram's fate. A probability of zero draws
// nothing, so a fault the model leaves at zero costs no RNG draw and
// moves no other fault's sequence.
func (l *link) decide(imp *Impairments, healed bool) Decision {
	l.stats.Offered++
	if healed {
		return Decision{Copies: 1}
	}
	if l.bad {
		if chance(l.rng, imp.BurstExit) {
			l.bad = false
		}
	} else if chance(l.rng, imp.BurstEnter) {
		l.bad = true
	}
	loss := imp.LossProb
	if l.bad {
		loss = imp.BurstLoss
	}
	if chance(l.rng, loss) {
		l.stats.Lost++
		if l.bad {
			l.stats.BurstLost++
		}
		return Decision{}
	}
	d := Decision{Copies: 1}
	if chance(l.rng, imp.DupProb) {
		d.Copies = 2
		l.stats.Duplicated++
	}
	if chance(l.rng, imp.CorruptProb) {
		d.Corrupt, d.CorruptBit = true, l.rng.Uint32()
		l.stats.Corrupted++
	}
	for i := range d.Copies {
		d.Delay[i] = imp.Delay
		if imp.Jitter > 0 {
			d.Delay[i] += time.Duration(l.rng.Uint64() % uint64(imp.Jitter))
		}
	}
	if chance(l.rng, imp.ReorderProb) {
		for i := range d.Copies {
			d.Delay[i] += imp.Holdback
		}
		l.stats.Reordered++
	}
	return d
}

// chance draws a Bernoulli trial; p ≤ 0 draws nothing.
func chance(rng *cryptolib.LCG, p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(rng.Uint32())/float64(1<<32) < p
}

func (p *netPort) Send(dg Datagram) error {
	select {
	case <-p.closed:
		return ErrClosed
	default:
	}
	if dg.Source == "" {
		dg.Source = p.addr
	}
	n := p.net
	n.mu.Lock()
	n.transmitLocked(dg)
	n.mu.Unlock()
	return nil
}

// SendBatch transmits the whole batch under one network-lock
// acquisition, defaulting Source on its own copies: the caller's slice
// is not written.
func (p *netPort) SendBatch(dgs []Datagram) (int, error) {
	select {
	case <-p.closed:
		return 0, ErrClosed
	default:
	}
	n := p.net
	n.mu.Lock()
	for _, dg := range dgs {
		if dg.Source == "" {
			dg.Source = p.addr
		}
		n.transmitLocked(dg)
	}
	n.mu.Unlock()
	return len(dgs), nil
}

func (p *netPort) Receive() (Datagram, error) {
	select {
	case dg := <-p.ch:
		return dg, nil
	case <-p.closed:
		// Drain anything that raced with Close.
		select {
		case dg := <-p.ch:
			return dg, nil
		default:
			return Datagram{}, ErrClosed
		}
	}
}

// ReceiveBatch blocks for the first datagram, then drains whatever else
// is already queued, up to len(buf).
func (p *netPort) ReceiveBatch(buf []Datagram) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	dg, err := p.Receive()
	if err != nil {
		return 0, err
	}
	buf[0] = dg
	n := 1
	for n < len(buf) {
		select {
		case dg := <-p.ch:
			buf[n] = dg
			n++
		default:
			return n, nil
		}
	}
	return n, nil
}

// Close detaches the port from the network (see Attach).
func (p *netPort) Close() error {
	p.once.Do(func() {
		close(p.closed)
		p.net.mu.Lock()
		if p.net.ports[p.addr] == p {
			delete(p.net.ports, p.addr)
		}
		p.net.mu.Unlock()
	})
	return nil
}

// Pair is a convenience constructor: a loss-free network with two
// attached principals, as used throughout the tests and examples.
func Pair(a, b principal.Address) (Transport, Transport, *Network, error) {
	n := NewNetwork(Impairments{})
	ta, err := n.Attach(a, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	tb, err := n.Attach(b, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	return ta, tb, n, nil
}
