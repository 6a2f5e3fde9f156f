package netsim

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fbs/internal/core"
	"fbs/internal/cryptolib"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// ChaosNetwork is a transport.Transport provider that routes every
// datagram through a per-direction Link instantiated from one
// LinkModel. Unlike the discrete-event Sim, it runs in real time (the
// endpoints on top are real, with blocking receive loops), but every
// fault decision comes from the seeded LinkModel and every delivered
// copy is classified — clean-first, exact duplicate, corrupted, or
// adversary-injected — so the chaos harness can reconcile endpoint drop
// counters against induced faults exactly.
type ChaosNetwork struct {
	model LinkModel
	start time.Time

	// tracer, when set, receives a SpanLink for every fault the link
	// model inflicts on a traced datagram (dg.Trace != 0) and for every
	// adversary injection derived from one — the "what the network did"
	// segment between the sender's and receiver's endpoint spans. Set
	// it before traffic starts; it is read without synchronisation.
	tracer core.Tracer

	mu      sync.Mutex
	links   map[linkKey]*Link
	ports   map[principal.Address]*chaosPort
	samples []transport.Datagram // clean delivered copies for the adversary
	pending atomic.Int64         // scheduled deliveries not yet enqueued
	noRoute atomic.Uint64
}

type linkKey struct{ src, dst principal.Address }

// PortStats classifies every datagram copy enqueued at (or refused by)
// one attachment point. The receiver-side reconciliation invariants are
// written against these counters.
type PortStats struct {
	// DeliveredClean counts the first uncorrupted copy of each datagram.
	DeliveredClean uint64
	// DeliveredDup counts uncorrupted copies beyond the first — exact
	// duplicates a replay cache must absorb.
	DeliveredDup uint64
	// DeliveredCorrupt counts copies carrying the link's bit flip.
	DeliveredCorrupt uint64
	// Injected counts adversary datagrams placed directly in the queue.
	Injected uint64
	// Overflow counts copies refused because the queue was full.
	Overflow uint64
}

type chaosPort struct {
	net    *ChaosNetwork
	addr   principal.Address
	ch     chan transport.Datagram
	closed chan struct{}
	once   sync.Once

	deliveredClean   atomic.Uint64
	deliveredDup     atomic.Uint64
	deliveredCorrupt atomic.Uint64
	injected         atomic.Uint64
	overflow         atomic.Uint64
}

// NewChaosNetwork creates a network whose every direction degrades
// according to model.
func NewChaosNetwork(model LinkModel) *ChaosNetwork {
	return &ChaosNetwork{
		model: model,
		start: time.Now(),
		links: make(map[linkKey]*Link),
		ports: make(map[principal.Address]*chaosPort),
	}
}

// SetTracer attaches a tracer for link-fault spans. Call before any
// traffic flows; the field is read unsynchronised on the send path.
func (n *ChaosNetwork) SetTracer(tr core.Tracer) { n.tracer = tr }

// Attach connects a principal; queueLen ≤ 0 selects 4096 (big enough
// that the chaos matrix can assert Overflow == 0 and keep accounting
// exact).
func (n *ChaosNetwork) Attach(addr principal.Address, queueLen int) (transport.Transport, error) {
	if queueLen <= 0 {
		queueLen = 4096
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.ports[addr]; dup {
		return nil, fmt.Errorf("netsim: %q already attached", addr)
	}
	p := &chaosPort{
		net:    n,
		addr:   addr,
		ch:     make(chan transport.Datagram, queueLen),
		closed: make(chan struct{}),
	}
	n.ports[addr] = p
	return p, nil
}

// Detach removes addr's attachment and closes its transport, modelling
// a host crash: datagrams addressed to addr while detached (including
// deliveries already scheduled) count as NoRoute, and whatever sat
// undrained in its queue is gone. A later Attach may reuse the address
// with a fresh queue and zeroed port counters — the crash-restart
// harness does exactly that.
func (n *ChaosNetwork) Detach(addr principal.Address) {
	n.mu.Lock()
	p := n.ports[addr]
	delete(n.ports, addr)
	n.mu.Unlock()
	if p != nil {
		p.Close()
	}
}

// link returns (creating on first use) the direction's Link, salted by
// the endpoint pair so each direction draws an independent seeded
// fault sequence.
func (n *ChaosNetwork) link(src, dst principal.Address) *Link {
	n.mu.Lock()
	defer n.mu.Unlock()
	k := linkKey{src, dst}
	l, ok := n.links[k]
	if !ok {
		salt := uint64(cryptolib.CRC32UpdateString(cryptolib.CRC32UpdateString(0xFFFFFFFF, string(src)+"\x00"), string(dst)))
		l = n.model.Instantiate(salt)
		n.links[k] = l
	}
	return l
}

// Links snapshots every instantiated direction's stats, keyed
// "src->dst".
func (n *ChaosNetwork) Links() map[string]LinkStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]LinkStats, len(n.links))
	for k, l := range n.links {
		out[string(k.src)+"->"+string(k.dst)] = l.Stats()
	}
	return out
}

// Heal turns off impairments on every direction (existing and future
// links created after the call start healed too).
func (n *ChaosNetwork) Heal() {
	n.mu.Lock()
	for _, l := range n.links {
		l.Heal()
	}
	// Future directions instantiate from a stage-free model.
	n.model.Stages = nil
	n.mu.Unlock()
}

// PortStats returns the delivery classification for addr's queue.
func (n *ChaosNetwork) PortStats(addr principal.Address) PortStats {
	n.mu.Lock()
	p := n.ports[addr]
	n.mu.Unlock()
	if p == nil {
		return PortStats{}
	}
	return PortStats{
		DeliveredClean:   p.deliveredClean.Load(),
		DeliveredDup:     p.deliveredDup.Load(),
		DeliveredCorrupt: p.deliveredCorrupt.Load(),
		Injected:         p.injected.Load(),
		Overflow:         p.overflow.Load(),
	}
}

// NoRoute counts datagrams addressed to unattached principals.
func (n *ChaosNetwork) NoRoute() uint64 { return n.noRoute.Load() }

// Pending reports scheduled deliveries that have not yet been enqueued.
func (n *ChaosNetwork) Pending() int { return int(n.pending.Load()) }

// Quiesce blocks until every scheduled delivery has been enqueued or
// the timeout expires; it reports whether the network drained.
func (n *ChaosNetwork) Quiesce(timeout time.Duration) bool {
	return poll(timeout, func() bool { return n.pending.Load() <= 0 })
}

// takeSample stores a clean delivered copy for the adversary (bounded).
func (n *ChaosNetwork) takeSample(dg transport.Datagram) {
	n.mu.Lock()
	if len(n.samples) < 64 {
		n.samples = append(n.samples, dg.Clone())
	}
	n.mu.Unlock()
}

// Samples returns the captured clean datagrams (wire-format, sealed).
func (n *ChaosNetwork) Samples() []transport.Datagram {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]transport.Datagram(nil), n.samples...)
}

// enqueue places a copy in the destination queue, classifying it.
type copyClass int

const (
	classClean copyClass = iota
	classDup
	classCorrupt
	classInjected
)

func (n *ChaosNetwork) enqueue(dg transport.Datagram, class copyClass) {
	n.mu.Lock()
	p := n.ports[dg.Destination]
	n.mu.Unlock()
	if p == nil {
		n.noRoute.Add(1)
		return
	}
	select {
	case p.ch <- dg:
		switch class {
		case classClean:
			p.deliveredClean.Add(1)
		case classDup:
			p.deliveredDup.Add(1)
		case classCorrupt:
			p.deliveredCorrupt.Add(1)
		case classInjected:
			p.injected.Add(1)
		}
	default:
		p.overflow.Add(1)
	}
}

// Inject places an adversary datagram directly in the destination
// queue, bypassing the link model, and counts it separately so the
// reconciliation can attribute its rejection exactly.
func (n *ChaosNetwork) Inject(dg transport.Datagram) {
	n.enqueue(dg.Clone(), classInjected)
}

func (p *chaosPort) Send(dg transport.Datagram) error {
	select {
	case <-p.closed:
		return transport.ErrClosed
	default:
	}
	if dg.Source == "" {
		dg.Source = p.addr
	}
	n := p.net
	now := time.Since(n.start)
	d := n.link(dg.Source, dg.Destination).Transmit(now)
	if d.Lost() {
		if tr := n.tracer; tr != nil && dg.Trace != 0 {
			tr.Span(core.Span{Trace: dg.Trace, Kind: core.SpanLink,
				Flags: core.FlagLinkLost, Start: time.Now()})
		}
		return nil
	}
	if tr := n.tracer; tr != nil && dg.Trace != 0 {
		// One span per delivered copy: Dur is the modelled transit
		// delay; corruption reports the flipped bit index in Attr.
		start := time.Now()
		for i, f := range d.Fates {
			sp := core.Span{Trace: dg.Trace, Kind: core.SpanLink,
				Start: start, Dur: f.At - now}
			if d.Corrupt {
				sp.Flags |= core.FlagLinkCorrupt
				sp.Attr = uint64(d.CorruptBit)
			}
			if i > 0 {
				sp.Flags |= core.FlagLinkDup
			}
			tr.Span(sp)
		}
	}
	wire := dg.Clone()
	if d.Corrupt && len(wire.Payload) > 0 {
		byteIdx := int(d.CorruptBit/8) % len(wire.Payload)
		wire.Payload[byteIdx] ^= 1 << (d.CorruptBit % 8)
	} else {
		n.takeSample(wire)
	}
	for i, f := range d.Fates {
		class := classClean
		if d.Corrupt {
			class = classCorrupt
		} else if i > 0 {
			class = classDup
		}
		delay := f.At - now
		if delay <= 0 {
			n.enqueue(wire.Clone(), class)
			continue
		}
		n.pending.Add(1)
		cp, cl := wire.Clone(), class
		time.AfterFunc(delay, func() {
			n.enqueue(cp, cl)
			n.pending.Add(-1)
		})
	}
	return nil
}

func (p *chaosPort) Receive() (transport.Datagram, error) {
	select {
	case dg := <-p.ch:
		return dg, nil
	case <-p.closed:
		select {
		case dg := <-p.ch:
			return dg, nil
		default:
			return transport.Datagram{}, transport.ErrClosed
		}
	}
}

func (p *chaosPort) Close() error {
	p.once.Do(func() { close(p.closed) })
	return nil
}

// InjectKind names one adversary mutation. Each kind is crafted to land
// in exactly one DropReason bucket at the receiver, which is what makes
// per-bucket reconciliation exact (see the mapping on each constant).
type InjectKind int

const (
	// InjectReplay re-delivers a previously delivered datagram verbatim
	// → DropReplay (requires the receiver's replay cache).
	InjectReplay InjectKind = iota
	// InjectTruncate cuts the datagram below HeaderSize → DropMalformed.
	InjectTruncate
	// InjectBitflip flips one bit in the body (past the header) →
	// DropBadMAC (MAC or padding failure; never a header-field drop).
	InjectBitflip
	// InjectForgeMAC rewrites the confounder and zeroes the MAC value —
	// a forged-tag datagram with a plausible header → DropBadMAC.
	InjectForgeMAC
	// InjectStale rewrites the timestamp to the 1996 epoch →
	// DropStale (freshness is checked before the MAC).
	InjectStale
	// InjectBadAlg rewrites the MAC algorithm id to MACNull. Legacy
	// receivers are configured to reject it by policy; AEAD receivers
	// reject it structurally (an AEAD cipher nibble admits only the
	// intrinsic MAC id) → DropAlgorithm either way.
	InjectBadAlg
	// InjectBadCipher rewrites the cipher id to one with no registered
	// suite, drawn from the full complement of the suite registry →
	// DropAlgorithm ("no such algorithm" is decided before any key or
	// cipher work).
	InjectBadCipher
	// InjectMisroute delivers a datagram whose Destination names
	// another principal → DropNotForUs.
	InjectMisroute
	// InjectNoCipher downgrades an encrypted datagram to cipher "none"
	// (legacy prefix-MD5 framing). The suite is registered and the
	// header structurally valid, but "none" cannot decrypt →
	// DropDecrypt.
	InjectNoCipher
	// InjectSuiteSwap rewrites the header to a different *registered*
	// suite with structurally valid MAC/mode bytes — the classic
	// cross-suite substitution attack. The algorithm prefix is
	// authenticated (legacy: MACed; AEAD: bound as AAD), so the swap
	// must fail authentication → DropBadMAC.
	InjectSuiteSwap

	// NumInjectKinds sizes per-kind arrays.
	NumInjectKinds = int(iota)
)

// String names the kind.
func (k InjectKind) String() string {
	switch k {
	case InjectReplay:
		return "replay"
	case InjectTruncate:
		return "truncate"
	case InjectBitflip:
		return "bitflip"
	case InjectForgeMAC:
		return "forge_mac"
	case InjectStale:
		return "stale"
	case InjectBadAlg:
		return "bad_alg"
	case InjectBadCipher:
		return "bad_cipher"
	case InjectMisroute:
		return "misroute"
	case InjectNoCipher:
		return "no_cipher"
	case InjectSuiteSwap:
		return "suite_swap"
	}
	return "unknown"
}

// DropReason returns the DropReason bucket the kind must land in.
func (k InjectKind) DropReason() core.DropReason {
	switch k {
	case InjectReplay:
		return core.DropReplay
	case InjectTruncate:
		return core.DropMalformed
	case InjectBitflip, InjectForgeMAC, InjectSuiteSwap:
		return core.DropBadMAC
	case InjectStale:
		return core.DropStale
	case InjectBadAlg, InjectBadCipher:
		return core.DropAlgorithm
	case InjectNoCipher:
		return core.DropDecrypt
	case InjectMisroute:
		return core.DropNotForUs
	}
	return core.DropNone
}

// Adversary forges and replays datagrams mid-stream, mutating captured
// wire traffic. Every injection is deterministic given the seed and the
// captured sample set.
type Adversary struct {
	net *ChaosNetwork
	rng *cryptolib.LCG

	mu       sync.Mutex
	injected [NumInjectKinds]uint64
}

// NewAdversary attaches an adversary to the network.
func NewAdversary(n *ChaosNetwork, seed uint64) *Adversary {
	if seed == 0 {
		seed = 0xADBADBAD
	}
	return &Adversary{net: n, rng: cryptolib.NewLCGSeeded(seed)}
}

// Injected reports how many datagrams of each kind were injected.
func (a *Adversary) Injected() [NumInjectKinds]uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.injected
}

// header byte offsets used by the mutations (see core.Header.Encode).
const (
	offMACAlg     = 2
	offCipherMode = 3
	offConfounder = 12
	offTimestamp  = 16
	offMACValue   = 20
)

// unregisteredCiphers is InjectBadCipher's draw pool: every cipher
// nibble with no registered suite, computed once (the registry is
// frozen after package init).
var unregisteredCiphers = func() []core.CipherID {
	var out []core.CipherID
	for id := core.CipherID(0); id <= 0x0F; id++ {
		if core.SuiteByID(id) == nil {
			out = append(out, id)
		}
	}
	return out
}()

// Inject crafts one datagram of the given kind from a captured sample
// and places it in the victim's queue. It reports false when no
// suitable sample has been captured yet (e.g. the stream has not
// produced a clean delivery to mutate).
func (a *Adversary) Inject(kind InjectKind) bool {
	samples := a.net.Samples()
	if len(samples) == 0 {
		return false
	}
	a.mu.Lock()
	dg := samples[int(a.rng.Uint32())%len(samples)].Clone()
	r := a.rng.Uint32()
	a.mu.Unlock()
	if len(dg.Payload) < core.HeaderSize {
		return false
	}
	switch kind {
	case InjectReplay:
		// Verbatim.
	case InjectTruncate:
		dg.Payload = dg.Payload[:core.HeaderSize-1]
	case InjectBitflip:
		body := len(dg.Payload) - core.HeaderSize
		if body <= 0 {
			return false
		}
		bit := r
		dg.Payload[core.HeaderSize+int(bit/8)%body] ^= 1 << (bit % 8)
	case InjectForgeMAC:
		binary.BigEndian.PutUint32(dg.Payload[offConfounder:], r)
		for i := 0; i < core.MACLen; i++ {
			dg.Payload[offMACValue+i] = 0
		}
	case InjectStale:
		binary.BigEndian.PutUint32(dg.Payload[offTimestamp:], 0)
	case InjectBadAlg:
		dg.Payload[offMACAlg] = byte(cryptolib.MACNull)
	case InjectBadCipher:
		bad := unregisteredCiphers[int(r)%len(unregisteredCiphers)]
		dg.Payload[offCipherMode] = byte(bad)<<4 | (dg.Payload[offCipherMode] & 0x0F)
	case InjectNoCipher:
		if dg.Payload[1]&core.FlagSecret == 0 {
			return false // only a downgrade when there is ciphertext
		}
		dg.Payload[offMACAlg] = byte(cryptolib.MACPrefixMD5)
		dg.Payload[offCipherMode] &= 0x0F // cipher → none, mode preserved
	case InjectSuiteSwap:
		cur := core.CipherID(dg.Payload[offCipherMode] >> 4)
		secret := dg.Payload[1]&core.FlagSecret != 0
		body := len(dg.Payload) - core.HeaderSize
		var targets []core.Suite
		for _, s := range core.Suites() {
			if s.ID() == cur || s.ID() == core.CipherNone {
				continue
			}
			// Legacy suites decrypt in 8-byte blocks; a ragged AEAD
			// ciphertext swapped onto one would fail in the cipher, not
			// the authenticator. Keep such swaps inside the AEAD family
			// so the failure is always DropBadMAC.
			if secret && body%cryptolib.BlockSize != 0 && !s.AEAD() {
				continue
			}
			targets = append(targets, s)
		}
		if len(targets) == 0 {
			return false
		}
		tgt := targets[int(r)%len(targets)]
		if tgt.AEAD() {
			dg.Payload[offMACAlg] = byte(cryptolib.MACAEAD)
			dg.Payload[offCipherMode] = byte(tgt.ID()) << 4
		} else {
			dg.Payload[offMACAlg] = byte(cryptolib.MACPrefixMD5)
			dg.Payload[offCipherMode] = byte(tgt.ID())<<4 | byte(cryptolib.CBC)
		}
	case InjectMisroute:
		victim := dg.Destination
		dg.Destination = "chaos-nobody"
		a.traceInjection(dg, kind)
		a.net.enqueueMisrouted(victim, dg)
		a.count(kind)
		return true
	}
	a.traceInjection(dg, kind)
	a.net.Inject(dg)
	a.count(kind)
	return true
}

// traceInjection emits the injection's SpanLink. The mutant is a clone
// of a captured sample, so it inherits the original's trace ID — the
// sampled datagram's trace then shows both its legitimate delivery and
// the adversary's forgery derived from it, down to the receiver's drop
// verdict for each.
func (a *Adversary) traceInjection(dg transport.Datagram, kind InjectKind) {
	if tr := a.net.tracer; tr != nil && dg.Trace != 0 {
		tr.Span(core.Span{Trace: dg.Trace, Kind: core.SpanLink,
			Flags: core.FlagLinkInjected, Start: time.Now(), Attr: uint64(kind)})
	}
}

func (a *Adversary) count(kind InjectKind) {
	a.mu.Lock()
	a.injected[kind]++
	a.mu.Unlock()
}

// enqueueMisrouted delivers dg into at's queue even though
// dg.Destination names someone else — the on-path attacker handing a
// datagram to the wrong host.
func (n *ChaosNetwork) enqueueMisrouted(at principal.Address, dg transport.Datagram) {
	n.mu.Lock()
	p := n.ports[at]
	n.mu.Unlock()
	if p == nil {
		n.noRoute.Add(1)
		return
	}
	select {
	case p.ch <- dg:
		p.injected.Add(1)
	default:
		p.overflow.Add(1)
	}
}
