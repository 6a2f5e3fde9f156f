package netsim

import (
	"encoding/binary"
	"sync"
	"time"

	"fbs/internal/core"
	"fbs/internal/cryptolib"
	"fbs/internal/transport"
)

// This file is the chaos harness's adversary: it watches every datagram
// the network carries through the network's decision hook, keeps clean
// copies to mutate, and places forgeries straight into a victim's
// queue. The same hook turns the link's decision on a traced datagram
// into the "what the network did" span between the sender's and the
// receiver's endpoint spans (transport cannot import core).

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
	// receivers reject it by policy unless they are themselves the NOP
	// configuration; AEAD receivers
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
	net    *transport.Network
	rng    *cryptolib.LCG
	tracer core.Tracer

	mu       sync.Mutex
	samples  []transport.Datagram // clean sent datagrams, wire format
	injected [NumInjectKinds]uint64
}

// NewAdversary attaches an adversary to the network, taking over its
// decision hook. tr, when not nil, receives a SpanLink for every fault
// the link inflicts on a traced datagram (dg.Trace != 0) and for every
// injection derived from one.
func NewAdversary(n *transport.Network, seed uint64, tr core.Tracer) *Adversary {
	if seed == 0 {
		seed = 0xADBADBAD
	}
	a := &Adversary{net: n, rng: cryptolib.NewLCGSeeded(seed), tracer: tr}
	n.Observe(a.observe)
	return a
}

// observe is the network's decision hook: it keeps up to 64 clean
// datagrams to mutate and traces what the link did to a sampled one,
// one span per delivered copy (Dur is the modelled transit time;
// corruption reports the flipped bit index in Attr).
func (a *Adversary) observe(dg transport.Datagram, d transport.Decision) {
	if d.Copies > 0 && !d.Corrupt {
		a.mu.Lock()
		if len(a.samples) < 64 {
			a.samples = append(a.samples, dg.Clone())
		}
		a.mu.Unlock()
	}
	if a.tracer == nil || dg.Trace == 0 {
		return
	}
	start := time.Now()
	if d.Copies == 0 {
		a.tracer.Span(core.Span{Trace: dg.Trace, Kind: core.SpanLink, Flags: core.FlagLinkLost, Start: start})
	}
	for i := range d.Copies {
		sp := core.Span{Trace: dg.Trace, Kind: core.SpanLink, Start: start, Dur: d.Delay[i]}
		if d.Corrupt {
			sp.Flags |= core.FlagLinkCorrupt
			sp.Attr = uint64(d.CorruptBit)
		}
		if i > 0 {
			sp.Flags |= core.FlagLinkDup
		}
		a.tracer.Span(sp)
	}
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
	a.mu.Lock()
	if len(a.samples) == 0 {
		a.mu.Unlock()
		return false
	}
	dg := a.samples[int(a.rng.Uint32())%len(a.samples)].Clone()
	r := a.rng.Uint32()
	a.mu.Unlock()
	if len(dg.Payload) < core.HeaderSize {
		return false
	}
	victim := dg.Destination
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
		// Handed to the victim, addressed to someone else.
		dg.Destination = "chaos-nobody"
	}
	a.traceInjection(dg, kind)
	a.net.Inject(victim, dg)
	a.count(kind)
	return true
}

// traceInjection emits the injection's SpanLink. The mutant is a clone
// of a captured sample, so it inherits the original's trace ID — the
// sampled datagram's trace then shows both its legitimate delivery and
// the adversary's forgery derived from it, down to the receiver's drop
// verdict for each.
func (a *Adversary) traceInjection(dg transport.Datagram, kind InjectKind) {
	if a.tracer != nil && dg.Trace != 0 {
		a.tracer.Span(core.Span{Trace: dg.Trace, Kind: core.SpanLink,
			Flags: core.FlagLinkInjected, Start: time.Now(), Attr: uint64(kind)})
	}
}

func (a *Adversary) count(kind InjectKind) {
	a.mu.Lock()
	a.injected[kind]++
	a.mu.Unlock()
}
