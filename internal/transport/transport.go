// Package transport provides the underlying insecure datagram service
// that FBS runs on top of.
//
// The protocol description (Section 5.2) abstracts the transport into two
// functions, Send() and Receive(); this package defines that abstraction
// and two implementations: an in-memory network with configurable
// impairments (loss, duplication, reordering, corruption, delay) for
// simulations and tests, and a UDP-backed transport for running FBS
// between real processes.
package transport

import (
	"errors"
	"fmt"
	"sync"

	"fbs/internal/cryptolib"
	"fbs/internal/principal"
)

// TraceID identifies one sampled datagram's end-to-end trace. Zero
// means "not traced" — the universal fast-path value that every layer
// checks with a single compare. IDs are allocated by whatever tracer
// the sealing endpoint has attached (see core.Tracer) and ride the
// Datagram as metadata so the receiving endpoint, the in-memory
// networks, and the chaos link models can attribute their spans to the
// same trace.
type TraceID uint64

// Datagram is a self-contained message between two principals. FBS treats
// the payload as opaque; in the IP mapping the payload is the IP payload
// with the FBS header prepended.
type Datagram struct {
	Source      principal.Address
	Destination principal.Address
	Payload     []byte

	// Trace carries the sampled-trace ID across in-memory transports.
	// It is metadata, not wire bytes: the serialized formats (golden
	// vectors, the UDP transport) are unchanged, so traces span both
	// endpoints only on transports that preserve the Datagram struct.
	Trace TraceID
}

// Clone deep-copies the datagram so impairments and queueing cannot alias
// caller buffers. Metadata (including the trace ID) is preserved.
func (d Datagram) Clone() Datagram {
	p := make([]byte, len(d.Payload))
	copy(p, d.Payload)
	d.Payload = p
	return d
}

// ErrClosed is returned by Receive and Send once the transport endpoint
// has been closed.
var ErrClosed = errors.New("transport: closed")

// Transport is one principal's attachment to a datagram service.
type Transport interface {
	// Send transmits the datagram. Delivery is best-effort: the datagram
	// may be lost, duplicated, reordered or corrupted in transit. Send
	// may keep dg.Payload past its return (a queue flushed later), so a
	// caller that does not know its transport hands it a buffer it will
	// not reuse. The in-memory network and the UDP transport copy the
	// payload before returning; a caller that owns one of them, as the
	// gateway owns its listeners, may reuse the buffer.
	Send(dg Datagram) error
	// Receive blocks until a datagram arrives or the endpoint is closed.
	Receive() (Datagram, error)
	// Close detaches the endpoint. Pending and future Receives return
	// ErrClosed.
	Close() error
}

// Impairments configures the fault model of the in-memory Network. All
// probabilities are in [0, 1].
type Impairments struct {
	LossProb    float64 // drop the datagram
	DupProb     float64 // deliver the datagram twice
	ReorderProb float64 // hold the datagram back one slot
	CorruptProb float64 // flip one random payload bit
	Seed        uint64  // RNG seed; 0 means a fixed default
}

// Network is an in-memory datagram service connecting any number of
// principals. It is safe for concurrent use.
type Network struct {
	impair Impairments

	mu       sync.Mutex
	rng      *cryptolib.LCG
	ports    map[principal.Address]*netPort
	heldBack *Datagram // reorder holdback slot
	stats    NetworkStats
}

// NetworkStats counts what the fault model did.
type NetworkStats struct {
	Sent       uint64
	Delivered  uint64
	Lost       uint64
	Duplicated uint64
	Reordered  uint64
	Corrupted  uint64
	NoRoute    uint64
	Overflow   uint64
}

type netPort struct {
	ch     chan Datagram
	closed chan struct{}
	once   sync.Once
	net    *Network
	addr   principal.Address
}

// NewNetwork creates an in-memory datagram network with the given fault
// model.
func NewNetwork(impair Impairments) *Network {
	seed := impair.Seed
	if seed == 0 {
		seed = 0xFB5FB5FB5
	}
	return &Network{
		impair: impair,
		rng:    cryptolib.NewLCGSeeded(seed),
		ports:  make(map[principal.Address]*netPort),
	}
}

// Attach connects a principal to the network and returns its endpoint.
// The queue holds up to queueLen datagrams; further arrivals are dropped
// (counted as Overflow), matching real datagram services.
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

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() NetworkStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// chance draws a Bernoulli trial with the RNG held under n.mu.
func (n *Network) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(n.rng.Uint32())/float64(1<<32) < p
}

// inject applies the fault model and enqueues the datagram at its
// destination. Callers must not hold n.mu.
func (n *Network) inject(dg Datagram) {
	n.mu.Lock()
	n.injectLocked(dg)
	n.mu.Unlock()
}

// injectLocked is inject's body with n.mu already held, so a batched
// send pays one lock acquisition for the whole batch (see
// netPort.SendBatch) while the fault model still draws per datagram in
// order — batch and loop sends produce identical delivery sequences.
func (n *Network) injectLocked(dg Datagram) {
	n.stats.Sent++
	if n.chance(n.impair.LossProb) {
		n.stats.Lost++
		return
	}
	dg = dg.Clone()
	if n.chance(n.impair.CorruptProb) && len(dg.Payload) > 0 {
		bit := n.rng.Uint32()
		dg.Payload[int(bit)%len(dg.Payload)] ^= 1 << (bit >> 29)
		n.stats.Corrupted++
	}
	toDeliver := make([]Datagram, 0, 3)
	if n.chance(n.impair.ReorderProb) {
		// Hold this one back; release any previously held datagram
		// after it next time around.
		if n.heldBack != nil {
			toDeliver = append(toDeliver, *n.heldBack)
		}
		held := dg
		n.heldBack = &held
		n.stats.Reordered++
	} else {
		toDeliver = append(toDeliver, dg)
		if n.heldBack != nil {
			toDeliver = append(toDeliver, *n.heldBack)
			n.heldBack = nil
		}
	}
	if n.chance(n.impair.DupProb) && len(toDeliver) > 0 {
		toDeliver = append(toDeliver, toDeliver[0].Clone())
		n.stats.Duplicated++
	}
	for _, d := range toDeliver {
		port, ok := n.ports[d.Destination]
		if !ok {
			n.stats.NoRoute++
			continue
		}
		select {
		case port.ch <- d:
			n.stats.Delivered++
		default:
			n.stats.Overflow++
		}
	}
}

// Flush delivers any datagram sitting in the reorder holdback slot.
func (n *Network) Flush() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.heldBack == nil {
		return
	}
	d := *n.heldBack
	n.heldBack = nil
	if port, ok := n.ports[d.Destination]; ok {
		select {
		case port.ch <- d:
			n.stats.Delivered++
		default:
			n.stats.Overflow++
		}
	}
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
	p.net.inject(dg)
	return nil
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

func (p *netPort) Close() error {
	p.once.Do(func() {
		close(p.closed)
		p.net.mu.Lock()
		delete(p.net.ports, p.addr)
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
