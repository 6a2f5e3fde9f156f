// Package transport provides the underlying insecure datagram service
// that FBS runs on top of.
//
// The protocol description (Section 5.2) abstracts the transport into two
// functions, Send() and Receive(); this package defines that abstraction
// and two implementations: an in-memory network with a seeded
// per-direction fault model (burst loss, duplication, corruption, delay
// and jitter, reordering) for simulations and tests, and a UDP-backed
// transport for running FBS between real processes.
package transport

import (
	"errors"

	"fbs/internal/principal"
)

// TraceID identifies one sampled datagram's end-to-end trace. Zero
// means "not traced" — the universal fast-path value that every layer
// checks with a single compare. IDs are allocated by whatever tracer
// the sealing endpoint has attached (see core.Tracer) and ride the
// Datagram as metadata so the receiving endpoint and the in-memory
// network's fault model can attribute their spans to the same trace.
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
