// Package baseline implements the datagram-security schemes the paper
// positions FBS against (Sections 2 and 7.4), so the benchmark harness
// can reproduce the comparisons:
//
//   - Generic — no security at all ("GENERIC" in Figure 8).
//   - HostPair — host-pair keying: the implicit Diffie-Hellman master key
//     directly protects all traffic between two hosts (Section 2.2). It
//     is deliberately vulnerable to the cut-and-paste attack; the tests
//     demonstrate the attack succeeding here and failing against FBS.
//   - SKIP — host-pair keying with per-datagram keys, SKIP-style
//     (Sections 2.2 and 7.4): each datagram carries its own key wrapped
//     under the master key. Cryptographically random per-datagram keys
//     come from the Blum-Blum-Shub generator, whose cost is exactly the
//     bottleneck the paper ascribes to this design.
//   - Session — Photuris/Oakley-style session keying (Section 2.1): an
//     explicit key-exchange handshake per peer pair and hard state on
//     both sides.
//
// Every scheme implements the same Sealer interface as a thin wrapper, so
// the benchmark and simulation harnesses treat them uniformly.
package baseline

import (
	"fbs/internal/transport"
)

// Sealer is the minimal datagram-protection interface shared by FBS and
// every baseline: transform an outgoing datagram, and invert/verify an
// incoming one.
type Sealer interface {
	// Name identifies the scheme in benchmark output.
	Name() string
	// Seal protects an outgoing datagram.
	Seal(dg transport.Datagram, secret bool) (transport.Datagram, error)
	// Open verifies (and decrypts) an incoming datagram.
	Open(dg transport.Datagram) (transport.Datagram, error)
}

// Stats common to the baselines.
type Stats struct {
	// SetupMessages counts extra protocol messages beyond the data
	// datagrams themselves (key exchanges). FBS's defining property is
	// that this stays zero.
	SetupMessages uint64
	// KeyGenerations counts fresh key materialisations (per datagram,
	// per session, or per conversation depending on the scheme).
	KeyGenerations uint64
	// HardStateEntries is the current number of session-state entries
	// that must not be lost for the protocol to keep working.
	HardStateEntries int
}

// Generic is the null scheme: datagrams pass through untouched. It is
// the "GENERIC" bar of Figure 8.
type Generic struct{}

// Name implements Sealer.
func (Generic) Name() string { return "GENERIC" }

// Seal implements Sealer as the identity.
func (Generic) Seal(dg transport.Datagram, secret bool) (transport.Datagram, error) {
	return dg, nil
}

// Open implements Sealer as the identity.
func (Generic) Open(dg transport.Datagram) (transport.Datagram, error) {
	return dg, nil
}
