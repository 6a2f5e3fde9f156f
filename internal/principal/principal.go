// Package principal models the communicating entities of the FBS
// protocol.
//
// The paper deliberately avoids committing to a protocol layer: a
// principal may be a host, a network interface, a process, or a user —
// the only requirement is that principals are uniquely addressable within
// the datagram service (Section 5.2). Each principal owns a Diffie-Hellman
// private value; the corresponding public value is published through the
// certificate substrate (internal/cert).
package principal

import (
	"encoding/binary"
	"fmt"
	"math/big"

	"fbs/internal/cryptolib"
)

// Address uniquely names a principal within a datagram service. The
// encoding is deliberately opaque: the IP mapping uses dotted-quad
// strings, the examples use human-readable names.
type Address string

// Bytes returns the canonical byte encoding of the address, used wherever
// the protocol hashes S and D (flow key derivation, the MAC).
func (a Address) Bytes() []byte { return []byte(a) }

// Wire returns a length-prefixed encoding suitable for embedding in
// certificates and datagrams.
func (a Address) Wire() []byte {
	out := make([]byte, 2+len(a))
	binary.BigEndian.PutUint16(out, uint16(len(a)))
	copy(out[2:], a)
	return out
}

// DecodeAddress parses a length-prefixed address from b, returning the
// address and the number of bytes consumed.
func DecodeAddress(b []byte) (Address, int, error) {
	if len(b) < 2 {
		return "", 0, fmt.Errorf("principal: truncated address length")
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+n {
		return "", 0, fmt.Errorf("principal: truncated address body: need %d bytes, have %d", n, len(b)-2)
	}
	return Address(b[2 : 2+n]), 2 + n, nil
}

// Identity is a principal together with its long-term Diffie-Hellman
// keying material. The private value is deliberately unexported; the only
// operations on it are computing the public value and pair-based master
// keys.
type Identity struct {
	Addr   Address
	Group  cryptolib.DHGroup
	Public *big.Int

	private *big.Int
}

// NewIdentity creates a principal with a freshly generated private value
// in the given group.
func NewIdentity(addr Address, group cryptolib.DHGroup) (*Identity, error) {
	if addr == "" {
		return nil, fmt.Errorf("principal: empty address")
	}
	priv, err := group.GeneratePrivate()
	if err != nil {
		return nil, err
	}
	return &Identity{
		Addr:    addr,
		Group:   group,
		Public:  group.Public(priv),
		private: priv,
	}, nil
}

// NewIdentityWithPrivate creates a principal from an existing private
// value of any length in the range GeneratePrivate documents, 1 < x <
// P-1 (state files, tests and deterministic simulations). The ends are
// refused because they make every pair key public or unusable: x = 1
// publishes g and derives K_{S,D} from the peer's certified public
// value itself; x = P-1 publishes 1, which every peer's Shared rejects.
func NewIdentityWithPrivate(addr Address, group cryptolib.DHGroup, private *big.Int) (*Identity, error) {
	if addr == "" {
		return nil, fmt.Errorf("principal: empty address")
	}
	if private.Cmp(big.NewInt(1)) <= 0 || private.Cmp(new(big.Int).Sub(group.P, big.NewInt(1))) >= 0 {
		return nil, fmt.Errorf("principal: private value out of range (want 1 < x < P-1)")
	}
	return &Identity{
		Addr:    addr,
		Group:   group,
		Public:  group.Public(private),
		private: private,
	}, nil
}

// MasterKey computes the pair-based master key K_{S,D} = H(g^sd mod p)
// with the peer identified by its authenticated public value. Either side
// of a pair computes the same key; nobody else can (Section 5.2).
func (id *Identity) MasterKey(peerPublic *big.Int) ([16]byte, error) {
	shared, err := id.Group.Shared(id.private, peerPublic)
	if err != nil {
		return [16]byte{}, fmt.Errorf("principal %s: computing master key: %w", id.Addr, err)
	}
	return cryptolib.MasterKey(shared), nil
}

// Rekey replaces the private value, invalidating every pair-based master
// key derived from the old one. The paper relies on this happening before
// the security flow label counter wraps (Section 5.3).
func (id *Identity) Rekey() error {
	priv, err := id.Group.GeneratePrivate()
	if err != nil {
		return err
	}
	id.private = priv
	id.Public = id.Group.Public(priv)
	return nil
}

// String implements fmt.Stringer without leaking the private value.
func (id *Identity) String() string {
	return fmt.Sprintf("principal(%s, %d-bit group)", id.Addr, id.Group.Bits())
}
