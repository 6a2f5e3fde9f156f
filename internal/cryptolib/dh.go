package cryptolib

import (
	"crypto/rand"
	"fmt"
	"math/big"
)

// DHGroup is a Diffie-Hellman group: a prime modulus and a generator.
// The FBS zero-message keying mechanism assumes all principals share a
// common, well-known group (Section 5.2).
type DHGroup struct {
	P *big.Int // prime modulus
	G *big.Int // generator
}

// Oakley group moduli (RFC 2409). Group 1 is 768 bits, group 2 is 1024.
const (
	oakley1Hex = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1" +
		"29024E088A67CC74020BBEA63B139B22514A08798E3404DD" +
		"EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245" +
		"E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF"
	oakley2Hex = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1" +
		"29024E088A67CC74020BBEA63B139B22514A08798E3404DD" +
		"EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245" +
		"E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED" +
		"EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381" +
		"FFFFFFFFFFFFFFFF"
)

func mustGroup(hex string) DHGroup {
	p, ok := new(big.Int).SetString(hex, 16)
	if !ok {
		panic("cryptolib: bad built-in group modulus")
	}
	return DHGroup{P: p, G: big.NewInt(2)}
}

var (
	// Oakley1 is the 768-bit MODP group (First Oakley Group).
	Oakley1 = mustGroup(oakley1Hex)
	// Oakley2 is the 1024-bit MODP group (Second Oakley Group). This is
	// the default group for FBS principals in this reproduction.
	Oakley2 = mustGroup(oakley2Hex)
	// TestGroup is a small (512-bit) group for fast tests. It must never
	// be used outside tests and examples.
	TestGroup = DHGroup{
		P: must512(),
		G: big.NewInt(2),
	}
)

func must512() *big.Int {
	// Deterministically pick the largest 512-bit prime: scan down from
	// 2^512 - 1. This runs once at package init and avoids baking in an
	// unverified constant.
	p := new(big.Int).Lsh(big.NewInt(1), 512)
	p.Sub(p, big.NewInt(1))
	two := big.NewInt(2)
	for !p.ProbablyPrime(32) {
		p.Sub(p, two)
	}
	return p
}

// Bits returns the modulus size in bits.
func (g DHGroup) Bits() int { return g.P.BitLen() }

// shortExponentBits is the private-value length on the built-in
// safe-prime groups: the best attack on an exponent known to be short is
// Pollard's lambda at 2^(bits/2) (van Oorschot-Wiener 1996, RFC 3526
// section 8), so 256 bits cost 2^128 — above the groups' own strength
// (about 2^80 for 1024 bits) and the 128-bit K_{S,D} they protect — at a
// quarter of a full-range exponentiation's price.
const shortExponentBits = 256

// builtinSafePrime reports whether g is Oakley 1 or 2: p = 2q+1 with q
// prime and the generator 2 of order q, so the only small-subgroup
// elements are 1 and p-1 (which Shared refuses) and a short exponent
// gives nothing away. Recognised by value, so a group decoded from a
// certificate behaves like the package variable. TestGroup's (p-1)/2 is
// composite: it and any foreign group keep the full range.
func (g DHGroup) builtinSafePrime() bool {
	return g.G.Cmp(Oakley2.G) == 0 && (g.P.Cmp(Oakley2.P) == 0 || g.P.Cmp(Oakley1.P) == 0)
}

// GeneratePrivate draws a random private value x with 1 < x < P-1: on
// the built-in safe-prime groups exactly shortExponentBits long (top bit
// set), otherwise from the whole range.
func (g DHGroup) GeneratePrivate() (*big.Int, error) {
	if g.builtinSafePrime() {
		var b [shortExponentBits / 8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return nil, fmt.Errorf("cryptolib: generating DH private value: %w", err)
		}
		b[0] |= 0x80
		return new(big.Int).SetBytes(b[:]), nil
	}
	max := new(big.Int).Sub(g.P, big.NewInt(3))
	x, err := rand.Int(rand.Reader, max)
	if err != nil {
		return nil, fmt.Errorf("cryptolib: generating DH private value: %w", err)
	}
	return x.Add(x, big.NewInt(2)), nil
}

// Public computes the public value g^x mod p for private value x.
func (g DHGroup) Public(private *big.Int) *big.Int {
	return new(big.Int).Exp(g.G, private, g.P)
}

// Shared computes the pair-based master secret g^(xy) mod p from one
// side's private value and the other side's public value. The FBS master
// key K_{S,D} is derived from this value.
func (g DHGroup) Shared(private, peerPublic *big.Int) (*big.Int, error) {
	if peerPublic.Sign() <= 0 || peerPublic.Cmp(g.P) >= 0 {
		return nil, fmt.Errorf("cryptolib: peer public value out of range")
	}
	// Reject the degenerate subgroup elements 1 and p-1.
	one := big.NewInt(1)
	pm1 := new(big.Int).Sub(g.P, one)
	if peerPublic.Cmp(one) == 0 || peerPublic.Cmp(pm1) == 0 {
		return nil, fmt.Errorf("cryptolib: degenerate peer public value")
	}
	return new(big.Int).Exp(peerPublic, private, g.P), nil
}

// MasterKey reduces a Diffie-Hellman shared secret to a fixed-size master
// key by hashing its canonical big-endian encoding. The paper leaves the
// reduction unspecified; hashing is the standard choice.
func MasterKey(shared *big.Int) [MD5Size]byte {
	return MD5Sum(shared.Bytes())
}
