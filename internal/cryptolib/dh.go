package cryptolib

import (
	"crypto/md5"
	"crypto/rand"
	"fmt"
	"math/big"
	"sync"
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
		P: new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 512), big.NewInt(testPrimeGap)),
		G: big.NewInt(2),
	}
)

// testPrimeGap places TestGroup's modulus: 2^512 - 569 is the largest
// 512-bit prime. TestTestGroupIsLargest512BitPrime verifies it (prime,
// and every odd number above it composite), so the constant is checked
// where a scan at package init would cost every process start.
const testPrimeGap = 569

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

// Public computes the public value g^x mod p for private value x. On
// Oakley 1 and 2, where the Montgomery kernel runs, an x of at most
// shortExponentBits — every value GeneratePrivate draws there — is a
// product of precomputed powers of g (see fixedBase); any other group or
// length takes the kernel's window walk where it serves p, and
// big.Int.Exp elsewhere.
func (g DHGroup) Public(private *big.Int) *big.Int {
	if t := g.fixedBase(private); t != nil {
		return t.exp(private)
	}
	return g.exp(g.G, private)
}

// exp returns base^x mod p: the kernel's window walk where it serves p,
// big.Int.Exp elsewhere.
func (g DHGroup) exp(base, x *big.Int) *big.Int {
	if x.Sign() >= 0 {
		if mm := g.mont(); mm != nil {
			return mm.exp(base, x)
		}
	}
	return new(big.Int).Exp(base, x, g.P)
}

// oakleyMont holds Oakley 1's and 2's Montgomery contexts, each built on
// first use.
var oakleyMont = [2]func() *montModulus{
	sync.OnceValue(func() *montModulus { return newMontModulus(Oakley1.P) }),
	sync.OnceValue(func() *montModulus { return newMontModulus(Oakley2.P) }),
}

// mont returns the Montgomery context for g's modulus, or nil where the
// kernel does not serve it. Oakley 1 and 2, recognised by value, share
// one context each; any other modulus builds its own per call, so no
// group a certificate names can grow a cache.
func (g DHGroup) mont() *montModulus {
	switch {
	case g.P.Cmp(Oakley2.P) == 0:
		return oakleyMont[1]()
	case g.P.Cmp(Oakley1.P) == 0:
		return oakleyMont[0]()
	}
	return newMontModulus(g.P)
}

// fixedBaseWindows and fixedBaseDigits shape the fixed-base table: the
// exponent is read as 64 base-16 digits, and window i holds g^(d·16^i)
// for every digit d.
const (
	fixedBaseWindows = shortExponentBits / 4
	fixedBaseDigits  = 16
)

// fixedBaseTable is g^(d·16^i) mod p for one group, in Montgomery form:
// entry [i][d], digit 0 included. g^x is then the product of one entry
// per digit of x — 63 products on the kernel instead of the 252
// squarings and 63 products of the window walk.
type fixedBaseTable struct {
	mm *montModulus
	t  [fixedBaseWindows][fixedBaseDigits]montNat
}

// oakleyTables are Oakley 1's and 2's tables, each built on first use.
var oakleyTables = [2]func() *fixedBaseTable{
	sync.OnceValue(func() *fixedBaseTable { return newFixedBaseTable(Oakley1) }),
	sync.OnceValue(func() *fixedBaseTable { return newFixedBaseTable(Oakley2) }),
}

func newFixedBaseTable(g DHGroup) *fixedBaseTable {
	mm := g.mont()
	t := &fixedBaseTable{mm: mm}
	var base montNat // g^(16^i)
	mm.toMont(&base, g.G)
	for i := range t.t {
		w := &t.t[i]
		w[0], w[1] = mm.one, base
		for d := 2; d < fixedBaseDigits; d++ {
			mm.mul(&w[d], &w[d-1], &base)
		}
		mm.mul(&base, &w[fixedBaseDigits-1], &base)
	}
	return t
}

// fixedBase returns the table Public uses for x, or nil where it does
// not apply: no kernel on this CPU, a group other than Oakley 1 or 2
// (recognised by value), or an x that is not positive or is longer than
// shortExponentBits.
func (g DHGroup) fixedBase(x *big.Int) *fixedBaseTable {
	if !useMont || x.Sign() <= 0 || x.BitLen() > shortExponentBits || !g.builtinSafePrime() {
		return nil
	}
	if g.P.Cmp(Oakley1.P) == 0 {
		return oakleyTables[0]()
	}
	return oakleyTables[1]()
}

// exp returns g^x mod p for 0 < x < 2^shortExponentBits: every window
// reads its digit's entry with montSelect and multiplies it in, a zero
// digit included, so the work is the same for every x.
func (t *fixedBaseTable) exp(x *big.Int) *big.Int {
	var digits [shortExponentBits / 64]uint64
	for i, w := range x.Bits() {
		digits[i] = uint64(w)
	}
	mm := t.mm
	var acc, sel montNat
	montSelect(&acc, &t.t[0], mm.n, digits[0]&15)
	for i := 1; i < fixedBaseWindows; i++ {
		montSelect(&sel, &t.t[i], mm.n, digits[i/16]>>(4*(i%16))&15)
		mm.mul(&acc, &acc, &sel)
	}
	return mm.fromMont(&acc)
}

// Shared computes the pair-based master secret g^(xy) mod p from one
// side's private value and the other side's public value. The FBS master
// key K_{S,D} is derived from this value. Where the kernel serves p it
// runs the constant-time window walk (montModulus.exp); elsewhere
// big.Int.Exp, as PortableShared does everywhere.
func (g DHGroup) Shared(private, peerPublic *big.Int) (*big.Int, error) {
	if err := g.checkPeer(peerPublic); err != nil {
		return nil, err
	}
	return g.exp(peerPublic, private), nil
}

// PortableShared is Shared on math/big alone, whatever the CPU: the
// oracle internal/refmodel derives K_{S,D} with, so the differential
// harness checks the kernel against big.Int.Exp on every op stream.
func (g DHGroup) PortableShared(private, peerPublic *big.Int) (*big.Int, error) {
	if err := g.checkPeer(peerPublic); err != nil {
		return nil, err
	}
	return new(big.Int).Exp(peerPublic, private, g.P), nil
}

// checkPeer refuses a peer public value outside (1, p-1): out of range,
// or one of the degenerate subgroup elements 1 and p-1.
func (g DHGroup) checkPeer(peerPublic *big.Int) error {
	if peerPublic.Sign() <= 0 || peerPublic.Cmp(g.P) >= 0 {
		return fmt.Errorf("cryptolib: peer public value out of range")
	}
	one := big.NewInt(1)
	pm1 := new(big.Int).Sub(g.P, one)
	if peerPublic.Cmp(one) == 0 || peerPublic.Cmp(pm1) == 0 {
		return fmt.Errorf("cryptolib: degenerate peer public value")
	}
	return nil
}

// MasterKey reduces a Diffie-Hellman shared secret to a fixed-size master
// key by hashing its canonical big-endian encoding. The paper leaves the
// reduction unspecified; hashing is the standard choice.
func MasterKey(shared *big.Int) [md5.Size]byte {
	return md5.Sum(shared.Bytes())
}
