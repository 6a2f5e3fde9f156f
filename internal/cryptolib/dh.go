package cryptolib

import (
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

// Public computes the public value g^x mod p for private value x. On
// Oakley 1 and 2 an x of at most shortExponentBits — every value
// GeneratePrivate draws there — is a product of precomputed powers of g
// (see fixedBase); any other group or length runs big.Int.Exp.
func (g DHGroup) Public(private *big.Int) *big.Int {
	if t := g.fixedBase(private); t != nil {
		return t.exp(private)
	}
	return new(big.Int).Exp(g.G, private, g.P)
}

// fixedBaseWindows and fixedBaseDigits shape the fixed-base table: the
// exponent is read as 64 base-16 digits, and window i holds g^(d·16^i)
// for every digit d.
const (
	fixedBaseWindows = shortExponentBits / 4
	fixedBaseDigits  = 16
)

// fixedBaseTable is g^(d·16^i) mod p for one group: entry [i][d-1], the
// zero digit needing no entry. g^x is then the product of one entry per
// non-zero digit of x — at most 63 modular multiplications instead of
// the 256 squarings and ≈ 60 multiplications of a windowed Exp.
type fixedBaseTable struct {
	p *big.Int
	t [fixedBaseWindows][fixedBaseDigits - 1]big.Int
}

// oakleyTables are Oakley 1's and 2's tables, each built on first use.
var oakleyTables = [2]func() *fixedBaseTable{
	sync.OnceValue(func() *fixedBaseTable { return newFixedBaseTable(Oakley1) }),
	sync.OnceValue(func() *fixedBaseTable { return newFixedBaseTable(Oakley2) }),
}

func newFixedBaseTable(g DHGroup) *fixedBaseTable {
	t := &fixedBaseTable{p: g.P}
	base := new(big.Int).Set(g.G) // g^(16^i)
	prod, quo := new(big.Int), new(big.Int)
	for i := range t.t {
		t.t[i][0].Set(base)
		for d := 1; d < fixedBaseDigits-1; d++ {
			// Reduce in scratch, then copy: an entry keeps a 1024-bit
			// footprint, not the product's 2048-bit capacity.
			quo.QuoRem(prod.Mul(&t.t[i][d-1], base), g.P, prod)
			t.t[i][d].Set(prod)
		}
		quo.QuoRem(prod.Mul(&t.t[i][fixedBaseDigits-2], base), g.P, base)
	}
	return t
}

// fixedBase returns the table Public uses for x, or nil where it does
// not apply: a group other than Oakley 1 or 2 (recognised by value), or
// an x that is not positive or is longer than shortExponentBits.
func (g DHGroup) fixedBase(x *big.Int) *fixedBaseTable {
	if x.Sign() <= 0 || x.BitLen() > shortExponentBits || !g.builtinSafePrime() {
		return nil
	}
	if g.P.Cmp(Oakley1.P) == 0 {
		return oakleyTables[0]()
	}
	return oakleyTables[1]()
}

// exp returns g^x mod p for 0 < x < 2^shortExponentBits. Like
// big.Int.Exp, its time depends on x: here on the number of zero digits.
func (t *fixedBaseTable) exp(x *big.Int) *big.Int {
	acc, prod, quo := new(big.Int), new(big.Int), new(big.Int)
	started := false
	for i := 0; i < fixedBaseWindows; i++ {
		d := 0
		for b := 3; b >= 0; b-- {
			d = d<<1 | int(x.Bit(4*i+b))
		}
		switch {
		case d == 0:
		case !started:
			acc.Set(&t.t[i][d-1])
			started = true
		default:
			quo.QuoRem(prod.Mul(acc, &t.t[i][d-1]), t.p, acc)
		}
	}
	return acc
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
