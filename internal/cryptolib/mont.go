package cryptolib

import "math/big"

// montMaxWords is the widest modulus the Montgomery kernel serves: 1024
// bits, Oakley 2 and the domain CA's N.
const montMaxWords = 16

// montNat is one residue in Montgomery form, least significant word
// first; a modulus of n words uses the first n.
type montNat [montMaxWords]uint64

type (
	montMulFunc func(z, x, y, m *montNat, k0 uint64)
	montSqrFunc func(z, x, m *montNat, k0 uint64)
)

// montModulus is an odd modulus of a width the kernel serves (8, 12 or 16
// words) with its Montgomery constants: R = 2^(64n), k0 = -m⁻¹ mod 2^64,
// R² mod m, and R mod m — one, in Montgomery form.
type montModulus struct {
	p          *big.Int
	n          int
	m, rr, one montNat
	k0         uint64
	kmul       montMulFunc
	ksqr       montSqrFunc
}

// newMontModulus builds m's context, or returns nil where the kernel does
// not serve m: no kernel on this CPU, an even m, or another width.
func newMontModulus(m *big.Int) *montModulus {
	if !useMont || m.Sign() <= 0 || m.Bit(0) == 0 {
		return nil
	}
	n := len(m.Bits())
	kmul, ksqr := montKernel(n)
	if kmul == nil {
		return nil
	}
	mm := &montModulus{p: m, n: n, kmul: kmul, ksqr: ksqr}
	loadNat(&mm.m, m)
	// Newton's iteration doubles the correct low bits of m⁻¹ each step:
	// m is its own inverse mod 2^3, so five steps reach 2^96.
	inv := mm.m[0]
	for range 5 {
		inv *= 2 - mm.m[0]*inv
	}
	mm.k0 = -inv
	r := new(big.Int).Lsh(big.NewInt(1), uint(64*n))
	loadNat(&mm.one, new(big.Int).Mod(r, m))
	loadNat(&mm.rr, r.Mod(r.Mul(r, r), m))
	return mm
}

// mul sets z = x·y·R⁻¹ mod m and sqr z = x²·R⁻¹ mod m, for x, y < m.
func (mm *montModulus) mul(z, x, y *montNat) { mm.kmul(z, x, y, &mm.m, mm.k0) }
func (mm *montModulus) sqr(z, x *montNat)    { mm.ksqr(z, x, &mm.m, mm.k0) }

func loadNat(z *montNat, x *big.Int) {
	*z = montNat{}
	for i, w := range x.Bits() {
		z[i] = uint64(w)
	}
}

// toMont sets z to x·R mod m, reducing x first when it is not below m.
func (mm *montModulus) toMont(z *montNat, x *big.Int) {
	if x.Sign() < 0 || x.Cmp(mm.p) >= 0 {
		x = new(big.Int).Mod(x, mm.p)
	}
	var t montNat
	loadNat(&t, x)
	mm.mul(z, &t, &mm.rr)
}

// fromMont returns x·R⁻¹ mod m, leaving Montgomery form.
func (mm *montModulus) fromMont(x *montNat) *big.Int {
	var z montNat
	one := montNat{1}
	mm.mul(&z, x, &one)
	w := make([]big.Word, mm.n)
	for i := range w {
		w[i] = big.Word(z[i])
	}
	return new(big.Int).SetBits(w)
}

// exp returns x^e mod m for e ≥ 0 by the fixed 4-bit window walk Shared
// and Sign share: a table of x^0 … x^15, then per window four squarings
// and one product with the entry montSelect reads by mask. The walk's
// length is e's word count, and nothing else about e steers a branch or
// an address: a zero digit multiplies by x^0.
func (mm *montModulus) exp(x, e *big.Int) *big.Int {
	var tab [16]montNat
	tab[0] = mm.one
	mm.toMont(&tab[1], x)
	for i := 2; i < 16; i += 2 {
		mm.sqr(&tab[i], &tab[i/2])
		mm.mul(&tab[i+1], &tab[i], &tab[1])
	}
	acc, sel := mm.one, montNat{}
	ew := e.Bits()
	for i := len(ew) - 1; i >= 0; i-- {
		w := uint64(ew[i])
		for s := 60; s >= 0; s -= 4 {
			if i == len(ew)-1 && s == 60 {
				montSelect(&acc, &tab, mm.n, w>>s)
				continue
			}
			for range 4 {
				mm.sqr(&acc, &acc)
			}
			montSelect(&sel, &tab, mm.n, w>>s&15)
			mm.mul(&acc, &acc, &sel)
		}
	}
	return mm.fromMont(&acc)
}

// expPublic returns x^e mod m for a public e ≥ 0 by left-to-right
// square-and-multiply, whose steps follow e's bits: Verify's 65537 costs
// sixteen squarings and one product.
func (mm *montModulus) expPublic(x, e *big.Int) *big.Int {
	if e.Sign() == 0 {
		return big.NewInt(1)
	}
	var b, acc montNat
	mm.toMont(&b, x)
	acc = b
	for i := e.BitLen() - 2; i >= 0; i-- {
		mm.sqr(&acc, &acc)
		if e.Bit(i) == 1 {
			mm.mul(&acc, &acc, &b)
		}
	}
	return mm.fromMont(&acc)
}

// expSecret returns x^e mod m for a secret e: the kernel's walk where it
// serves m, big.Int.Exp everywhere else.
func expSecret(x, e, m *big.Int) *big.Int {
	if e.Sign() >= 0 {
		if mm := newMontModulus(m); mm != nil {
			return mm.exp(x, e)
		}
	}
	return new(big.Int).Exp(x, e, m)
}

// expPublic is expSecret for a public exponent.
func expPublic(x, e, m *big.Int) *big.Int {
	if e.Sign() >= 0 {
		if mm := newMontModulus(m); mm != nil {
			return mm.expPublic(x, e)
		}
	}
	return new(big.Int).Exp(x, e, m)
}
