package cryptolib

import "math/big"

// montMaxWords is the widest residue a kernel stores: 16 64-bit words on
// the MULX kernel at 1024 bits, and three ZMM registers' worth of 52-bit
// limbs on the IFMA kernel (20 in use at 1024 bits).
const montMaxWords = 24

// montNat is one residue in Montgomery form in its kernel's radix, least
// significant limb first; a modulus of n limbs uses the first n and
// leaves the rest zero.
type montNat [montMaxWords]uint64

type (
	montMulFunc  func(z, x, y, m *montNat, k0 uint64)
	montSqrFunc  func(z, x, m *montNat, k0 uint64)
	montMul2Func func(z, x, y, m *[2]montNat, k0 *[2]uint64)
	montSelFunc  func(z *montNat, tab *[16]montNat, idx uint64)
)

// montKind names a Montgomery kernel.
type montKind int

const (
	montNone montKind = iota // big.Int.Exp only
	montMULX                 // mont_amd64.s: 64-bit limbs on MULX/ADCX/ADOX
	montIFMA                 // mont_ifma_amd64.s: 52-bit limbs on AVX-512 IFMA
)

// montUse is the kernel new contexts are built on: montBest, the widest
// this CPU has, decided once by CPUID. Nothing outside this package's
// tests changes it; they set it to montMULX to run the MULX kernel on a
// CPU whose best is IFMA.
var montUse = montBest

// montKernel is one kernel at one width: a product, a squaring, a
// two-stream product (nil where the kernel has none) and a masked read of
// a 16-entry table, over residues of limbs limbs of radix bits. The MULX
// kernel returns results below m; the IFMA kernel's are below 2m, which
// its product accepts as operands.
type montKernel struct {
	mul   montMulFunc
	sqr   montSqrFunc
	mul2  montMul2Func
	sel   montSelFunc
	radix uint
	limbs int
}

// montModulus is an odd modulus of a width its kernel serves with its
// Montgomery constants: R = 2^(radix·limbs), k0 = -m⁻¹ mod 2^radix in the
// word's top radix bits, R² mod m, and R mod m — one, in Montgomery form.
type montModulus struct {
	p          *big.Int
	m, rr, one montNat
	k0         uint64
	k          *montKernel
}

// newMontModulus builds m's context on montUse, or returns nil where the
// kernel does not serve m: no kernel on this CPU, an even m, or another
// width.
func newMontModulus(m *big.Int) *montModulus { return newMontModulusOn(montUse, m) }

// newMontModulusOn is newMontModulus on the given kernel.
func newMontModulusOn(kind montKind, m *big.Int) *montModulus {
	if m.Sign() <= 0 || m.Bit(0) == 0 {
		return nil
	}
	k := montKernelFor(kind, len(m.Bits()))
	if k == nil {
		return nil
	}
	mm := &montModulus{p: m, k: k}
	mm.load(&mm.m, m)
	// Newton's iteration doubles the correct low bits of m⁻¹ each step:
	// m is its own inverse mod 2^3, so five steps reach 2^96.
	m0 := uint64(m.Bits()[0])
	inv := m0
	for range 5 {
		inv *= 2 - m0*inv
	}
	mm.k0 = -inv << (64 - k.radix)
	// R² mod m without a full-width division: 2^(log R + a) mod m, the
	// Montgomery form of 2^a, leaves a quotient a few words long, and s
	// squarings of it, a·2^s = log R, reach the Montgomery form of R. One
	// is then R²·R⁻¹.
	logR := k.radix * uint(k.limbs)
	a, s := logR, 0
	for a%2 == 0 && a >= 512 {
		a, s = a/2, s+1
	}
	t := new(big.Int).Lsh(bigOne, logR+a)
	mm.load(&mm.rr, t.Mod(t, m))
	for range s {
		mm.sqr(&mm.rr, &mm.rr)
	}
	mm.mul(&mm.one, &mm.rr, &montNat{1})
	return mm
}

var bigOne = big.NewInt(1)

// mul sets z = x·y·R⁻¹ mod m and sqr z = x²·R⁻¹ mod m, for x, y below m
// (MULX) or 2m (IFMA); sel sets z = tab[idx] reading every entry.
func (mm *montModulus) mul(z, x, y *montNat) { mm.k.mul(z, x, y, &mm.m, mm.k0) }
func (mm *montModulus) sqr(z, x *montNat)    { mm.k.sqr(z, x, &mm.m, mm.k0) }
func (mm *montModulus) sel(z *montNat, tab *[16]montNat, idx uint64) {
	mm.k.sel(z, tab, idx)
}

// load sets z to x < 2^(radix·limbs) in the kernel's radix.
func (mm *montModulus) load(z *montNat, x *big.Int) {
	*z = montNat{}
	radix := mm.k.radix
	mask := uint64(1)<<radix - 1
	var acc uint64 // n bits not yet placed, n < radix
	n, j := uint(0), 0
	for _, w := range x.Bits() {
		z[j] = (acc | uint64(w)<<n) & mask
		j++
		acc, n = uint64(w)>>(radix-n), 64+n-radix
		for ; n >= radix; n -= radix {
			z[j] = acc & mask
			acc >>= radix
			j++
		}
	}
	if n > 0 {
		z[j] = acc
	}
}

// toMont sets z to x·R mod m, reducing x first when it is not below m.
func (mm *montModulus) toMont(z *montNat, x *big.Int) {
	if x.Sign() < 0 || x.Cmp(mm.p) >= 0 {
		x = new(big.Int).Mod(x, mm.p)
	}
	var t montNat
	mm.load(&t, x)
	mm.mul(z, &t, &mm.rr)
}

// fromMont returns x·R⁻¹ mod m, leaving Montgomery form. The product by 1
// is at most m for any x below 2m, and m only for x ≡ 0, so one
// subtraction reduces it fully.
func (mm *montModulus) fromMont(x *montNat) *big.Int {
	var z montNat
	one := montNat{1}
	mm.mul(&z, x, &one)
	r := mm.int(&z)
	if r.Cmp(mm.p) >= 0 {
		r.Sub(r, mm.p)
	}
	return r
}

// int returns the value of z's limbs.
func (mm *montModulus) int(z *montNat) *big.Int {
	radix := mm.k.radix
	w := make([]big.Word, 0, (radix*uint(mm.k.limbs)+63)/64)
	var acc uint64 // n bits not yet written, n < 64
	n := uint(0)
	for _, l := range z[:mm.k.limbs] {
		acc |= l << n
		if n+radix < 64 {
			n += radix
			continue
		}
		w = append(w, big.Word(acc))
		acc, n = l>>(64-n), n+radix-64
	}
	if n > 0 {
		w = append(w, big.Word(acc))
	}
	return new(big.Int).SetBits(w)
}

// exp returns x^e mod m for e ≥ 0: expWalk over one stream.
func (mm *montModulus) exp(x, e *big.Int) *big.Int {
	return expWalk([2]*montModulus{mm}, [2]*big.Int{x}, [2]*big.Int{e})[0]
}

// expWalk returns x[s]^e[s] mod m[s], e[s] ≥ 0, for one stream (mm[1]
// nil) or two, by the fixed 4-bit window walk Shared and Sign share: per
// stream a table of x^0 … x^15, then per window four squarings and one
// product with the entry sel reads by mask. Two streams walk in lockstep
// over the longer exponent's windows, the shorter exponent padded with
// zero digits; a zero digit multiplies by x^0. The walk's length is the
// longer exponent's word count, and nothing else about either exponent
// steers a branch or an address.
func expWalk(mm [2]*montModulus, x, e [2]*big.Int) (out [2]*big.Int) {
	st := newMontStreams(mm)
	var tab [2][16]montNat
	var acc, sel [2]montNat
	words := 0
	for s, ms := range st.mm[:st.n] {
		t := &tab[s]
		t[0] = ms.one
		ms.toMont(&t[1], x[s])
		for i := 2; i < 16; i += 2 {
			ms.sqr(&t[i], &t[i/2])
			ms.mul(&t[i+1], &t[i], &t[1])
		}
		acc[s] = ms.one
		words = max(words, len(e[s].Bits()))
	}
	digit := func(s, i, shift int) uint64 {
		if ew := e[s].Bits(); i < len(ew) {
			return uint64(ew[i]) >> shift & 15
		}
		return 0
	}
	for i := words - 1; i >= 0; i-- {
		for shift := 60; shift >= 0; shift -= 4 {
			if i == words-1 && shift == 60 {
				for s, ms := range st.mm[:st.n] {
					ms.sel(&acc[s], &tab[s], digit(s, i, shift))
				}
				continue
			}
			for range 4 {
				st.sqr(&acc)
			}
			for s, ms := range st.mm[:st.n] {
				ms.sel(&sel[s], &tab[s], digit(s, i, shift))
			}
			st.mul(&acc, &sel)
		}
	}
	for s, ms := range st.mm[:st.n] {
		out[s] = ms.fromMont(&acc[s])
	}
	return out
}

// montStreams is the one or two contexts expWalk steps together. Where
// both are on one kernel and width that has a two-stream product, a step
// is one call of it; otherwise each stream takes its own.
type montStreams struct {
	mm   [2]*montModulus
	n    int
	mul2 montMul2Func
	m    [2]montNat
	k0   [2]uint64
}

func newMontStreams(mm [2]*montModulus) montStreams {
	st := montStreams{mm: mm, n: 1}
	if mm[1] == nil {
		return st
	}
	st.n = 2
	if mm[0].k == mm[1].k && mm[0].k.mul2 != nil {
		st.mul2 = mm[0].k.mul2
		st.m = [2]montNat{mm[0].m, mm[1].m}
		st.k0 = [2]uint64{mm[0].k0, mm[1].k0}
	}
	return st
}

// mul sets acc[s] = acc[s]·y[s]·R⁻¹ mod m[s] and sqr acc[s] = acc[s]²·R⁻¹
// mod m[s] for every stream.
func (st *montStreams) mul(acc, y *[2]montNat) {
	if st.mul2 != nil {
		st.mul2(acc, acc, y, &st.m, &st.k0)
		return
	}
	for s, ms := range st.mm[:st.n] {
		ms.mul(&acc[s], &acc[s], &y[s])
	}
}

func (st *montStreams) sqr(acc *[2]montNat) {
	if st.mul2 != nil {
		st.mul2(acc, acc, acc, &st.m, &st.k0)
		return
	}
	for s, ms := range st.mm[:st.n] {
		ms.sqr(&acc[s], &acc[s])
	}
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

// expSecretOn returns x^e mod m for a secret e: the kernel's walk on m's
// context mm, or big.Int.Exp where mm is nil (the kernel does not serve
// m).
func expSecretOn(mm *montModulus, x, e, m *big.Int) *big.Int {
	if mm != nil && e.Sign() >= 0 {
		return mm.exp(x, e)
	}
	return new(big.Int).Exp(x, e, m)
}

// expPublicOn is expSecretOn for a public exponent: square-and-multiply.
func expPublicOn(mm *montModulus, x, e, m *big.Int) *big.Int {
	if mm != nil && e.Sign() >= 0 {
		return mm.expPublic(x, e)
	}
	return new(big.Int).Exp(x, e, m)
}

// expCRT returns x^dp mod p and x^dq mod q for secret dp and dq, on the
// primes' contexts mp and mq: one two-stream walk where the kernel serves
// both, expSecretOn per half everywhere else.
func expCRT(mp, mq *montModulus, x, dp, p, dq, q *big.Int) (*big.Int, *big.Int) {
	if mp != nil && mq != nil && dp.Sign() >= 0 && dq.Sign() >= 0 {
		r := expWalk([2]*montModulus{mp, mq}, [2]*big.Int{x, x}, [2]*big.Int{dp, dq})
		return r[0], r[1]
	}
	return expSecretOn(mp, x, dp, p), expSecretOn(mq, x, dq, q)
}
