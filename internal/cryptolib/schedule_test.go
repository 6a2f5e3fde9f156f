package cryptolib

import (
	"math/big"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"
)

// scheduleLog records what a walk asks of its kernel: each call's kind
// and which of the walk's buffers each operand and result is, numbered
// in order of first use, but never a select's index. Two walks whose
// logs are equal computed different exponents by the same steps over
// the same addresses.
type scheduleLog struct {
	bufs []unsafe.Pointer
	ops  []int
}

// Call kinds in a log.
const (
	opMul = iota + 1
	opSqr
	opMul2
	opSel
)

func (l *scheduleLog) op(kind int, ptrs ...unsafe.Pointer) {
	l.ops = append(l.ops, kind)
	for _, p := range ptrs {
		i := slices.Index(l.bufs, p)
		if i < 0 {
			i = len(l.bufs)
			l.bufs = append(l.bufs, p)
		}
		l.ops = append(l.ops, i)
	}
}

func (l *scheduleLog) reset() { l.bufs, l.ops = l.bufs[:0], l.ops[:0] }

// recording wraps k: every call is logged, then run on k.
func recording(k *montKernel, l *scheduleLog) *montKernel {
	r := *k
	r.mul = func(z, x, y, m *montNat, k0 uint64) {
		l.op(opMul, unsafe.Pointer(z), unsafe.Pointer(x), unsafe.Pointer(y))
		k.mul(z, x, y, m, k0)
	}
	r.sqr = func(z, x, m *montNat, k0 uint64) {
		l.op(opSqr, unsafe.Pointer(z), unsafe.Pointer(x))
		k.sqr(z, x, m, k0)
	}
	if k.mul2 != nil {
		r.mul2 = func(z, x, y, m *[2]montNat, k0 *[2]uint64) {
			l.op(opMul2, unsafe.Pointer(z), unsafe.Pointer(x), unsafe.Pointer(y))
			k.mul2(z, x, y, m, k0)
		}
	}
	r.sel = func(z *montNat, tab *[16]montNat, idx uint64) {
		l.op(opSel, unsafe.Pointer(z), unsafe.Pointer(tab))
		k.sel(z, tab, idx)
	}
	return &r
}

// exponentClass draws one exponent of at most bits bits.
type exponentClass struct {
	name string
	draw func(rng *rand.Rand, bits int) *big.Int
}

// scheduleClasses are the exponents the walks must not tell apart beyond
// their public length: a few bits set, every bit set, uniformly random,
// and random under top words that are zero.
var scheduleClasses = []exponentClass{
	{"sparse", func(rng *rand.Rand, bits int) *big.Int {
		n := 1 + rng.IntN(bits)
		e := new(big.Int).SetBit(new(big.Int), n-1, 1)
		return e.SetBit(e, rng.IntN(n), 1)
	}},
	{"dense", func(rng *rand.Rand, bits int) *big.Int {
		n := 1 + rng.IntN(bits)
		return new(big.Int).Sub(new(big.Int).Lsh(bigOne, uint(n)), bigOne)
	}},
	{"random", func(rng *rand.Rand, bits int) *big.Int { return randBits(rng, bits) }},
	{"top-words-zero", func(rng *rand.Rand, bits int) *big.Int {
		return randBits(rng, 64*(1+rng.IntN(bits/64-1)))
	}},
}

// schedules holds the first log seen for each public length and fails t
// when a later walk of that length logs differently.
type schedules struct {
	t    *testing.T
	walk string
	by   map[int][]int
}

func (s *schedules) check(public int, l *scheduleLog, what string) {
	s.t.Helper()
	want, ok := s.by[public]
	if !ok {
		s.by[public] = slices.Clone(l.ops)
		return
	}
	if !slices.Equal(want, l.ops) {
		s.t.Fatalf("%s: the kernel schedule of %s depends on more than its public length %d", s.walk, what, public)
	}
}

// TestWalkScheduleIsSecretFree holds the exponentiation walks to what
// their docs claim: expWalk on one stream and on two, the CRT form that
// runs RSA's halves as two streams, and the fixed-base Public table walk
// ask the kernel for the same calls, on the same buffers, for every
// exponent of one public length, which is the longer exponent's word
// count (the fixed-base walk has one for every exponent). It reads the
// schedule, not the time, so it is exact and deterministic; dudect
// (TestConstantTime) is left with the kernels' own data dependence.
func TestWalkScheduleIsSecretFree(t *testing.T) {
	const perClass = 1000
	onEachKernel(t, func(t *testing.T, kind montKind) {
		rng := rand.New(rand.NewPCG(24, uint64(kind)))
		var l scheduleLog
		on := func(m *big.Int) *montModulus {
			mm := newMontModulusOn(kind, m)
			if mm == nil {
				t.Fatalf("no %s context at %d bits", kernelNames[kind], m.BitLen())
			}
			return mm
		}
		// Two 512-bit moduli as RSA-1024's CRT halves have, sharing one
		// recording kernel so the two-stream product is used where the
		// kernel has one.
		mp := on(montTestModuli(rng, 8)[1])
		mq := on(montTestModuli(rng, 8)[0])
		mq.k = recording(mp.k, &l)
		mp.k = mq.k
		const bits = 512

		one := schedules{t, "expWalk, one stream", map[int][]int{}}
		two := schedules{t, "expWalk, two streams", map[int][]int{}}
		crt := schedules{t, "expCRT", map[int][]int{}}
		for _, c := range scheduleClasses {
			for range perClass {
				e, f := c.draw(rng, bits), c.draw(rng, bits)
				x := randBits(rng, bits-1)
				l.reset()
				mp.exp(x, e)
				one.check(len(e.Bits()), &l, c.name)
				l.reset()
				expWalk([2]*montModulus{mp, mq}, [2]*big.Int{x, x}, [2]*big.Int{e, f})
				two.check(max(len(e.Bits()), len(f.Bits())), &l, c.name)
				// Unequal lengths: the shorter half pads with zero digits.
				short := new(big.Int).Rsh(f, uint(64*rng.IntN(len(f.Bits())+1)))
				l.reset()
				expCRT(mp, mq, x, e, mp.p, short, mq.p)
				crt.check(max(len(e.Bits()), len(short.Bits())), &l, c.name+", unequal lengths")
			}
		}

		// The fixed-base walk over Oakley 2's table, built on the
		// recording kernel and logged from the first exponent on.
		g := on(Oakley2.P)
		g.k = recording(g.k, &l)
		tab := newFixedBaseTable(g, Oakley2)
		fixed := schedules{t, "fixedBaseTable.exp", map[int][]int{}}
		for _, c := range scheduleClasses {
			for range perClass {
				x := c.draw(rng, shortExponentBits)
				if x.Sign() == 0 {
					x.SetInt64(1)
				}
				l.reset()
				tab.exp(x)
				fixed.check(0, &l, c.name)
			}
		}
		t.Logf("%s: %d one-stream, %d two-stream and %d CRT lengths, one fixed-base schedule",
			kernelNames[kind], len(one.by), len(two.by), len(crt.by))
	})
}
