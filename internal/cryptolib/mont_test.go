package cryptolib

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/big"
	"math/rand/v2"
	"sync"
	"testing"
)

// montWidths are the widths, in 64-bit words, a kernel may serve.
var montWidths = [3]int{8, 12, 16}

// kernelNames names each kernel in subtests and logs.
var kernelNames = [...]string{montNone: "portable", montMULX: "mulx", montIFMA: "ifma"}

// hostKernels are the kernels this CPU has, best first: IFMA and MULX on
// an AVX-512 IFMA CPU, MULX alone on one with BMI2 and ADX, none
// elsewhere.
func hostKernels() []montKind {
	switch montBest {
	case montIFMA:
		return []montKind{montIFMA, montMULX}
	case montMULX:
		return []montKind{montMULX}
	}
	return nil
}

// onEachKernel runs f once per kernel this CPU has, as a subtest named
// after it, with new contexts built on that kernel: montUse is the
// package's unexported hook for reaching MULX on a CPU whose best is
// IFMA. It skips where the CPU has no kernel.
func onEachKernel(t *testing.T, f func(t *testing.T, kind montKind)) {
	t.Helper()
	if len(hostKernels()) == 0 {
		t.Skip("no Montgomery kernel on this CPU")
	}
	for _, kind := range hostKernels() {
		t.Run(kernelNames[kind], func(t *testing.T) {
			useKernel(t, kind)
			f(t, kind)
		})
	}
}

// useKernel builds new contexts on kind until t ends.
func useKernel(t testing.TB, kind montKind) {
	old := montUse
	montUse = kind
	t.Cleanup(func() { montUse = old })
}

// montTestModuli returns odd moduli of n words: the built-in one of that
// width, a random one with its top bit set, one whose top word is 1, and
// 2^(64n)-1, where every carry the kernel folds is as large as it gets.
func montTestModuli(rng *rand.Rand, n int) []*big.Int {
	builtin := map[int]*big.Int{8: TestGroup.P, 12: Oakley1.P, 16: Oakley2.P}[n]
	random := randBits(rng, 64*n)
	random.SetBit(random, 64*n-1, 1).SetBit(random, 0, 1)
	smallTop := randBits(rng, 64*(n-1))
	smallTop.SetBit(smallTop, 64*(n-1), 1).SetBit(smallTop, 0, 1)
	ones := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(64*n)), big.NewInt(1))
	return []*big.Int{builtin, random, smallTop, ones}
}

func randBits(rng *rand.Rand, bits int) *big.Int {
	b := make([]byte, (bits+7)/8)
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	x := new(big.Int).SetBytes(b)
	return x.Rsh(x, uint(8*len(b)-bits))
}

// TestMontProductAgainstBig: on every kernel the CPU has, montMul and
// montSqr return x·y·R⁻¹ mod m at every width, below m on MULX and below
// 2m on IFMA, for edge and random operands below m — and, on IFMA, whose
// product takes them, below 2m.
func TestMontProductAgainstBig(t *testing.T) {
	onEachKernel(t, func(t *testing.T, kind montKind) {
		rng := rand.New(rand.NewPCG(1, 1))
		for _, n := range montWidths {
			for _, m := range montTestModuli(rng, n) {
				mm := newMontModulus(m)
				logR := mm.k.radix * uint(mm.k.limbs)
				rInv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), logR), m)
				one := big.NewInt(1)
				bound := m
				ops := []*big.Int{big.NewInt(0), one, new(big.Int).Sub(m, one), new(big.Int).Sub(m, big.NewInt(2))}
				for range 8 {
					ops = append(ops, new(big.Int).Mod(randBits(rng, 64*n), m))
				}
				if mm.k.radix == 52 {
					bound = new(big.Int).Lsh(m, 1)
					ops = append(ops, new(big.Int).Set(m), new(big.Int).Add(m, one), new(big.Int).Sub(bound, one),
						new(big.Int).Add(m, new(big.Int).Mod(randBits(rng, 64*n), m)))
				}
				for _, x := range ops {
					for _, y := range ops {
						var xm, ym, z montNat
						mm.load(&xm, x)
						mm.load(&ym, y)
						want := new(big.Int).Mul(x, y)
						want.Mul(want, rInv).Mod(want, m)
						check := func(op string) {
							t.Helper()
							got := mm.int(&z)
							if got.Cmp(bound) >= 0 || new(big.Int).Mod(got, m).Cmp(want) != 0 {
								t.Fatalf("%d words, m=%x: %s(%x, %x) = %x, want %x below %x", n, m, op, x, y, got, want, bound)
							}
						}
						mm.mul(&z, &xm, &ym)
						check("mul")
						if x != y {
							continue
						}
						mm.sqr(&z, &xm)
						check("sqr")
					}
				}
			}
		}
	})
}

// TestModExpAgainstBig: on every kernel the CPU has, at every width the
// kernel's secret walk and its public square-and-multiply give
// big.Int.Exp's result byte for byte, for bases 0, 1, 2, m-1, m-2,
// random, m and above, and exponents 0, 1, 2^k-1, 256-bit and
// full-length.
func TestModExpAgainstBig(t *testing.T) {
	onEachKernel(t, func(t *testing.T, kind montKind) {
		rng := rand.New(rand.NewPCG(2, 2))
		for _, n := range montWidths {
			for _, m := range montTestModuli(rng, n) {
				mm := newMontModulus(m)
				if mm == nil {
					t.Fatalf("no %d-word context for m=%x", n, m)
				}
				one, two := big.NewInt(1), big.NewInt(2)
				bases := []*big.Int{
					big.NewInt(0), one, two,
					new(big.Int).Sub(m, one), new(big.Int).Sub(m, two),
					new(big.Int).Mod(randBits(rng, 64*n), m),
					new(big.Int).Set(m),
					new(big.Int).Add(m, randBits(rng, 64*n-8)),
					new(big.Int).Add(new(big.Int).Lsh(one, uint(64*n+5)), big.NewInt(3)),
				}
				short := randBits(rng, shortExponentBits)
				short.SetBit(short, shortExponentBits-1, 1)
				exps := []*big.Int{
					big.NewInt(0), one, big.NewInt(15), big.NewInt(65537),
					new(big.Int).Sub(new(big.Int).Lsh(one, 64), one),
					new(big.Int).Sub(new(big.Int).Lsh(one, 255), one),
					short, randBits(rng, m.BitLen()),
				}
				size := 8 * n
				for _, x := range bases {
					for _, e := range exps {
						want := new(big.Int).Exp(x, e, m).FillBytes(make([]byte, size))
						if got := mm.exp(x, e).FillBytes(make([]byte, size)); !bytes.Equal(got, want) {
							t.Fatalf("%d words: exp(%x, %x) mod %x = %x, want %x", n, x, e, m, got, want)
						}
						if got := mm.expPublic(x, e).FillBytes(make([]byte, size)); !bytes.Equal(got, want) {
							t.Fatalf("%d words: expPublic(%x, %x) mod %x = %x, want %x", n, x, e, m, got, want)
						}
					}
				}
			}
		}
	})
}

// TestExpWalkTwoStreams: on every kernel the CPU has, the two-stream walk
// gives what two one-stream walks give, for moduli of one width and of
// two, exponents of unequal word counts (the shorter padded with zero
// digits) and of none, and bases at m-1.
func TestExpWalkTwoStreams(t *testing.T) {
	onEachKernel(t, func(t *testing.T, kind montKind) {
		rng := rand.New(rand.NewPCG(7, 7))
		one := big.NewInt(1)
		for _, widths := range [][2]int{{8, 8}, {16, 16}, {12, 12}, {8, 16}} {
			m0 := montTestModuli(rng, widths[0])
			m1 := montTestModuli(rng, widths[1])
			for i := range m0 {
				mm := [2]*montModulus{newMontModulus(m0[i]), newMontModulus(m1[(i+1)%len(m1)])}
				for _, bits := range [][2]int{{0, 0}, {64, 64}, {512, 64}, {1, 511}, {256, 0}, {widths[0] * 64, widths[1]*64 - 3}} {
					var x, e [2]*big.Int
					for s := range 2 {
						x[s] = new(big.Int).Mod(randBits(rng, 64*widths[s]), mm[s].p)
						if i%2 == 0 {
							x[s].Sub(mm[s].p, one)
						}
						e[s] = randBits(rng, bits[s])
					}
					got := expWalk(mm, x, e)
					for s := range 2 {
						if want := mm[s].exp(x[s], e[s]); got[s].Cmp(want) != 0 {
							t.Fatalf("widths %v, exponent bits %v: stream %d = %x, want %x", widths, bits, s, got[s], want)
						}
					}
				}
			}
		}
	})
}

// TestModExpFallsBack: an even modulus, another width and a negative
// exponent take big.Int.Exp, with its results.
func TestModExpFallsBack(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	even := new(big.Int).Lsh(Oakley2.P, 1)
	narrow := randBits(rng, 64*6)
	narrow.SetBit(narrow, 64*6-1, 1).SetBit(narrow, 0, 1)
	for _, m := range []*big.Int{even, narrow} {
		if newMontModulus(m) != nil {
			t.Fatalf("a context for m=%x", m)
		}
	}
	x, e := big.NewInt(7), randBits(rng, 200)
	for _, m := range []*big.Int{even, narrow, TestGroup.P} {
		want := new(big.Int).Exp(x, e, m)
		if expSecretOn(newMontModulus(m), x, e, m).Cmp(want) != 0 || expPublicOn(newMontModulus(m), x, e, m).Cmp(want) != 0 {
			t.Fatalf("m=%x: x^e differs from big.Int.Exp", m)
		}
	}
	neg := big.NewInt(-3)
	if got, want := expSecretOn(newMontModulus(TestGroup.P), x, neg, TestGroup.P), new(big.Int).Exp(x, neg, TestGroup.P); got.Cmp(want) != 0 {
		t.Fatal("a negative exponent differs from big.Int.Exp")
	}
}

// TestSharedMatchesPortable: Shared, on the kernel where it runs, and
// PortableShared agree on every group for short and full-length private
// values.
func TestSharedMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	for name, g := range map[string]DHGroup{"TestGroup": TestGroup, "Oakley1": Oakley1, "Oakley2": Oakley2} {
		for _, bits := range []int{shortExponentBits, g.Bits() - 1} {
			for range 4 {
				x := randBits(rng, bits)
				x.SetBit(x, bits-1, 1)
				peer := g.Public(randBits(rng, shortExponentBits))
				got, err := g.Shared(x, peer)
				if err != nil {
					t.Fatal(err)
				}
				want, err := g.PortableShared(x, peer)
				if err != nil {
					t.Fatal(err)
				}
				if got.Cmp(want) != 0 {
					t.Fatalf("%s: a %d-bit Shared differs from PortableShared", name, bits)
				}
			}
		}
	}
}

// TestKernelConcurrentUse: on every kernel the CPU has, the Oakley
// contexts and fixed-base tables are built once and then read by every
// caller; four goroutines computing g^x and Shared on both groups at once
// agree with big.Int.Exp.
func TestKernelConcurrentUse(t *testing.T) {
	onEachKernel(t, func(t *testing.T, kind montKind) {
		var wg sync.WaitGroup
		for w := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(w), 6))
				for i := range 8 {
					g := [2]DHGroup{Oakley1, Oakley2}[i%2]
					x := randBits(rng, shortExponentBits)
					x.SetBit(x, shortExponentBits-1, 1)
					pub := g.Public(x)
					if pub.Cmp(new(big.Int).Exp(g.G, x, g.P)) != 0 {
						t.Errorf("goroutine %d: g^x differs from big.Int.Exp", w)
						return
					}
					got, err := g.Shared(x, pub)
					if err != nil {
						t.Error(err)
						return
					}
					if want, _ := g.PortableShared(x, pub); got.Cmp(want) != 0 {
						t.Errorf("goroutine %d: Shared differs from PortableShared", w)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}

// FuzzModExp holds every kernel the CPU has to big.Int.Exp for any odd
// modulus of a width the kernels serve (picked by len(mod) mod 3; mod's bytes fill it from the
// top, so short inputs give moduli with long runs of zero words), any base
// and any exponent of up to 1024 bits.
func FuzzModExp(f *testing.F) {
	f.Add(Oakley2.P.Bytes(), []byte{2}, []byte{0xff, 0xff})
	f.Add(Oakley1.P.Bytes(), Oakley1.P.Bytes(), []byte{1, 0, 1})
	f.Add(TestGroup.P.Bytes(), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, mod, base, exp []byte) {
		if len(exp) > 128 {
			exp = exp[:128]
		}
		n := montWidths[len(mod)%3]
		mb := make([]byte, 8*n)
		copy(mb, mod)
		mb[7] |= 1 // a non-zero top word: exactly n words
		mb[len(mb)-1] |= 1
		m := new(big.Int).SetBytes(mb)
		x, e := new(big.Int).SetBytes(base), new(big.Int).SetBytes(exp)
		want := new(big.Int).Exp(x, e, m)
		for _, kind := range hostKernels() {
			mm := newMontModulusOn(kind, m)
			if mm == nil {
				t.Fatalf("%s: no %d-word context for m=%x", kernelNames[kind], n, m)
			}
			if got := mm.exp(x, e); got.Cmp(want) != 0 {
				t.Fatalf("%s: exp(%x, %x) mod %x = %x, want %x", kernelNames[kind], x, e, m, got, want)
			}
			if got := mm.expPublic(x, e); got.Cmp(want) != 0 {
				t.Fatalf("%s: expPublic(%x, %x) mod %x = %x, want %x", kernelNames[kind], x, e, m, got, want)
			}
		}
	})
}

// rsaGoldenKey is a fixed 1024-bit CRT key, and rsaGoldenSig its signature
// over rsaGoldenMsg as big.Int.Exp computed it before the kernel existed:
// the padding is deterministic, so the signature is a constant.
const (
	rsaGoldenP   = "fb31b8399e8e8deab2e38e73bc106749cff77831ae10c023b82d002866aff512781318fd4c58a4a791502c42efc9b77cf927f387b00d0c4b08c9f7edc3660a41"
	rsaGoldenQ   = "d86dc0a24557538cdd4fa5582811a20eb04ecbeb4243ef3746e77d2bed0bae38cd875e2b72a9424686eca95212fa874c653c8feb55e5d6f8d173b8eb0c6d2881"
	rsaGoldenSig = "15d697889434fcd960c2d1310153fd18e00c2b49a7179a5fd628c74d19f522a535665c244f03c9d591c1e7e548b2147a622bb3e2169b6a4260ce65719aab63d82c44d8649dfab7d65340f308aefa6cd048ed2d6f04adc2b8704a4b984f2666c4cff17502ec66ad371d54ae8ee4a9c488891aecbfb443b5d3b5820488ca32c290"
	rsaGoldenMsg = "certificate: 10.0.0.1, Oakley 2"
)

func rsaGoldenKey(t testing.TB) *RSAPrivateKey {
	t.Helper()
	p, _ := new(big.Int).SetString(rsaGoldenP, 16)
	q, _ := new(big.Int).SetString(rsaGoldenQ, 16)
	return newRSAKey(p, q, big.NewInt(65537))
}

func bigExp(x, e, m *big.Int) *big.Int { return new(big.Int).Exp(x, e, m) }

// TestRSASignGolden: the 1024-bit key's signature is the one math/big
// produced before the kernel, by CRT and by the full-size exponent, and
// the kernel and big.Int.Exp agree on 200 further messages and on Verify
// of each signature and of a corrupted copy.
func TestRSASignGolden(t *testing.T) {
	k := rsaGoldenKey(t)
	want, _ := hex.DecodeString(rsaGoldenSig)
	plain := &RSAPrivateKey{RSAPublicKey: k.RSAPublicKey, D: k.D}
	for _, key := range []*RSAPrivateKey{k, plain} {
		sig, err := key.Sign([]byte(rsaGoldenMsg))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sig, want) {
			t.Fatalf("signature %x, want %x", sig, want)
		}
	}
	rng := rand.New(rand.NewPCG(5, 5))
	for i := range 200 {
		msg := randBits(rng, 8+8*(i%100)).Bytes()
		got, err := k.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		portable, err := k.sign(msg, bigExp, bigExp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, portable) {
			t.Fatalf("message %d: kernel signature differs from big.Int.Exp's", i)
		}
		bad := bytes.Clone(got)
		bad[i%len(bad)] ^= 1
		for _, s := range [][]byte{got, bad} {
			if k.Verify(msg, s) != k.verify(msg, s, bigExp) {
				t.Fatalf("message %d: Verify differs from big.Int.Exp's", i)
			}
		}
	}
}

// BenchmarkRSA1024 prices the certificate half of a keying miss on the
// 1024-bit key a domain CA draws: Sign (two 512-bit CRT halves and the
// check of the result) and Verify (e = 65537), each on the kernel where
// the CPU has it and on big.Int.Exp ("-portable").
func BenchmarkRSA1024(b *testing.B) {
	k := rsaGoldenKey(b)
	msg := []byte(rsaGoldenMsg)
	sig, err := k.Sign(msg)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range []struct {
		name string
		op   func() bool
	}{
		{"Sign", func() bool { _, err := k.Sign(msg); return err == nil }},
		{"Sign-portable", func() bool { _, err := k.sign(msg, bigExp, bigExp); return err == nil }},
		{"Verify", func() bool { return k.Verify(msg, sig) }},
		{"Verify-portable", func() bool { return k.verify(msg, sig, bigExp) }},
	} {
		b.Run(row.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !row.op() {
					b.Fatal("RSA operation failed")
				}
			}
		})
	}
}

// BenchmarkMontKernel prices one product, one squaring and one
// two-stream product (two products, one per stream) on every kernel the
// CPU has, at 512 and 1024 bits.
func BenchmarkMontKernel(b *testing.B) {
	for _, kind := range hostKernels() {
		for _, m := range []*big.Int{TestGroup.P, Oakley2.P} {
			mm := newMontModulusOn(kind, m)
			st := newMontStreams([2]*montModulus{mm, mm})
			var x, y [2]montNat
			mm.toMont(&x[0], big.NewInt(3))
			mm.toMont(&y[0], big.NewInt(5))
			x[1], y[1] = x[0], y[0]
			name := fmt.Sprintf("%s/%d", kernelNames[kind], m.BitLen())
			b.Run(name+"/mul", func(b *testing.B) {
				for range b.N {
					mm.mul(&x[0], &x[0], &y[0])
				}
			})
			b.Run(name+"/sqr", func(b *testing.B) {
				for range b.N {
					mm.sqr(&x[0], &x[0])
				}
			})
			b.Run(name+"/mul2", func(b *testing.B) {
				for range b.N {
					st.mul(&x, &y)
				}
			})
		}
	}
}
