package cryptolib

import (
	"bytes"
	"encoding/hex"
	"math/big"
	"math/rand/v2"
	"sync"
	"testing"
)

// montWidths are the widths, in 64-bit words, the kernel serves.
var montWidths = [3]int{8, 12, 16}

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

// TestMontProductAgainstBig: montMul and montSqr return x·y·R⁻¹ mod m,
// fully reduced, at every width, for edge and random operands below m.
func TestMontProductAgainstBig(t *testing.T) {
	if !useMont {
		t.Skip("no Montgomery kernel on this CPU")
	}
	rng := rand.New(rand.NewPCG(1, 1))
	for _, n := range montWidths {
		for _, m := range montTestModuli(rng, n) {
			mm := newMontModulus(m)
			rInv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), uint(64*n)), m)
			ops := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(m, big.NewInt(1)), new(big.Int).Sub(m, big.NewInt(2))}
			for range 8 {
				ops = append(ops, new(big.Int).Mod(randBits(rng, 64*n), m))
			}
			for _, x := range ops {
				for _, y := range ops {
					var xm, ym, z montNat
					loadNat(&xm, x)
					loadNat(&ym, y)
					want := new(big.Int).Mul(x, y)
					want.Mul(want, rInv).Mod(want, m)
					mm.mul(&z, &xm, &ym)
					if got := natInt(&z); got.Cmp(want) != 0 {
						t.Fatalf("%d words, m=%x: mul(%x, %x) = %x, want %x", n, m, x, y, got, want)
					}
					if x != y {
						continue
					}
					mm.sqr(&z, &xm)
					if got := natInt(&z); got.Cmp(want) != 0 {
						t.Fatalf("%d words, m=%x: sqr(%x) = %x, want %x", n, m, x, got, want)
					}
				}
			}
		}
	}
}

func natInt(z *montNat) *big.Int {
	b := make([]byte, 8*montMaxWords)
	for i, w := range z {
		for j := range 8 {
			b[len(b)-1-8*i-j] = byte(w >> (8 * j))
		}
	}
	return new(big.Int).SetBytes(b)
}

// TestModExpAgainstBig: at every width the kernel's secret walk and its
// public square-and-multiply give big.Int.Exp's result byte for byte, for
// bases 0, 1, 2, m-1, m-2, random, m and above, and exponents 0, 1,
// 2^k-1, 256-bit and full-length.
func TestModExpAgainstBig(t *testing.T) {
	if !useMont {
		t.Skip("no Montgomery kernel on this CPU")
	}
	rng := rand.New(rand.NewPCG(2, 2))
	for _, n := range montWidths {
		for _, m := range montTestModuli(rng, n) {
			mm := newMontModulus(m)
			if mm == nil || mm.n != n {
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
		if expSecret(x, e, m).Cmp(want) != 0 || expPublic(x, e, m).Cmp(want) != 0 {
			t.Fatalf("m=%x: x^e differs from big.Int.Exp", m)
		}
	}
	neg := big.NewInt(-3)
	if got, want := expSecret(x, neg, TestGroup.P), new(big.Int).Exp(x, neg, TestGroup.P); got.Cmp(want) != 0 {
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

// TestKernelConcurrentUse: the Oakley contexts and fixed-base tables are
// built once and then read by every caller; four goroutines computing g^x
// and Shared on both groups at once agree with big.Int.Exp.
func TestKernelConcurrentUse(t *testing.T) {
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
}

// FuzzModExp holds the kernel to big.Int.Exp for any odd modulus of a
// width it serves (picked by len(mod) mod 3; mod's bytes fill it from the
// top, so short inputs give moduli with long runs of zero words), any base
// and any exponent of up to 1024 bits.
func FuzzModExp(f *testing.F) {
	f.Add(Oakley2.P.Bytes(), []byte{2}, []byte{0xff, 0xff})
	f.Add(Oakley1.P.Bytes(), Oakley1.P.Bytes(), []byte{1, 0, 1})
	f.Add(TestGroup.P.Bytes(), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, mod, base, exp []byte) {
		if !useMont {
			t.Skip("no Montgomery kernel on this CPU")
		}
		if len(exp) > 128 {
			exp = exp[:128]
		}
		n := montWidths[len(mod)%3]
		mb := make([]byte, 8*n)
		copy(mb, mod)
		mb[7] |= 1 // a non-zero top word: exactly n words
		mb[len(mb)-1] |= 1
		m := new(big.Int).SetBytes(mb)
		mm := newMontModulus(m)
		if mm == nil || mm.n != n {
			t.Fatalf("no %d-word context for m=%x", n, m)
		}
		x, e := new(big.Int).SetBytes(base), new(big.Int).SetBytes(exp)
		want := new(big.Int).Exp(x, e, m)
		if got := mm.exp(x, e); got.Cmp(want) != 0 {
			t.Fatalf("exp(%x, %x) mod %x = %x, want %x", x, e, m, got, want)
		}
		if got := mm.expPublic(x, e); got.Cmp(want) != 0 {
			t.Fatalf("expPublic(%x, %x) mod %x = %x, want %x", x, e, m, got, want)
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
	one, e := big.NewInt(1), big.NewInt(65537)
	phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
	d := new(big.Int).ModInverse(e, phi)
	return &RSAPrivateKey{
		RSAPublicKey: RSAPublicKey{N: new(big.Int).Mul(p, q), E: e}, D: d,
		p: p, q: q,
		dP:   new(big.Int).Mod(d, new(big.Int).Sub(p, one)),
		dQ:   new(big.Int).Mod(d, new(big.Int).Sub(q, one)),
		qInv: new(big.Int).ModInverse(q, p),
	}
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
