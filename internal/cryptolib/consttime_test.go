package cryptolib

import (
	"math/big"
	"math/rand/v2"
	"testing"

	"fbs/internal/dudect"
)

// exponentClasses returns n exponents of each secret class, all of bits
// bits: class 0 is the sparse 2^(bits-1)+1, whose 4-bit windows are all
// zero but the first and the last, class 1 a random value with its top
// bit set. Each sample is its own big.Int, so the classes differ in value
// only.
func exponentClasses(rng *rand.Rand, n, bits int) [2][]*big.Int {
	sparse := new(big.Int).SetBit(big.NewInt(1), bits-1, 1)
	var in [2][]*big.Int
	for range n {
		r := randBits(rng, bits)
		in[0] = append(in[0], new(big.Int).Set(sparse))
		in[1] = append(in[1], r.SetBit(r, bits-1, 1))
	}
	return in
}

// TestConstantTime holds doc.go's constant-time claims to a measurement
// (dudect: a leak is a |t| above 4.5 on the raw or the cropped samples
// that a retake on a fresh class sequence repeats in the same
// direction). On each kernel the CPU has — IFMA and MULX on an IFMA CPU
// — Shared, the fixed-base Public, both CRT halves of Sign and the
// two-stream walk that runs them together take the same time for a sparse
// and a random secret exponent of one length, and MACID.Verify takes the
// same time for a tag wrong in its first byte and one wrong in its last.
//
// PortableShared, big.Int.Exp, must leak under Shared's classes in the
// same run: a control that reads clean means the host hides what this
// test looks for, and the test fails rather than pass blind. The control
// runs on one-word exponents, which big.Int.Exp walks bit by bit
// (square-and-multiply), so it leaks by the exponent's weight whatever
// the host's noise; the kernel walks the same sixteen windows for either
// class. Shared is also measured at GeneratePrivate's 256 bits.
//
// It takes about 10 s per kernel and skips under -race and -short; `make ci-soak`
// runs it once and `make nightly` ten times.
func TestConstantTime(t *testing.T) {
	dudect.SkipUntimed(t)
	rng := rand.New(rand.NewPCG(11, 7))
	check := func(name string, want bool, r dudect.Result) {
		t.Helper()
		t.Logf("%s: %v", name, r)
		switch {
		case want && !r.Leaks():
			t.Errorf("%s: %v, want a leak above %.1f: instrument lacks power", name, r, dudect.Threshold)
		case !want && r.Leaks():
			t.Errorf("%s: %v: its time depends on the secret class", name, r)
		}
	}

	const macSamples = 200000
	key, msg := make([]byte, 16), make([]byte, 64)
	tag := MACPrefixMD5.Compute(key, msg)
	var tags [2][][]byte
	for range macSamples {
		for c, at := range [2]int{0, len(tag) - 1} {
			wrong := append([]byte(nil), tag...)
			wrong[at] ^= 1
			tags[c] = append(tags[c], wrong)
		}
	}
	check("MACID.Verify", false, dudect.Measure(macSamples, 1, func(c, i int) {
		MACPrefixMD5.Verify(key, tags[c][i], msg)
	}))

	if len(hostKernels()) == 0 {
		t.Skip("no Montgomery kernel on this CPU: the exponentiations run on big.Int.Exp, which claims nothing")
	}
	g := Oakley2
	peer := g.Public(big.NewInt(0x5eed))
	k := rsaGoldenKey(t)
	m := new(big.Int).SetBytes([]byte(rsaGoldenMsg))
	for _, kind := range hostKernels() {
		useKernel(t, kind)
		name := func(row string) string { return kernelNames[kind] + ": " + row }
		word := exponentClasses(rng, 8000, 64)
		check(name("DHGroup.Shared, one-word exponents"), false, dudect.Measure(8000, 2, func(c, i int) {
			g.Shared(word[c][i], peer)
		}))
		if kind == montBest {
			check("DHGroup.PortableShared, one-word exponents (control)", true, dudect.Measure(4000, 3, func(c, i int) {
				g.PortableShared(word[c][i], peer)
			}))
		}
		full := exponentClasses(rng, 8000, shortExponentBits)
		check(name("DHGroup.Shared"), false, dudect.Measure(8000, 4, func(c, i int) {
			g.Shared(full[c][i], peer)
		}))
		pub := exponentClasses(rng, 40000, shortExponentBits)
		check(name("DHGroup.Public"), false, dudect.Measure(40000, 5, func(c, i int) {
			g.Public(pub[c][i])
		}))
		var halves [2][2][]*big.Int
		for h, half := range []struct {
			row      string
			prime, d *big.Int
		}{{"Sign, the half mod p", k.p, k.dP}, {"Sign, the half mod q", k.q, k.dQ}} {
			ds := exponentClasses(rng, 20000, half.d.BitLen())
			halves[0][h], halves[1][h] = ds[0], ds[1]
			check(name(half.row), false, dudect.Measure(20000, 6, func(c, i int) {
				expSecretOn(newMontModulus(half.prime), m, ds[c][i], half.prime)
			}))
		}
		check(name("Sign, both halves as one two-stream walk"), false, dudect.Measure(20000, 7, func(c, i int) {
			expCRT(newMontModulus(k.p), newMontModulus(k.q), m, halves[c][0][i], k.p, halves[c][1][i], k.q)
		}))
	}
}
