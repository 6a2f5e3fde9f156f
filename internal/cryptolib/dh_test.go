package cryptolib

import (
	"crypto/rand"
	"math/big"
	"testing"
)

func TestDHCommutes(t *testing.T) {
	g := TestGroup
	s, err := g.GeneratePrivate()
	if err != nil {
		t.Fatal(err)
	}
	d, err := g.GeneratePrivate()
	if err != nil {
		t.Fatal(err)
	}
	sPub := g.Public(s)
	dPub := g.Public(d)
	k1, err := g.Shared(s, dPub)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := g.Shared(d, sPub)
	if err != nil {
		t.Fatal(err)
	}
	if k1.Cmp(k2) != 0 {
		t.Fatal("g^sd != g^ds")
	}
	if MasterKey(k1) != MasterKey(k2) {
		t.Fatal("master keys differ")
	}
}

func TestDHRejectsDegenerate(t *testing.T) {
	g := TestGroup
	s, _ := g.GeneratePrivate()
	bad := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(g.P, big.NewInt(1)),
		new(big.Int).Neg(big.NewInt(5)),
		new(big.Int).Add(g.P, big.NewInt(2)),
	}
	for _, b := range bad {
		if _, err := g.Shared(s, b); err == nil {
			t.Errorf("Shared accepted degenerate public value %v", b)
		}
	}
}

func TestOakleyGroups(t *testing.T) {
	if Oakley1.Bits() != 768 {
		t.Errorf("Oakley1 is %d bits, want 768", Oakley1.Bits())
	}
	if Oakley2.Bits() != 1024 {
		t.Errorf("Oakley2 is %d bits, want 1024", Oakley2.Bits())
	}
	for _, g := range []DHGroup{Oakley1, Oakley2, TestGroup} {
		if !g.P.ProbablyPrime(16) {
			t.Error("group modulus is composite")
		}
	}
}

func TestDHDistinctPairsDistinctKeys(t *testing.T) {
	g := TestGroup
	a, _ := g.GeneratePrivate()
	b, _ := g.GeneratePrivate()
	c, _ := g.GeneratePrivate()
	kab, _ := g.Shared(a, g.Public(b))
	kac, _ := g.Shared(a, g.Public(c))
	if kab.Cmp(kac) == 0 {
		t.Fatal("different peers produced the same master secret")
	}
}

func TestGeneratePrivateInRange(t *testing.T) {
	g := TestGroup
	for i := 0; i < 16; i++ {
		x, err := g.GeneratePrivate()
		if err != nil {
			t.Fatal(err)
		}
		if x.Cmp(big.NewInt(2)) < 0 || x.Cmp(g.P) >= 0 {
			t.Fatalf("private value %v out of range", x)
		}
	}
}

// TestBuiltinSafePrimes pins what the short-exponent draw rests on: for
// Oakley 1 and 2, q = (p-1)/2 is prime and the generator has order q;
// TestGroup is no safe prime and must not be taken for one.
func TestBuiltinSafePrimes(t *testing.T) {
	one := big.NewInt(1)
	half := func(g DHGroup) *big.Int { return new(big.Int).Rsh(new(big.Int).Sub(g.P, one), 1) }
	for name, g := range map[string]DHGroup{"Oakley1": Oakley1, "Oakley2": Oakley2} {
		q := half(g)
		if !q.ProbablyPrime(32) {
			t.Errorf("%s: (p-1)/2 is composite", name)
		}
		if new(big.Int).Exp(g.G, q, g.P).Cmp(one) != 0 {
			t.Errorf("%s: g^q != 1, the generator is not of order q", name)
		}
		if !g.builtinSafePrime() {
			t.Errorf("%s not recognised as a built-in safe-prime group", name)
		}
	}
	if half(TestGroup).ProbablyPrime(32) {
		t.Error("TestGroup's (p-1)/2 is prime; the comments and the full-range draw assume it is not")
	}
	if TestGroup.builtinSafePrime() {
		t.Error("TestGroup recognised as a built-in safe-prime group")
	}
	// Same modulus, another generator: its order is not known to be q.
	if (DHGroup{P: Oakley2.P, G: big.NewInt(5)}).builtinSafePrime() {
		t.Error("Oakley 2's modulus with generator 5 recognised as built-in")
	}
}

// TestFixedBasePublic: on both Oakley groups — also when the group is
// a copy, recognised by value — the fixed-base table gives big.Int.Exp's
// g^x for exponents of every length from 2 to 256 bits, with random,
// all-one and all-zero 4-bit digits. Longer exponents, and TestGroup,
// take big.Int.Exp itself.
func TestFixedBasePublic(t *testing.T) {
	two := big.NewInt(2)
	groups := map[string]DHGroup{
		"Oakley1": Oakley1, "Oakley2": Oakley2,
		"Oakley2 by value": {P: new(big.Int).Set(Oakley2.P), G: big.NewInt(2)},
	}
	for name, g := range groups {
		for bits := 2; bits <= shortExponentBits; bits++ {
			top := new(big.Int).Lsh(big.NewInt(1), uint(bits-1))
			random, err := rand.Int(rand.Reader, top)
			if err != nil {
				t.Fatal(err)
			}
			xs := []*big.Int{
				random.Add(random, top),                                   // random digits, top bit set
				new(big.Int).Sub(new(big.Int).Lsh(top, 1), big.NewInt(1)), // every digit 0xF
				new(big.Int).Add(top, big.NewInt(1)),                      // every inner digit 0
			}
			for _, x := range xs {
				if g.fixedBase(x) == nil {
					t.Fatalf("%s: a %d-bit exponent does not take the table", name, bits)
				}
				if got, want := g.Public(x), new(big.Int).Exp(g.G, x, g.P); got.Cmp(want) != 0 {
					t.Fatalf("%s: g^%x from the table differs from big.Int.Exp", name, x)
				}
			}
		}
		for _, bits := range []int{shortExponentBits + 1, g.Bits() - 1} {
			x := new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), uint(bits-1)), two)
			if g.fixedBase(x) != nil {
				t.Errorf("%s: a %d-bit exponent takes the table", name, bits)
			}
			if g.Public(x).Cmp(new(big.Int).Exp(g.G, x, g.P)) != 0 {
				t.Errorf("%s: a %d-bit g^x differs from big.Int.Exp", name, bits)
			}
		}
	}
	x := big.NewInt(12345)
	if TestGroup.fixedBase(x) != nil {
		t.Error("TestGroup takes a fixed-base table")
	}
	if TestGroup.Public(x).Cmp(new(big.Int).Exp(TestGroup.G, x, TestGroup.P)) != 0 {
		t.Error("TestGroup's g^x differs from big.Int.Exp")
	}
}

// TestShortAndFullExponentsAgree: a full-length private value from a
// state file written before the short draw, and a short one, derive the
// same K_{S,D} from either side.
func TestShortAndFullExponentsAgree(t *testing.T) {
	for name, g := range map[string]DHGroup{"Oakley1": Oakley1, "Oakley2": Oakley2} {
		// The old draw: uniform in [2, p-2].
		legacy, err := rand.Int(rand.Reader, new(big.Int).Sub(g.P, big.NewInt(3)))
		if err != nil {
			t.Fatal(err)
		}
		legacy.Add(legacy, big.NewInt(2))
		if legacy.BitLen() < g.Bits()-64 {
			t.Fatalf("%s: legacy draw is only %d bits", name, legacy.BitLen())
		}
		short, err := g.GeneratePrivate()
		if err != nil {
			t.Fatal(err)
		}
		a, err := g.Shared(legacy, g.Public(short))
		if err != nil {
			t.Fatal(err)
		}
		b, err := g.Shared(short, g.Public(legacy))
		if err != nil {
			t.Fatal(err)
		}
		if MasterKey(a) != MasterKey(b) {
			t.Errorf("%s: a %d-bit and a %d-bit private value disagree on K_{S,D}", name, legacy.BitLen(), short.BitLen())
		}
	}
}
