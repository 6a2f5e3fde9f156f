package principal

import (
	"math/big"
	"strings"
	"testing"
	"testing/quick"

	"fbs/internal/cryptolib"
)

func TestMasterKeySymmetric(t *testing.T) {
	g := cryptolib.TestGroup
	s, err := NewIdentity("10.0.0.1", g)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewIdentity("10.0.0.2", g)
	if err != nil {
		t.Fatal(err)
	}
	k1, err := s.MasterKey(d.Public)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := d.MasterKey(s.Public)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("pair-based master keys differ between the two sides")
	}
}

func TestRekeyInvalidatesMasterKey(t *testing.T) {
	g := cryptolib.TestGroup
	s, _ := NewIdentity("a", g)
	d, _ := NewIdentity("b", g)
	before, _ := s.MasterKey(d.Public)
	oldPub := new(big.Int).Set(d.Public)
	if err := d.Rekey(); err != nil {
		t.Fatal(err)
	}
	if d.Public.Cmp(oldPub) == 0 {
		t.Fatal("Rekey did not change the public value")
	}
	after, _ := s.MasterKey(d.Public)
	if before == after {
		t.Fatal("master key unchanged after peer rekey")
	}
	// The two sides still agree after the rekey.
	other, _ := d.MasterKey(s.Public)
	if after != other {
		t.Fatal("sides disagree after rekey")
	}
}

func TestNewIdentityValidation(t *testing.T) {
	if _, err := NewIdentity("", cryptolib.TestGroup); err == nil {
		t.Error("empty address accepted")
	}
	// The range is GeneratePrivate's, 1 < x < P-1: x = 1 publishes g and
	// makes every K_{S,D} the hash of the peer's certified public value;
	// x = P-1 publishes 1, which no peer will key with.
	p := cryptolib.TestGroup.P
	for _, c := range []struct {
		x  *big.Int
		ok bool
	}{
		{big.NewInt(0), false},
		{big.NewInt(1), false},
		{big.NewInt(2), true},
		{new(big.Int).Sub(p, big.NewInt(2)), true},
		{new(big.Int).Sub(p, big.NewInt(1)), false},
		{p, false},
	} {
		id, err := NewIdentityWithPrivate("a", cryptolib.TestGroup, c.x)
		if (err == nil) != c.ok {
			t.Errorf("private value %v: err = %v, want accepted = %v", c.x, err, c.ok)
		}
		if err == nil && (id.Public.Cmp(big.NewInt(1)) <= 0 || id.Public.Cmp(cryptolib.TestGroup.G) == 0) {
			t.Errorf("private value %v accepted with public value %v", c.x, id.Public)
		}
	}
}

func TestAddressWireRoundTrip(t *testing.T) {
	f := func(s string) bool {
		if len(s) > 65535 {
			s = s[:65535]
		}
		a := Address(s)
		got, n, err := DecodeAddress(a.Wire())
		return err == nil && got == a && n == len(a.Wire())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeAddressTruncated(t *testing.T) {
	if _, _, err := DecodeAddress([]byte{0}); err == nil {
		t.Error("1-byte input accepted")
	}
	if _, _, err := DecodeAddress([]byte{0, 10, 'a'}); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestStringDoesNotLeakPrivate(t *testing.T) {
	id, _ := NewIdentity("host-a", cryptolib.TestGroup)
	s := id.String()
	if !strings.Contains(s, "host-a") {
		t.Errorf("String() = %q, want address included", s)
	}
	if strings.Contains(s, id.Public.String()) {
		t.Errorf("String() should not dump key material")
	}
}

func TestDeterministicIdentity(t *testing.T) {
	g := cryptolib.TestGroup
	a1, err := NewIdentityWithPrivate("x", g, big.NewInt(12345))
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := NewIdentityWithPrivate("x", g, big.NewInt(12345))
	if a1.Public.Cmp(a2.Public) != 0 {
		t.Fatal("same private value produced different public values")
	}
}
