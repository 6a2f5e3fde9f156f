package cryptolib_test

import (
	"testing"
	"time"

	"fbs/internal/cert"
	"fbs/internal/cryptolib"
	"fbs/internal/principal"
)

// TestGeneratePrivateLength: on the built-in safe-prime groups every
// draw is exactly 256 bits — also when the group is one a certificate
// named (recognised by value, not by being the package variable) — and
// TestGroup keeps the whole range.
func TestGeneratePrivateLength(t *testing.T) {
	ca, err := cert.NewAuthority("length-root", 512)
	if err != nil {
		t.Fatal(err)
	}
	fromCert := func(g cryptolib.DHGroup) cryptolib.DHGroup {
		id, err := principal.NewIdentity("p", g)
		if err != nil {
			t.Fatal(err)
		}
		c, err := ca.Issue(id, time.Now().Add(-time.Hour), time.Now().Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := cert.Unmarshal(c.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		return decoded.Group()
	}
	for name, g := range map[string]cryptolib.DHGroup{
		"Oakley1": cryptolib.Oakley1, "Oakley2": cryptolib.Oakley2,
		"Oakley1 from a certificate": fromCert(cryptolib.Oakley1), "Oakley2 from a certificate": fromCert(cryptolib.Oakley2),
	} {
		for i := 0; i < 1000; i++ {
			x, err := g.GeneratePrivate()
			if err != nil {
				t.Fatal(err)
			}
			if x.BitLen() != 256 {
				t.Fatalf("%s: draw %d is %d bits, want exactly 256", name, i, x.BitLen())
			}
		}
	}
	longest := 0
	for i := 0; i < 1000; i++ {
		x, err := cryptolib.TestGroup.GeneratePrivate()
		if err != nil {
			t.Fatal(err)
		}
		longest = max(longest, x.BitLen())
	}
	if longest < cryptolib.TestGroup.Bits()-8 {
		t.Fatalf("TestGroup: longest of 1000 draws is %d bits; it must keep the full %d-bit range", longest, cryptolib.TestGroup.Bits())
	}
}
