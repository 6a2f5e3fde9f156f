package cryptolib

import (
	"bytes"
	"math/big"
	"testing"
)

func testRSAKey(t *testing.T) *RSAPrivateKey {
	t.Helper()
	k, err := GenerateRSA(512)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestRSASignVerify(t *testing.T) {
	k := testRSAKey(t)
	msg := []byte("public value certificate for principal 10.0.0.1")
	sig, err := k.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if !k.RSAPublicKey.Verify(msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if k.RSAPublicKey.Verify(append(msg, 'x'), sig) {
		t.Fatal("signature verified for different message")
	}
	sig[5] ^= 0x40
	if k.RSAPublicKey.Verify(msg, sig) {
		t.Fatal("corrupted signature accepted")
	}
}

func TestRSAVerifyWrongKey(t *testing.T) {
	k1 := testRSAKey(t)
	k2 := testRSAKey(t)
	msg := []byte("message")
	sig, err := k1.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if k2.RSAPublicKey.Verify(msg, sig) {
		t.Fatal("signature verified under wrong key")
	}
}

func TestRSAVerifyMalformedSig(t *testing.T) {
	k := testRSAKey(t)
	msg := []byte("message")
	if k.RSAPublicKey.Verify(msg, nil) {
		t.Fatal("nil signature accepted")
	}
	if k.RSAPublicKey.Verify(msg, make([]byte, 3)) {
		t.Fatal("short signature accepted")
	}
	big := make([]byte, (k.N.BitLen()+7)/8)
	for i := range big {
		big[i] = 0xFF
	}
	if k.RSAPublicKey.Verify(msg, big) {
		t.Fatal("oversized signature value accepted")
	}
}

func TestGenerateRSARejectsTiny(t *testing.T) {
	if _, err := GenerateRSA(128); err == nil {
		t.Fatal("GenerateRSA accepted 128-bit modulus")
	}
}

// TestRSACRTMatchesExp: the CRT signature is the signature — byte for
// byte what one full-size Exp(m, D, N) yields — over 1,000 random
// messages under each of three fresh keys.
func TestRSACRTMatchesExp(t *testing.T) {
	rng := NewLCGSeeded(19)
	for k := 0; k < 3; k++ {
		key := testRSAKey(t)
		if key.p == nil || key.qInv == nil {
			t.Fatal("GenerateRSA did not keep the CRT form")
		}
		plain := &RSAPrivateKey{RSAPublicKey: key.RSAPublicKey, D: key.D}
		for i := 0; i < 1000; i++ {
			msg := make([]byte, 1+rng.Uint32()%200)
			for j := range msg {
				msg[j] = byte(rng.Uint32())
			}
			got, err := key.Sign(msg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.Sign(msg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("key %d message %d: CRT signature differs from Exp(m, D, N)", k, i)
			}
		}
	}
}

// TestRSACRTFaultIsNotReleased: a CRT half computed wrong (here: a
// corrupted dP) would yield a value whose gcd with N is a prime factor;
// Sign must refuse to hand it out.
func TestRSACRTFaultIsNotReleased(t *testing.T) {
	key := testRSAKey(t)
	key.dP = new(big.Int).Add(key.dP, big.NewInt(2))
	if sig, err := key.Sign([]byte("message")); err == nil {
		t.Fatalf("faulty CRT signature released: %x", sig)
	}
}
