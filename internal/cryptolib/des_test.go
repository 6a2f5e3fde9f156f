package cryptolib

import (
	"bytes"
	"crypto/des"
	"crypto/rand"
	"encoding/hex"
	"testing"
	"testing/quick"
)

// TestDESKnownAnswer checks the canonical FIPS-46 style vector.
func TestDESKnownAnswer(t *testing.T) {
	key, _ := hex.DecodeString("133457799BBCDFF1")
	pt, _ := hex.DecodeString("0123456789ABCDEF")
	want, _ := hex.DecodeString("85E813540F0AB405")
	d, err := NewDES(key)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	d.Encrypt(got, pt)
	if !bytes.Equal(got, want) {
		t.Fatalf("DES(%x, %x) = %x, want %x", key, pt, got, want)
	}
	back := make([]byte, 8)
	d.Decrypt(back, got)
	if !bytes.Equal(back, pt) {
		t.Fatalf("decrypt: got %x, want %x", back, pt)
	}
}

// TestTripleDESKnownAnswer checks three-key EDE against the NIST SP
// 800-67 example (whose plaintext carries the standard's "qufck"), and
// two-key EDE with k1 = k2 against the single-DES vector, to which it
// reduces.
func TestTripleDESKnownAnswer(t *testing.T) {
	vectors := []struct{ key, pt, want string }{
		{
			"0123456789ABCDEF23456789ABCDEF01456789ABCDEF0123",
			hex.EncodeToString([]byte("The qufck brown fox jump")),
			"A826FD8CE53B855FCCE21C8112256FE668D5C05DD9B6B900",
		},
		{"133457799BBCDFF1133457799BBCDFF1", "0123456789ABCDEF", "85E813540F0AB405"},
	}
	for _, v := range vectors {
		key, _ := hex.DecodeString(v.key)
		pt, _ := hex.DecodeString(v.pt)
		want, _ := hex.DecodeString(v.want)
		c, err := NewTripleDES(key)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(pt))
		if _, err := EncryptMode(c, ECB, make([]byte, BlockSize), got, pt); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("3DES(%s) = %X, want %X", v.key, got, want)
		}
	}
}

// TestTripleDESAgainstStdlib pins the key handling: a 24-byte key is
// crypto/des's three-key EDE as given, and a two-key k1|k2 runs as
// k1|k2|k1.
func TestTripleDESAgainstStdlib(t *testing.T) {
	for _, klen := range []int{16, 24} {
		key := make([]byte, klen)
		if _, err := rand.Read(key); err != nil {
			t.Fatal(err)
		}
		stdKey := key
		if klen == 16 {
			stdKey = append(append([]byte{}, key...), key[:8]...)
		}
		ours, err := NewTripleDES(key)
		if err != nil {
			t.Fatal(err)
		}
		std, err := des.NewTripleDESCipher(stdKey)
		if err != nil {
			t.Fatal(err)
		}
		block := make([]byte, 8)
		rand.Read(block)
		a := make([]byte, 8)
		b := make([]byte, 8)
		ours.Encrypt(a, block)
		std.Encrypt(b, block)
		if !bytes.Equal(a, b) {
			t.Fatalf("3DES keylen %d: got %x, want %x", klen, a, b)
		}
		ours.Decrypt(a, a)
		if !bytes.Equal(a, block) {
			t.Fatalf("3DES keylen %d: roundtrip failed", klen)
		}
	}
}

func TestDESKeyLengthErrors(t *testing.T) {
	if _, err := NewDES(make([]byte, 7)); err == nil {
		t.Error("NewDES accepted a 7-byte key")
	}
	if _, err := NewDES(make([]byte, 9)); err == nil {
		t.Error("NewDES accepted a 9-byte key")
	}
	if _, err := NewTripleDES(make([]byte, 8)); err == nil {
		t.Error("NewTripleDES accepted an 8-byte key")
	}
}

// TestDESInPlace verifies dst may alias src, which the modes and the
// single-pass seal rely on.
func TestDESInPlace(t *testing.T) {
	key := []byte("8bytekey")
	d, err := NewDES(key)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("datagram")
	orig := append([]byte{}, buf...)
	d.Encrypt(buf, buf)
	if bytes.Equal(buf, orig) {
		t.Fatal("encryption was a no-op")
	}
	d.Decrypt(buf, buf)
	if !bytes.Equal(buf, orig) {
		t.Fatalf("in-place roundtrip: got %q, want %q", buf, orig)
	}
}

// TestDESComplementProperty checks the classic DES complementation
// property: E(~k, ~p) = ~E(k, p).
func TestDESComplementProperty(t *testing.T) {
	f := func(key [8]byte, block [8]byte) bool {
		var nkey, nblock [8]byte
		for i := range key {
			nkey[i] = ^key[i]
			nblock[i] = ^block[i]
		}
		d1, _ := NewDES(key[:])
		d2, _ := NewDES(nkey[:])
		a := make([]byte, 8)
		b := make([]byte, 8)
		d1.Encrypt(a, block[:])
		d2.Encrypt(b, nblock[:])
		for i := range a {
			if a[i] != ^b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
