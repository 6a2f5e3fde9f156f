package cryptolib

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	stddes "crypto/des"
	"crypto/rand"
	"testing"
	"testing/quick"
)

func testCipher(t *testing.T) cipher.Block {
	t.Helper()
	d, err := NewDES([]byte("01234567"))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestModesRoundTrip(t *testing.T) {
	d := testCipher(t)
	for _, mode := range []Mode{ECB, CBC, CFB, OFB} {
		t.Run(mode.String(), func(t *testing.T) {
			f := func(data []byte, iv [8]byte) bool {
				pt := Pad(data, BlockSize)
				ct := make([]byte, len(pt))
				if _, err := EncryptMode(d, mode, iv[:], ct, pt); err != nil {
					return false
				}
				back := make([]byte, len(ct))
				if _, err := DecryptMode(d, mode, iv[:], back, ct); err != nil {
					return false
				}
				out, err := Unpad(back, BlockSize)
				if err != nil {
					return false
				}
				return bytes.Equal(out, data)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCBCAgainstStdlib cross-checks CBC mode against crypto/cipher.
func TestCBCAgainstStdlib(t *testing.T) {
	key := []byte("cbc-key!")
	iv := []byte("initvect")
	d, err := NewDES(key)
	if err != nil {
		t.Fatal(err)
	}
	std, err := stddes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	pt := make([]byte, 64)
	rand.Read(pt)

	ours := make([]byte, len(pt))
	if _, err := EncryptMode(d, CBC, iv, ours, pt); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, len(pt))
	cipher.NewCBCEncrypter(std, iv).CryptBlocks(want, pt)
	if !bytes.Equal(ours, want) {
		t.Fatalf("CBC mismatch:\n got %x\nwant %x", ours, want)
	}
}

// TestOFBAgainstStdlib cross-checks OFB keystream against crypto/cipher.
func TestOFBAgainstStdlib(t *testing.T) {
	key := []byte("ofb-key!")
	iv := []byte("initvect")
	d, _ := NewDES(key)
	std, _ := stddes.NewCipher(key)
	pt := make([]byte, 64)
	rand.Read(pt)

	ours := make([]byte, len(pt))
	if _, err := EncryptMode(d, OFB, iv, ours, pt); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, len(pt))
	cipher.NewOFB(std, iv).XORKeyStream(want, pt)
	if !bytes.Equal(ours, want) {
		t.Fatalf("OFB mismatch:\n got %x\nwant %x", ours, want)
	}
}

func TestECBConfounderHidesIdenticalBlocks(t *testing.T) {
	d := testCipher(t)
	pt := bytes.Repeat([]byte("samedata"), 4) // four identical blocks
	iv1 := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	iv2 := []byte{8, 7, 6, 5, 4, 3, 2, 1}
	ct1 := make([]byte, len(pt))
	ct2 := make([]byte, len(pt))
	EncryptMode(d, ECB, iv1, ct1, pt)
	EncryptMode(d, ECB, iv2, ct2, pt)
	if bytes.Equal(ct1, ct2) {
		t.Fatal("different confounders produced identical ECB ciphertexts")
	}
	// Within one datagram, identical plaintext blocks still encrypt
	// identically under ECB+confounder — that is the documented residual
	// weakness of ECB relative to CBC, not a bug.
	if !bytes.Equal(ct1[0:8], ct1[8:16]) {
		t.Fatal("ECB mode is not deterministic per block")
	}
}

func TestModeErrors(t *testing.T) {
	d := testCipher(t)
	iv := make([]byte, 8)
	if _, err := EncryptMode(d, CBC, iv, make([]byte, 8), make([]byte, 7)); err == nil {
		t.Error("EncryptMode accepted unaligned plaintext")
	}
	if _, err := EncryptMode(d, CBC, iv[:4], make([]byte, 8), make([]byte, 8)); err == nil {
		t.Error("EncryptMode accepted short IV")
	}
	if _, err := EncryptMode(d, CBC, iv, make([]byte, 4), make([]byte, 8)); err == nil {
		t.Error("EncryptMode accepted short dst")
	}
	if _, err := DecryptMode(d, Mode(99), iv, make([]byte, 8), make([]byte, 8)); err == nil {
		t.Error("DecryptMode accepted unknown mode")
	}
	if _, err := EncryptMode(d, Mode(99), iv, make([]byte, 8), make([]byte, 8)); err == nil {
		t.Error("EncryptMode accepted unknown mode")
	}
	// A 16-byte block cipher is a cipher.Block too; the modes refuse it
	// rather than overrun their 8-byte scratch blocks.
	blk, err := aes.NewCipher(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ECB, CBC, CFB, OFB} {
		if _, err := EncryptMode(blk, mode, make([]byte, 16), make([]byte, 16), make([]byte, 16)); err == nil {
			t.Errorf("EncryptMode %v accepted a 16-byte block cipher", mode)
		}
		if _, err := DecryptMode(blk, mode, make([]byte, 16), make([]byte, 16), make([]byte, 16)); err == nil {
			t.Errorf("DecryptMode %v accepted a 16-byte block cipher", mode)
		}
	}
}

func TestPadUnpad(t *testing.T) {
	f := func(data []byte) bool {
		p := Pad(data, BlockSize)
		if len(p)%BlockSize != 0 || len(p) <= len(data) {
			return false
		}
		out, err := Unpad(p, BlockSize)
		return err == nil && bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUnpadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},                // unaligned
		{0, 0, 0, 0, 0, 0, 0, 0}, // pad byte 0
		{1, 1, 1, 1, 1, 1, 1, 9}, // pad byte > block size
		{1, 1, 1, 1, 1, 2, 3, 3}, // inconsistent padding
	}
	for _, c := range cases {
		if _, err := Unpad(c, BlockSize); err == nil {
			t.Errorf("Unpad(%v) succeeded, want error", c)
		}
	}
}

// TestCFBAgainstStdlib cross-checks CFB mode against crypto/cipher.
func TestCFBAgainstStdlib(t *testing.T) {
	key := []byte("cfb-key!")
	iv := []byte("initvect")
	d, _ := NewDES(key)
	std, _ := stddes.NewCipher(key)
	pt := make([]byte, 64)
	rand.Read(pt)

	ours := make([]byte, len(pt))
	if _, err := EncryptMode(d, CFB, iv, ours, pt); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, len(pt))
	cipher.NewCFBEncrypter(std, iv).XORKeyStream(want, pt)
	if !bytes.Equal(ours, want) {
		t.Fatalf("CFB mismatch:\n got %x\nwant %x", ours, want)
	}
	back := make([]byte, len(pt))
	if _, err := DecryptMode(d, CFB, iv, back, ours); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, pt) {
		t.Fatal("CFB decrypt mismatch")
	}
}
