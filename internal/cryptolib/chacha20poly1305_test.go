package cryptolib

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex constant: %v", err)
	}
	return b
}

// RFC 8439 section 2.3.2: ChaCha20 block function test vector (the
// keystream for counter 1 used by the encryption example in 2.4.2).
func TestChaCha20BlockVector(t *testing.T) {
	key := unhex(t, "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
	nonce := unhex(t, "000000090000004a00000000")
	var k [8]uint32
	for i := range k {
		k[i] = binary.LittleEndian.Uint32(key[4*i:])
	}
	var n [3]uint32
	for i := range n {
		n[i] = binary.LittleEndian.Uint32(nonce[4*i:])
	}
	var block [64]byte
	chachaBlock(&k, &n, 1, &block)
	want := unhex(t, "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"+
		"d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e")
	if !bytes.Equal(block[:], want) {
		t.Fatalf("chacha20 block mismatch:\n got %x\nwant %x", block[:], want)
	}
}

// poly1305Tag computes the one-shot Poly1305 MAC of msg under key (the
// AEAD path uses polyAEADTag).
func poly1305Tag(key *[32]byte, msg []byte) [16]byte {
	var p poly1305
	p.init(key)
	p.update(msg)
	var tag [16]byte
	p.sum(&tag)
	return tag
}

// RFC 8439 section 2.5.2: Poly1305 MAC test vector.
func TestPoly1305Vector(t *testing.T) {
	keyBytes := unhex(t, "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
	var key [32]byte
	copy(key[:], keyBytes)
	msg := []byte("Cryptographic Forum Research Group")
	tag := poly1305Tag(&key, msg)
	want := unhex(t, "a8061dc1305136c6c22b8baf0c0127a9")
	if !bytes.Equal(tag[:], want) {
		t.Fatalf("poly1305 tag mismatch:\n got %x\nwant %x", tag[:], want)
	}
}

// RFC 8439 section 2.8.2: full AEAD construction test vector.
func TestChaCha20Poly1305AEADVector(t *testing.T) {
	key := unhex(t, "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f")
	nonce := unhex(t, "070000004041424344454647")
	aad := unhex(t, "50515253c0c1c2c3c4c5c6c7")
	plaintext := []byte("Ladies and Gentlemen of the class of '99: If I could offer you " +
		"only one tip for the future, sunscreen would be it.")
	wantCT := unhex(t, "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"+
		"3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"+
		"92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"+
		"3ff4def08e4b7a9de576d26586cec64b6116")
	wantTag := unhex(t, "1ae10b594f09e26a7e902ecbd0600691")

	a, err := NewChaCha20Poly1305(key)
	if err != nil {
		t.Fatalf("NewChaCha20Poly1305: %v", err)
	}
	sealed := a.Seal(nil, nonce, plaintext, aad)
	if got := sealed[:len(plaintext)]; !bytes.Equal(got, wantCT) {
		t.Fatalf("ciphertext mismatch:\n got %x\nwant %x", got, wantCT)
	}
	if got := sealed[len(plaintext):]; !bytes.Equal(got, wantTag) {
		t.Fatalf("tag mismatch:\n got %x\nwant %x", got, wantTag)
	}

	plain, err := a.Open(nil, nonce, sealed, aad)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !bytes.Equal(plain, plaintext) {
		t.Fatalf("roundtrip plaintext mismatch")
	}

	// Tamper detection: any flipped bit in ciphertext, tag, or AAD fails.
	for _, i := range []int{0, len(plaintext) / 2, len(sealed) - 1} {
		bad := append([]byte(nil), sealed...)
		bad[i] ^= 0x40
		if _, err := a.Open(nil, nonce, bad, aad); err == nil {
			t.Fatalf("Open accepted tampered byte %d", i)
		}
	}
	badAAD := append([]byte(nil), aad...)
	badAAD[3] ^= 0x01
	if _, err := a.Open(nil, nonce, sealed, badAAD); err == nil {
		t.Fatal("Open accepted tampered AAD")
	}
}

// In-place Seal/Open (the dst = buf[:0] aliasing form the data plane uses)
// must produce identical bytes to the allocating form.
func TestChaCha20Poly1305InPlace(t *testing.T) {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i * 7)
	}
	nonce := make([]byte, 12)
	for i := range nonce {
		nonce[i] = byte(0xA0 + i)
	}
	aad := []byte("header bytes")
	a, err := NewChaCha20Poly1305(key)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 15, 16, 17, 63, 64, 65, 256, 1460} {
		pt := make([]byte, n)
		for i := range pt {
			pt[i] = byte(i)
		}
		ref := a.Seal(nil, nonce, pt, aad)

		buf := make([]byte, n, n+Poly1305TagSize)
		copy(buf, pt)
		inPlace := a.Seal(buf[:0], nonce, buf, aad)
		if !bytes.Equal(inPlace, ref) {
			t.Fatalf("n=%d: in-place Seal mismatch", n)
		}

		opened, err := a.Open(inPlace[:0], nonce, inPlace, aad)
		if err != nil {
			t.Fatalf("n=%d: in-place Open: %v", n, err)
		}
		if !bytes.Equal(opened, pt) {
			t.Fatalf("n=%d: in-place Open plaintext mismatch", n)
		}
	}
}

// Incremental poly1305 update must match one-shot regardless of how the
// message is split (exercises the internal 16-byte buffering).
func TestPoly1305Incremental(t *testing.T) {
	var key [32]byte
	for i := range key {
		key[i] = byte(i + 1)
	}
	msg := make([]byte, 203)
	for i := range msg {
		msg[i] = byte(i * 31)
	}
	want := poly1305Tag(&key, msg)
	for _, chunk := range []int{1, 3, 7, 15, 16, 17, 64} {
		var p poly1305
		p.init(&key)
		for off := 0; off < len(msg); off += chunk {
			end := off + chunk
			if end > len(msg) {
				end = len(msg)
			}
			p.update(msg[off:end])
		}
		var tag [16]byte
		p.sum(&tag)
		if tag != want {
			t.Fatalf("chunk=%d: incremental tag mismatch", chunk)
		}
	}
}
