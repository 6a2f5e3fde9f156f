package cryptolib

import (
	"bytes"
	"crypto/subtle"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex constant: %v", err)
	}
	return b
}

// chachaPath is one of the two keystream implementations behind a
// common shape, so every vector and property below runs against both by
// name: "go" is the portable block function, "kernel" is
// chachaKeystream8.
type chachaPath struct {
	name string
	new  func(key []byte) (*ChaCha20Poly1305, error)
	// stream returns n bytes of raw keystream from a block counter on.
	stream func(key *[8]uint32, nonce *[3]uint32, counter uint32, n int) []byte
}

// chachaPaths lists the Go path and, where the CPU has it, the kernel.
func chachaPaths() []chachaPath {
	paths := []chachaPath{{"go", NewPortableChaCha20Poly1305,
		func(key *[8]uint32, nonce *[3]uint32, counter uint32, n int) []byte {
			out := make([]byte, n)
			chachaXORStream(key, nonce, counter, out, out)
			return out
		}}}
	if useKernel {
		paths = append(paths, chachaPath{"kernel", NewChaCha20Poly1305,
			func(key *[8]uint32, nonce *[3]uint32, counter uint32, n int) []byte {
				state := chachaState(key, nonce, counter)
				var out []byte
				for ; len(out) < n; state[12] += 8 {
					var buf [512]byte
					chachaKeystream8(&state, &buf)
					out = append(out, buf[:]...)
				}
				return out[:n]
			}})
	}
	return paths
}

// mustAEAD builds the path's AEAD or fails the test.
func (p chachaPath) mustAEAD(t testing.TB, key []byte) *ChaCha20Poly1305 {
	t.Helper()
	a, err := p.new(key)
	if err != nil {
		t.Fatalf("%s: %v", p.name, err)
	}
	return a
}

// chachaState lays out the kernel's input block (RFC 8439 section 2.3).
func chachaState(key *[8]uint32, nonce *[3]uint32, counter uint32) [16]uint32 {
	state := [16]uint32{chachaC0, chachaC1, chachaC2, chachaC3}
	copy(state[4:12], key[:])
	state[12] = counter
	copy(state[13:], nonce[:])
	return state
}

// chachaWords loads a key and nonce the way the AEAD does.
func chachaWords(key, nonce []byte) (k [8]uint32, n [3]uint32) {
	for i := range k {
		k[i] = binary.LittleEndian.Uint32(key[4*i:])
	}
	for i := range n {
		n[i] = binary.LittleEndian.Uint32(nonce[4*i:])
	}
	return
}

// pattern fills n bytes with a fixed, seed-dependent sequence.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31) + seed + byte(i>>8)
	}
	return b
}

const sunscreen = "Ladies and Gentlemen of the class of '99: If I could offer you " +
	"only one tip for the future, sunscreen would be it."

// RFC 8439 section 2.3.2: ChaCha20 block function test vector (the
// keystream for counter 1).
func TestChaCha20BlockVector(t *testing.T) {
	k, n := chachaWords(
		unhex(t, "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"),
		unhex(t, "000000090000004a00000000"))
	want := unhex(t, "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"+
		"d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e")
	for _, p := range chachaPaths() {
		t.Run(p.name, func(t *testing.T) {
			if got := p.stream(&k, &n, 1, 64); !bytes.Equal(got, want) {
				t.Fatalf("chacha20 block mismatch:\n got %x\nwant %x", got, want)
			}
		})
	}
}

// RFC 8439 section 2.4.2: ChaCha20 encryption of the sunscreen text from
// block counter 1 — two blocks, the second partial.
func TestChaCha20EncryptionVector(t *testing.T) {
	k, n := chachaWords(
		unhex(t, "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"),
		unhex(t, "000000000000004a00000000"))
	want := unhex(t, "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"+
		"f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"+
		"07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"+
		"5af90bbf74a35be6b40b8eedf2785e42874d")
	for _, p := range chachaPaths() {
		t.Run(p.name, func(t *testing.T) {
			got := p.stream(&k, &n, 1, len(sunscreen))
			subtle.XORBytes(got, got, []byte(sunscreen))
			if !bytes.Equal(got, want) {
				t.Fatalf("chacha20 ciphertext mismatch:\n got %x\nwant %x", got, want)
			}
		})
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
	plaintext := []byte(sunscreen)
	wantCT := unhex(t, "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"+
		"3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"+
		"92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"+
		"3ff4def08e4b7a9de576d26586cec64b6116")
	wantTag := unhex(t, "1ae10b594f09e26a7e902ecbd0600691")

	for _, p := range chachaPaths() {
		t.Run(p.name, func(t *testing.T) {
			a := p.mustAEAD(t, key)
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
		})
	}
}

// RFC 8439 appendix A.5: the AEAD decryption vector (265 bytes, so the
// last keystream block is partial).
func TestChaCha20Poly1305DecryptionVector(t *testing.T) {
	key := unhex(t, "1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0")
	nonce := unhex(t, "000000000102030405060708")
	aad := unhex(t, "f33388860000000000004e91")
	sealed := unhex(t, "64a0861575861af460f062c79be643bd5e805cfd345cf389f108670ac76c8cb2"+
		"4c6cfc18755d43eea09ee94e382d26b0bdb7b73c321b0100d4f03b7f355894cf"+
		"332f830e710b97ce98c8a84abd0b948114ad176e008d33bd60f982b1ff37c855"+
		"9797a06ef4f0ef61c186324e2b3506383606907b6a7c02b0f9f6157b53c867e4"+
		"b9166c767b804d46a59b5216cde7a4e99040c5a40433225ee282a1b0a06c523e"+
		"af4534d7f83fa1155b0047718cbc546a0d072b04b3564eea1b422273f548271a"+
		"0bb2316053fa76991955ebd63159434ecebb4e466dae5a1073a6727627097a10"+
		"49e617d91d361094fa68f0ff77987130305beaba2eda04df997b714d6c6f2c29"+
		"a6ad5cb4022b02709b"+
		"eead9d67890cbb22392336fea1851f38")
	want := "Internet-Drafts are draft documents valid for a maximum of six months " +
		"and may be updated, replaced, or obsoleted by other documents at any time. " +
		"It is inappropriate to use Internet-Drafts as reference material or to cite " +
		"them other than as /\u201cwork in progress./\u201d"
	for _, p := range chachaPaths() {
		t.Run(p.name, func(t *testing.T) {
			got, err := p.mustAEAD(t, key).Open(nil, nonce, sealed, aad)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if string(got) != want {
				t.Fatalf("plaintext mismatch:\n got %q\nwant %q", got, want)
			}
		})
	}
}

// A flipped bit anywhere — any ciphertext byte (the message spans two
// kernel calls), any tag byte, any AAD byte — is refused by both paths,
// and so is a truncated datagram.
func TestChaCha20Poly1305TamperRefused(t *testing.T) {
	key, nonce, aad, pt := pattern(32, 1), pattern(12, 2), pattern(20, 3), pattern(600, 4)
	for _, p := range chachaPaths() {
		t.Run(p.name, func(t *testing.T) {
			a := p.mustAEAD(t, key)
			sealed := a.Seal(nil, nonce, pt, aad)
			for i := range sealed {
				sealed[i] ^= 0x40
				if _, err := a.Open(nil, nonce, sealed, aad); err != ErrAEADOpen {
					t.Fatalf("Open of tampered byte %d: %v", i, err)
				}
				sealed[i] ^= 0x40
			}
			for i := range aad {
				aad[i] ^= 0x01
				if _, err := a.Open(nil, nonce, sealed, aad); err != ErrAEADOpen {
					t.Fatalf("Open of tampered AAD byte %d: %v", i, err)
				}
				aad[i] ^= 0x01
			}
			for _, n := range []int{0, 15, len(sealed) - 1} {
				if _, err := a.Open(nil, nonce, sealed[:n], aad); err != ErrAEADOpen {
					t.Fatalf("Open of %d-byte truncation: %v", n, err)
				}
			}
			if _, err := a.Open(nil, nonce, sealed, aad); err != nil {
				t.Fatalf("Open of the restored datagram: %v", err)
			}
		})
	}
}

// In-place Seal/Open (the dst = buf[:0] aliasing form the data plane uses)
// must produce identical bytes to the allocating form.
func TestChaCha20Poly1305InPlace(t *testing.T) {
	key, nonce, aad := pattern(32, 7), pattern(12, 0xA0), []byte("header bytes")
	for _, p := range chachaPaths() {
		t.Run(p.name, func(t *testing.T) {
			a := p.mustAEAD(t, key)
			for _, n := range []int{0, 1, 15, 16, 17, 63, 64, 65, 256, 448, 449, 1460} {
				pt := pattern(n, 0)
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
		})
	}
}

// Seal and Open allow dst to alias the input exactly (the in-place
// forms) or not at all, and panic on every other overlap instead of
// XORing bytes they have already overwritten.
func TestChaCha20Poly1305BufferOverlap(t *testing.T) {
	key, nonce, aad := pattern(32, 9), pattern(12, 10), pattern(12, 11)
	const n = 700
	refused := func(t *testing.T, shape string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "invalid buffer overlap") {
				t.Errorf("%s: recovered %v, want an \"invalid buffer overlap\" panic", shape, r)
			}
		}()
		f()
	}
	for _, p := range chachaPaths() {
		t.Run(p.name, func(t *testing.T) {
			a := p.mustAEAD(t, key)
			buf := make([]byte, 2*n+64)
			copy(buf, pattern(n, 12))
			want := a.Seal(nil, nonce, buf[:n], aad)

			// Allowed: exact alias, and disjoint halves of one array.
			if got := a.Seal(buf[n:n], nonce, buf[:n], aad); !bytes.Equal(got, want) {
				t.Fatal("Seal into the disjoint tail of the plaintext's array differs")
			}
			if got := a.Seal(buf[:0], nonce, buf[:n], aad); !bytes.Equal(got, want) {
				t.Fatal("Seal(pt[:0]) differs")
			}
			ct := buf[:len(want)]
			if got, err := a.Open(ct[:0], nonce, ct, aad); err != nil || !bytes.Equal(got, pattern(n, 12)) {
				t.Fatalf("Open(ct[:0]): %v", err)
			}

			// Refused: the output starts inside the input, or the input
			// starts inside the output.
			refused(t, "Seal, dst one byte into pt", func() { a.Seal(buf[1:1], nonce, buf[:n], aad) })
			refused(t, "Seal, pt one byte into dst", func() { a.Seal(buf[:0], nonce, buf[1:n+1], aad) })
			refused(t, "Seal, dst 512 bytes into pt", func() { a.Seal(buf[512:512], nonce, buf[:n], aad) })
			refused(t, "Seal, tag lands on pt", func() { a.Seal(buf[:0], nonce, buf[n+8:2*n+8], aad) })
			copy(buf, want)
			refused(t, "Open, dst one byte into ct", func() { a.Open(buf[1:1], nonce, ct, aad) })
			copy(buf[1:], want)
			refused(t, "Open, ct one byte into dst", func() { a.Open(buf[:0], nonce, buf[1:1+len(want)], aad) })
		})
	}
}

// The kernel against the Go block function it replaces, block by block:
// every lane, the block counter carried across the 2^32 wrap inside a
// call, and the 512-byte store at every alignment.
func TestChaChaKernelMatchesBlockFunction(t *testing.T) {
	if !useKernel {
		t.Skip("no keystream kernel on this CPU")
	}
	k, n := chachaWords(pattern(32, 21), pattern(12, 22))
	backing := make([]byte, 512+32)
	for _, counter := range []uint32{0, 1, 8, 0x7FFFFFFC, 0xFFFFFFF8, 0xFFFFFFF9, 0xFFFFFFFC, 0xFFFFFFFF} {
		var want [512]byte
		for lane := range 8 {
			chachaBlock(&k, &n, counter+uint32(lane), (*[64]byte)(want[64*lane:]))
		}
		for off := range 32 {
			state := chachaState(&k, &n, counter)
			out := (*[512]byte)(backing[off:])
			chachaKeystream8(&state, out)
			if *out != want {
				t.Fatalf("counter %#x, out offset %d: kernel and chachaBlock disagree", counter, off)
			}
			if state[12] != counter {
				t.Fatalf("counter %#x: kernel wrote to its state", counter)
			}
		}
	}
}

// The kernel path against the Go path through the whole AEAD: every
// plaintext length 0…2100 (zero to five kernel calls, every tail), the
// AAD length cycling through 0…48 beside it and running through all of
// 0…48 at the lengths around a kernel-call boundary; then source and
// destination at every offset 0…31 of a 32-byte line, out of place and
// in place. (The full length × AAD product adds nothing the cycle does
// not — the AAD reaches only Poly1305, which the paths share — and costs
// the race-and-coverage build two minutes.)
func TestChaChaKernelMatchesGo(t *testing.T) {
	if !useKernel {
		t.Skip("no keystream kernel on this CPU")
	}
	key, nonce := pattern(32, 31), pattern(12, 32)
	kern, err := NewChaCha20Poly1305(key)
	if err != nil {
		t.Fatal(err)
	}
	goPath, err := NewPortableChaCha20Poly1305(key)
	if err != nil {
		t.Fatal(err)
	}
	pt, aad := pattern(2100, 33), pattern(48, 34)

	var want, got, opened []byte
	agree := func(n, m int) {
		t.Helper()
		want = goPath.Seal(want[:0], nonce, pt[:n], aad[:m])
		got = kern.Seal(got[:0], nonce, pt[:n], aad[:m])
		if !bytes.Equal(got, want) {
			t.Fatalf("len %d, aad %d: kernel and Go Seal disagree", n, m)
		}
		// Each path opens what the other sealed.
		opened, err = kern.Open(opened[:0], nonce, want, aad[:m])
		if err != nil || !bytes.Equal(opened, pt[:n]) {
			t.Fatalf("len %d, aad %d: kernel Open of a Go datagram: %v", n, m, err)
		}
		opened, err = goPath.Open(opened[:0], nonce, got, aad[:m])
		if err != nil || !bytes.Equal(opened, pt[:n]) {
			t.Fatalf("len %d, aad %d: Go Open of a kernel datagram: %v", n, m, err)
		}
	}
	for n := 0; n <= len(pt); n++ {
		agree(n, n%(len(aad)+1))
	}
	for _, n := range []int{0, 1, 447, 448, 449, 1200} {
		for m := 0; m <= len(aad); m++ {
			agree(n, m)
		}
	}

	src := make([]byte, 32+1200+Poly1305TagSize)
	dst := make([]byte, 32+1200+Poly1305TagSize)
	for _, n := range []int{1, 449, 1200} {
		want = goPath.Seal(want[:0], nonce, pt[:n], aad)
		for so := range 32 {
			for do := range 32 {
				copy(src[so:], pt[:n])
				if got := kern.Seal(dst[do:do], nonce, src[so:so+n], aad); !bytes.Equal(got, want) {
					t.Fatalf("len %d, src+%d, dst+%d: Seal differs", n, so, do)
				}
				copy(src[so:], want)
				if got, err := kern.Open(dst[do:do], nonce, src[so:so+len(want)], aad); err != nil || !bytes.Equal(got, pt[:n]) {
					t.Fatalf("len %d, src+%d, dst+%d: Open: %v", n, so, do, err)
				}
			}
			copy(src[so:], pt[:n])
			sealed := kern.Seal(src[so:so], nonce, src[so:so+n], aad)
			if !bytes.Equal(sealed, want) {
				t.Fatalf("len %d, buf+%d: in-place Seal differs", n, so)
			}
			if got, err := kern.Open(sealed[:0], nonce, sealed, aad); err != nil || !bytes.Equal(got, pt[:n]) {
				t.Fatalf("len %d, buf+%d: in-place Open: %v", n, so, err)
			}
		}
	}
}

// FuzzChaCha20Poly1305 holds the AEAD under test (the kernel, where the
// CPU has it) to the Go path on arbitrary key, nonce, AAD, plaintext and
// buffer offsets: identical datagram, out of place and in place; each
// path opens the other's; one flipped bit is refused by both.
func FuzzChaCha20Poly1305(f *testing.F) {
	f.Add([]byte{}, []byte{}, []byte{}, []byte{}, uint8(0), uint8(0), uint16(0))
	f.Add(unhex(f, "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"),
		unhex(f, "070000004041424344454647"), unhex(f, "50515253c0c1c2c3c4c5c6c7"), []byte(sunscreen), uint8(1), uint8(2), uint16(3))
	f.Add(pattern(32, 41), pattern(12, 42), pattern(13, 43), pattern(448, 44), uint8(31), uint8(0), uint16(447))
	f.Add(pattern(32, 45), pattern(12, 46), pattern(48, 47), pattern(449, 48), uint8(7), uint8(17), uint16(448))
	f.Add(pattern(32, 49), pattern(12, 50), pattern(12, 51), pattern(1200, 52), uint8(16), uint8(16), uint16(1215))
	f.Fuzz(func(t *testing.T, keyIn, nonceIn, aad, pt []byte, srcOff, dstOff uint8, flip uint16) {
		var key [ChaChaKeySize]byte
		var nonce [ChaChaNonceSize]byte
		copy(key[:], keyIn)
		copy(nonce[:], nonceIn)
		dut, err := NewChaCha20Poly1305(key[:])
		if err != nil {
			t.Fatal(err)
		}
		goPath, err := NewPortableChaCha20Poly1305(key[:])
		if err != nil {
			t.Fatal(err)
		}
		so, do := int(srcOff%32), int(dstOff%32)
		src := make([]byte, so+len(pt)+Poly1305TagSize)
		dst := make([]byte, do+len(pt)+Poly1305TagSize)
		copy(src[so:], pt)

		want := goPath.Seal(nil, nonce[:], pt, aad)
		if got := dut.Seal(dst[do:do], nonce[:], src[so:so+len(pt)], aad); !bytes.Equal(got, want) {
			t.Fatalf("Seal differs from the Go path:\n got %x\nwant %x", got, want)
		}
		if got, err := goPath.Open(nil, nonce[:], dst[do:], aad); err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("Go path Open of the datagram: %v", err)
		}
		sealed := dut.Seal(src[so:so], nonce[:], src[so:so+len(pt)], aad)
		if !bytes.Equal(sealed, want) {
			t.Fatalf("in-place Seal differs from the Go path:\n got %x\nwant %x", sealed, want)
		}
		if got, err := dut.Open(dst[do:do], nonce[:], sealed, aad); err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("Open of the in-place datagram: %v", err)
		}

		bad := append([]byte(nil), want...)
		bad[int(flip)%len(bad)] ^= 1 << (flip % 8)
		if _, err := dut.Open(nil, nonce[:], bad, aad); err != ErrAEADOpen {
			t.Fatalf("Open of a datagram with byte %d flipped: %v", int(flip)%len(bad), err)
		}
		if _, err := goPath.Open(nil, nonce[:], bad, aad); err != ErrAEADOpen {
			t.Fatalf("Go path Open of a datagram with byte %d flipped: %v", int(flip)%len(bad), err)
		}
		if got, err := dut.Open(sealed[:0], nonce[:], sealed, aad); err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("in-place Open: %v", err)
		}
	})
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
