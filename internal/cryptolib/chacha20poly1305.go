package cryptolib

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"unsafe"
)

// ChaCha20-Poly1305 AEAD per RFC 8439, implemented from scratch on the
// same zero-dependency terms as the rest of cryptolib. The construction
// collapses the paper's separate encrypt and MAC passes into a single
// sealed box: a ChaCha20 keystream encrypts the payload and a one-time
// Poly1305 key (derived from block counter zero) authenticates the AAD
// and ciphertext together. The data-plane suites use it for the modern
// non-NIST cipher option; the refmodel shares only this primitive and
// reassembles nonce/AAD framing independently.
//
// The keystream has two implementations, chosen by CPUID at init and by
// nothing else: chachaKeystream8 (chacha_amd64.s, eight blocks per call
// in AVX2 registers) where the CPU has AVX2, and the Go block function
// below everywhere else. The Go path is also the kernel's differential
// oracle: NewPortableChaCha20Poly1305 pins it.

// ChaCha20Poly1305 sizes.
const (
	ChaChaKeySize   = 32
	ChaChaNonceSize = 12
	Poly1305TagSize = 16
)

// ErrAEADOpen is returned when AEAD authentication fails.
var ErrAEADOpen = errors.New("cryptolib: chacha20poly1305 authentication failed")

// ChaCha20Poly1305 is an AEAD instance bound to one 256-bit key. Its
// Seal/Open follow crypto/cipher.AEAD append semantics, including the
// documented in-place forms Seal(pt[:0], ...) and Open(ct[:0], ...).
type ChaCha20Poly1305 struct {
	key    [8]uint32
	kernel bool // the keystream comes from chachaKeystream8
}

// NewChaCha20Poly1305 builds an AEAD from a 32-byte key.
func NewChaCha20Poly1305(key []byte) (*ChaCha20Poly1305, error) {
	a, err := NewPortableChaCha20Poly1305(key)
	if err != nil {
		return nil, err
	}
	a.kernel = useKernel
	return a, nil
}

// NewPortableChaCha20Poly1305 builds an AEAD that runs the Go block
// function on every CPU. It is for the differential oracle
// (internal/refmodel) and the kernel's own tests, which must not have
// the assembly on both sides of a comparison.
func NewPortableChaCha20Poly1305(key []byte) (*ChaCha20Poly1305, error) {
	if len(key) != ChaChaKeySize {
		return nil, fmt.Errorf("cryptolib: chacha20poly1305 key must be %d bytes, got %d", ChaChaKeySize, len(key))
	}
	a := &ChaCha20Poly1305{}
	for i := range a.key {
		a.key[i] = binary.LittleEndian.Uint32(key[4*i:])
	}
	return a, nil
}

// NonceSize returns the RFC 8439 nonce length.
func (*ChaCha20Poly1305) NonceSize() int { return ChaChaNonceSize }

// Overhead returns the tag length appended by Seal.
func (*ChaCha20Poly1305) Overhead() int { return Poly1305TagSize }

// Seal encrypts and authenticates plaintext with additionalData bound
// into the tag, appending ciphertext||tag to dst. The nonce must be
// unique per key. plaintext and the appended region may overlap exactly
// (dst = plaintext[:0]) or not at all; any other overlap panics.
func (a *ChaCha20Poly1305) Seal(dst, nonce, plaintext, additionalData []byte) []byte {
	var k keystream
	otk := a.start(&k, nonce)

	ret, out := aeadSliceForAppend(dst, len(plaintext)+Poly1305TagSize)
	if inexactOverlap(out, plaintext) {
		panic("cryptolib: invalid buffer overlap")
	}
	ct := out[:len(plaintext)]
	a.xor(&k, ct, plaintext)

	tag := polyAEADTag(&otk, additionalData, ct)
	copy(out[len(plaintext):], tag[:])
	return ret
}

// Open authenticates ciphertext (which must end in the 16-byte tag) and
// additionalData, then decrypts, appending the plaintext to dst. The
// ciphertext and the appended region may overlap exactly (dst = ct[:0])
// or not at all; any other overlap panics.
func (a *ChaCha20Poly1305) Open(dst, nonce, ciphertext, additionalData []byte) ([]byte, error) {
	var k keystream
	otk := a.start(&k, nonce)
	if len(ciphertext) < Poly1305TagSize {
		return nil, ErrAEADOpen
	}

	body := ciphertext[:len(ciphertext)-Poly1305TagSize]
	got := ciphertext[len(ciphertext)-Poly1305TagSize:]

	want := polyAEADTag(&otk, additionalData, body)
	if subtle.ConstantTimeCompare(want[:], got) != 1 {
		return nil, ErrAEADOpen
	}

	ret, out := aeadSliceForAppend(dst, len(body))
	if inexactOverlap(out, body) {
		panic("cryptolib: invalid buffer overlap")
	}
	a.xor(&k, out, body)
	return ret, nil
}

// keystream is the cipher state of one Seal or Open, kept on the
// caller's stack: the ChaCha20 input block and, on the kernel path, the
// eight keystream blocks of the latest chachaKeystream8 call.
type keystream struct {
	state [16]uint32 // constants, key, block counter, nonce
	buf   [512]byte
}

// start loads key and nonce into k and returns the Poly1305 one-time
// key, the first half of keystream block zero (RFC 8439 section 2.6).
// The kernel computes blocks 1…7 in the same call and leaves them in
// k.buf for xor.
func (a *ChaCha20Poly1305) start(k *keystream, nonce []byte) (otk [32]byte) {
	if len(nonce) != ChaChaNonceSize {
		panic("cryptolib: chacha20poly1305 nonce must be 12 bytes")
	}
	k.state[0], k.state[1], k.state[2], k.state[3] = chachaC0, chachaC1, chachaC2, chachaC3
	copy(k.state[4:12], a.key[:])
	k.state[13] = binary.LittleEndian.Uint32(nonce[0:])
	k.state[14] = binary.LittleEndian.Uint32(nonce[4:])
	k.state[15] = binary.LittleEndian.Uint32(nonce[8:])
	if a.kernel {
		chachaKeystream8(&k.state, &k.buf)
		return [32]byte(k.buf[:32])
	}
	var block [64]byte
	chachaBlock(&a.key, (*[3]uint32)(k.state[13:16]), 0, &block)
	return [32]byte(block[:32])
}

// xor writes src XOR the keystream from block counter 1 on into dst;
// the two may be the same slice. It follows start and runs once.
func (a *ChaCha20Poly1305) xor(k *keystream, dst, src []byte) {
	if !a.kernel {
		chachaXORStream(&a.key, (*[3]uint32)(k.state[13:16]), 1, dst, src)
		return
	}
	n := subtle.XORBytes(dst, src, k.buf[64:])
	for n < len(src) {
		k.state[12] += 8
		chachaKeystream8(&k.state, &k.buf)
		n += subtle.XORBytes(dst[n:], src[n:], k.buf[:])
	}
}

// inexactOverlap reports whether x and y share memory at different
// offsets — the shape a streaming XOR turns into garbage, since it
// would read bytes it has already overwritten.
func inexactOverlap(x, y []byte) bool {
	if len(x) == 0 || len(y) == 0 || &x[0] == &y[0] {
		return false
	}
	return uintptr(unsafe.Pointer(&x[0])) <= uintptr(unsafe.Pointer(&y[len(y)-1])) &&
		uintptr(unsafe.Pointer(&y[0])) <= uintptr(unsafe.Pointer(&x[len(x)-1]))
}

// aeadSliceForAppend grows in (reusing capacity where possible) and
// returns the extended slice plus the freshly appended region — the
// standard crypto/cipher helper shape that makes in-place use work.
func aeadSliceForAppend(in []byte, n int) (head, tail []byte) {
	total := len(in) + n
	if cap(in) >= total {
		head = in[:total]
	} else {
		head = make([]byte, total)
		copy(head, in)
	}
	tail = head[len(in):]
	return
}

// --- ChaCha20 block function (RFC 8439 section 2.3) ---

const (
	chachaC0 = 0x61707865 // "expa"
	chachaC1 = 0x3320646e // "nd 3"
	chachaC2 = 0x79622d32 // "2-by"
	chachaC3 = 0x6b206574 // "te k"
)

func rotl32(v uint32, n uint) uint32 { return v<<n | v>>(32-n) }

// chachaBlock computes one 64-byte keystream block into out.
func chachaBlock(key *[8]uint32, nonce *[3]uint32, counter uint32, out *[64]byte) {
	s0, s1, s2, s3 := uint32(chachaC0), uint32(chachaC1), uint32(chachaC2), uint32(chachaC3)
	s4, s5, s6, s7 := key[0], key[1], key[2], key[3]
	s8, s9, s10, s11 := key[4], key[5], key[6], key[7]
	s12, s13, s14, s15 := counter, nonce[0], nonce[1], nonce[2]

	x0, x1, x2, x3 := s0, s1, s2, s3
	x4, x5, x6, x7 := s4, s5, s6, s7
	x8, x9, x10, x11 := s8, s9, s10, s11
	x12, x13, x14, x15 := s12, s13, s14, s15

	for i := 0; i < 10; i++ {
		// column rounds
		x0 += x4
		x12 = rotl32(x12^x0, 16)
		x8 += x12
		x4 = rotl32(x4^x8, 12)
		x0 += x4
		x12 = rotl32(x12^x0, 8)
		x8 += x12
		x4 = rotl32(x4^x8, 7)

		x1 += x5
		x13 = rotl32(x13^x1, 16)
		x9 += x13
		x5 = rotl32(x5^x9, 12)
		x1 += x5
		x13 = rotl32(x13^x1, 8)
		x9 += x13
		x5 = rotl32(x5^x9, 7)

		x2 += x6
		x14 = rotl32(x14^x2, 16)
		x10 += x14
		x6 = rotl32(x6^x10, 12)
		x2 += x6
		x14 = rotl32(x14^x2, 8)
		x10 += x14
		x6 = rotl32(x6^x10, 7)

		x3 += x7
		x15 = rotl32(x15^x3, 16)
		x11 += x15
		x7 = rotl32(x7^x11, 12)
		x3 += x7
		x15 = rotl32(x15^x3, 8)
		x11 += x15
		x7 = rotl32(x7^x11, 7)

		// diagonal rounds
		x0 += x5
		x15 = rotl32(x15^x0, 16)
		x10 += x15
		x5 = rotl32(x5^x10, 12)
		x0 += x5
		x15 = rotl32(x15^x0, 8)
		x10 += x15
		x5 = rotl32(x5^x10, 7)

		x1 += x6
		x12 = rotl32(x12^x1, 16)
		x11 += x12
		x6 = rotl32(x6^x11, 12)
		x1 += x6
		x12 = rotl32(x12^x1, 8)
		x11 += x12
		x6 = rotl32(x6^x11, 7)

		x2 += x7
		x13 = rotl32(x13^x2, 16)
		x8 += x13
		x7 = rotl32(x7^x8, 12)
		x2 += x7
		x13 = rotl32(x13^x2, 8)
		x8 += x13
		x7 = rotl32(x7^x8, 7)

		x3 += x4
		x14 = rotl32(x14^x3, 16)
		x9 += x14
		x4 = rotl32(x4^x9, 12)
		x3 += x4
		x14 = rotl32(x14^x3, 8)
		x9 += x14
		x4 = rotl32(x4^x9, 7)
	}

	binary.LittleEndian.PutUint32(out[0:], x0+s0)
	binary.LittleEndian.PutUint32(out[4:], x1+s1)
	binary.LittleEndian.PutUint32(out[8:], x2+s2)
	binary.LittleEndian.PutUint32(out[12:], x3+s3)
	binary.LittleEndian.PutUint32(out[16:], x4+s4)
	binary.LittleEndian.PutUint32(out[20:], x5+s5)
	binary.LittleEndian.PutUint32(out[24:], x6+s6)
	binary.LittleEndian.PutUint32(out[28:], x7+s7)
	binary.LittleEndian.PutUint32(out[32:], x8+s8)
	binary.LittleEndian.PutUint32(out[36:], x9+s9)
	binary.LittleEndian.PutUint32(out[40:], x10+s10)
	binary.LittleEndian.PutUint32(out[44:], x11+s11)
	binary.LittleEndian.PutUint32(out[48:], x12+s12)
	binary.LittleEndian.PutUint32(out[52:], x13+s13)
	binary.LittleEndian.PutUint32(out[56:], x14+s14)
	binary.LittleEndian.PutUint32(out[60:], x15+s15)
}

// chachaXORStream XORs src with the keystream starting at the given
// block counter, writing into dst (dst and src may be the same slice).
func chachaXORStream(key *[8]uint32, nonce *[3]uint32, counter uint32, dst, src []byte) {
	var block [64]byte
	for len(src) > 0 {
		chachaBlock(key, nonce, counter, &block)
		counter++
		n := len(src)
		if n > 64 {
			n = 64
		}
		i := 0
		for ; i+8 <= n; i += 8 {
			binary.LittleEndian.PutUint64(dst[i:],
				binary.LittleEndian.Uint64(src[i:])^binary.LittleEndian.Uint64(block[i:]))
		}
		for ; i < n; i++ {
			dst[i] = src[i] ^ block[i]
		}
		src = src[n:]
		dst = dst[n:]
	}
}

// --- Poly1305 (RFC 8439 section 2.5), 64-bit limb implementation ---
//
// The accumulator is three 64-bit limbs (h2 carries only the bits above
// 2^128) and the clamped key is two. Clamping zeroes the top nibble of
// every r-word, so each 130×124-bit product fits in 256 bits and the
// partial reduction below (fold t>>130 back in multiplied by 5) keeps
// h2 within a few bits — small enough that h2·r never overflows a
// single 64-bit multiply. Two wide multiplies per block instead of the
// 25 scalar multiplies of the classic 26-bit limb schedule: this MAC
// runs per datagram on the data plane, so the block loop is hot.

type poly1305 struct {
	r    [2]uint64 // clamped key
	h    [3]uint64 // accumulator
	pad  [2]uint64 // final addition, little-endian s
	buf  [16]byte
	bufn int
}

// init loads and clamps the one-time key. The zero value plus init is
// the whole constructor, so callers keep the state on their stack — the
// tag helpers run once per datagram and must not allocate.
func (p *poly1305) init(key *[32]byte) {
	p.r[0] = binary.LittleEndian.Uint64(key[0:]) & 0x0ffffffc0fffffff
	p.r[1] = binary.LittleEndian.Uint64(key[8:]) & 0x0ffffffc0ffffffc
	p.pad[0] = binary.LittleEndian.Uint64(key[16:])
	p.pad[1] = binary.LittleEndian.Uint64(key[24:])
}

// blocks absorbs full 16-byte blocks; final marks the 1-bit as beyond a
// short trailing block instead of bit 128.
func (p *poly1305) blocks(m []byte, partialHibit bool) {
	h0, h1, h2 := p.h[0], p.h[1], p.h[2]
	r0, r1 := p.r[0], p.r[1]

	for len(m) >= 16 {
		var c uint64
		h0, c = bits.Add64(h0, binary.LittleEndian.Uint64(m[0:]), 0)
		h1, c = bits.Add64(h1, binary.LittleEndian.Uint64(m[8:]), c)
		h2 += c
		if !partialHibit {
			h2++
		}

		// t = h * r, a 130×124-bit product accumulated into four words.
		h0r0hi, h0r0lo := bits.Mul64(h0, r0)
		h1r0hi, h1r0lo := bits.Mul64(h1, r0)
		h0r1hi, h0r1lo := bits.Mul64(h0, r1)
		h1r1hi, h1r1lo := bits.Mul64(h1, r1)
		h2r0 := h2 * r0 // h2 and the clamped r keep these in one word
		h2r1 := h2 * r1

		m1lo, cx := bits.Add64(h1r0lo, h0r1lo, 0)
		m1hi, _ := bits.Add64(h1r0hi, h0r1hi, cx)
		m2lo, cx := bits.Add64(h2r0, h1r1lo, 0)
		m2hi, _ := bits.Add64(0, h1r1hi, cx)

		t0 := h0r0lo
		t1, c := bits.Add64(m1lo, h0r0hi, 0)
		t2, c := bits.Add64(m2lo, m1hi, c)
		t3, _ := bits.Add64(h2r1, m2hi, c)

		// Reduce mod 2^130 - 5: h = (t mod 2^130) + 5·(t >> 130), added
		// as cc + cc>>2 where cc is t with the low 130 bits cleared.
		h0, h1, h2 = t0, t1, t2&3
		cclo, cchi := t2&^uint64(3), t3
		h0, c = bits.Add64(h0, cclo, 0)
		h1, c = bits.Add64(h1, cchi, c)
		h2 += c
		cclo, cchi = cclo>>2|cchi<<62, cchi>>2
		h0, c = bits.Add64(h0, cclo, 0)
		h1, c = bits.Add64(h1, cchi, c)
		h2 += c

		m = m[16:]
	}

	p.h[0], p.h[1], p.h[2] = h0, h1, h2
}

func (p *poly1305) update(m []byte) {
	if p.bufn > 0 {
		n := copy(p.buf[p.bufn:], m)
		p.bufn += n
		m = m[n:]
		if p.bufn < 16 {
			return
		}
		p.blocks(p.buf[:], false)
		p.bufn = 0
	}
	if full := len(m) &^ 15; full > 0 {
		p.blocks(m[:full], false)
		m = m[full:]
	}
	if len(m) > 0 {
		p.bufn = copy(p.buf[:], m)
	}
}

func (p *poly1305) sum(tag *[16]byte) {
	if p.bufn > 0 {
		var last [16]byte
		copy(last[:], p.buf[:p.bufn])
		last[p.bufn] = 1
		p.blocks(last[:], true)
		p.bufn = 0
	}

	h0, h1, h2 := p.h[0], p.h[1], p.h[2]

	// The block reduction keeps h < 2·(2^130 - 5), so one conditional
	// subtraction of p = 2^130 - 5 completes the modulus: compute h - p
	// and keep it unless the subtraction borrowed (constant time).
	t0, b := bits.Sub64(h0, 0xfffffffffffffffb, 0)
	t1, b := bits.Sub64(h1, 0xffffffffffffffff, b)
	_, b = bits.Sub64(h2, 3, b)
	mask := b - 1 // all-ones when no borrow (h >= p)
	h0 = h0&^mask | t0&mask
	h1 = h1&^mask | t1&mask

	// tag = (h + pad) mod 2^128
	var c uint64
	h0, c = bits.Add64(h0, p.pad[0], 0)
	h1, _ = bits.Add64(h1, p.pad[1], c)

	binary.LittleEndian.PutUint64(tag[0:], h0)
	binary.LittleEndian.PutUint64(tag[8:], h1)
}

var polyZeroPad [16]byte

// polyAEADTag evaluates the RFC 8439 AEAD MAC layout:
// aad || pad16 || ct || pad16 || le64(len aad) || le64(len ct).
func polyAEADTag(otk *[32]byte, aad, ct []byte) [16]byte {
	var p poly1305
	p.init(otk)
	p.update(aad)
	if rem := len(aad) % 16; rem != 0 {
		p.update(polyZeroPad[:16-rem])
	}
	p.update(ct)
	if rem := len(ct) % 16; rem != 0 {
		p.update(polyZeroPad[:16-rem])
	}
	var lens [16]byte
	binary.LittleEndian.PutUint64(lens[0:], uint64(len(aad)))
	binary.LittleEndian.PutUint64(lens[8:], uint64(len(ct)))
	p.update(lens[:])
	var tag [16]byte
	p.sum(&tag)
	return tag
}
