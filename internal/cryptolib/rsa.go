package cryptolib

import (
	"crypto/md5"
	"crypto/rand"
	"crypto/subtle"
	"fmt"
	"math/big"
)

// Textbook RSA with deterministic full-domain-style padding, used by the
// certificate substrate (internal/cert) to sign public-value certificates.
// CryptoLib — the paper's crypto substrate — shipped RSA for exactly this
// purpose. Where the Montgomery kernel serves the modulus (mont.go), the
// exponentiations under the private key run its constant-time window
// walk; the padding, the CRT recombination and everything on math/big are
// not hardened against side channels, as in 1997 practice.

// RSAPublicKey holds an RSA modulus and public exponent.
type RSAPublicKey struct {
	N *big.Int
	E *big.Int
}

// RSAPrivateKey holds the private exponent alongside the public half.
type RSAPrivateKey struct {
	RSAPublicKey
	D *big.Int

	// The CRT form GenerateRSA keeps: the primes, D mod (p-1), D mod
	// (q-1) and q^-1 mod p. A key built from (N, E, D) alone has none
	// and signs with one full-size exponentiation.
	p, q, dP, dQ, qInv *big.Int
}

// GenerateRSA creates an RSA key pair with a modulus of the given bit
// size (at least 512). The two prime searches are independent random
// walks of a few tens of milliseconds each at 1024 bits, so q is sought
// on a second goroutine while this one seeks p.
func GenerateRSA(bits int) (*RSAPrivateKey, error) {
	if bits < 512 {
		return nil, fmt.Errorf("cryptolib: RSA modulus must be at least 512 bits, got %d", bits)
	}
	e := big.NewInt(65537)
	one := big.NewInt(1)
	for {
		var q *big.Int
		var qErr error
		found := make(chan struct{})
		go func() {
			defer close(found)
			q, qErr = rand.Prime(rand.Reader, bits-bits/2)
		}()
		p, err := rand.Prime(rand.Reader, bits/2)
		<-found
		if err == nil {
			err = qErr
		}
		if err != nil {
			return nil, fmt.Errorf("cryptolib: generating RSA prime: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
		d := new(big.Int).ModInverse(e, phi)
		if d == nil {
			continue // gcd(e, phi) != 1; retry with new primes
		}
		return &RSAPrivateKey{
			RSAPublicKey: RSAPublicKey{N: n, E: e}, D: d,
			p: p, q: q,
			dP:   new(big.Int).Mod(d, new(big.Int).Sub(p, one)),
			dQ:   new(big.Int).Mod(d, new(big.Int).Sub(q, one)),
			qInv: new(big.Int).ModInverse(q, p),
		}, nil
	}
}

// padDigest expands an MD5 digest to the modulus size with a fixed,
// deterministic pattern (type-1 style padding: 0x00 0x01 0xFF... 0x00 ||
// digest).
func padDigest(digest []byte, modBytes int) ([]byte, error) {
	if modBytes < len(digest)+11 {
		return nil, fmt.Errorf("cryptolib: RSA modulus too small for digest")
	}
	out := make([]byte, modBytes)
	out[0] = 0x00
	out[1] = 0x01
	for i := 2; i < modBytes-len(digest)-1; i++ {
		out[i] = 0xFF
	}
	out[modBytes-len(digest)-1] = 0x00
	copy(out[modBytes-len(digest):], digest)
	return out, nil
}

// expFunc is x^e mod m; Sign and Verify take theirs from the kernel
// (expSecret, expPublic), the tests and benchmarks also from big.Int.Exp.
type expFunc func(x, e, m *big.Int) *big.Int

// Sign produces a signature over message: RSA-decrypt of the padded MD5
// digest. A key that holds its primes decrypts by CRT — two half-size
// exponentiations recombined by Garner's formula — and releases the
// result only once Verify accepts it: a fault in either half would
// otherwise hand out a value whose gcd with N is a prime factor.
func (k *RSAPrivateKey) Sign(message []byte) ([]byte, error) {
	return k.sign(message, expSecret, expPublic)
}

func (k *RSAPrivateKey) sign(message []byte, exp, verifyExp expFunc) ([]byte, error) {
	digest := md5.Sum(message)
	modBytes := (k.N.BitLen() + 7) / 8
	padded, err := padDigest(digest[:], modBytes)
	if err != nil {
		return nil, err
	}
	m := new(big.Int).SetBytes(padded)
	if k.p == nil {
		return exp(m, k.D, k.N).FillBytes(make([]byte, modBytes)), nil
	}
	s := exp(m, k.dP, k.p)
	sq := exp(m, k.dQ, k.q)
	s.Sub(s, sq).Mul(s, k.qInv).Mod(s, k.p) // h = qInv (sp - sq) mod p
	s.Mul(s, k.q).Add(s, sq)
	sig := s.FillBytes(make([]byte, modBytes))
	if !k.verify(message, sig, verifyExp) {
		return nil, fmt.Errorf("cryptolib: RSA-CRT signature failed verification; not released")
	}
	return sig, nil
}

// Verify checks a signature produced by Sign.
func (k *RSAPublicKey) Verify(message, sig []byte) bool {
	return k.verify(message, sig, expPublic)
}

func (k *RSAPublicKey) verify(message, sig []byte, exp expFunc) bool {
	modBytes := (k.N.BitLen() + 7) / 8
	if len(sig) != modBytes {
		return false
	}
	s := new(big.Int).SetBytes(sig)
	if s.Cmp(k.N) >= 0 {
		return false
	}
	m := exp(s, k.E, k.N)
	digest := md5.Sum(message)
	want, err := padDigest(digest[:], modBytes)
	if err != nil {
		return false
	}
	got := m.FillBytes(make([]byte, modBytes))
	return subtle.ConstantTimeCompare(got, want) == 1
}
