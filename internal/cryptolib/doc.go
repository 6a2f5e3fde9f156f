// Package cryptolib is a from-scratch implementation of the cryptographic
// primitives used by the FBS protocol and its baselines.
//
// The SIGCOMM '97 paper implements FBS on top of CryptoLib (Lacy, Mitchell
// and Schell, 1993), which provided DES, MD5, Diffie-Hellman and friends.
// This package plays the same role for this reproduction: it provides
//
//   - the DES block cipher with ECB, CBC, CFB and OFB modes (FIPS 46/81),
//     plus two- and three-key triple DES,
//   - the MD5 (RFC 1321) and SHA-1 (FIPS 180) message digests,
//   - HMAC (RFC 2104) and the paper's prefix MAC H(key | data),
//   - classic Diffie-Hellman key agreement over the Oakley MODP groups,
//   - the Blum-Blum-Shub quadratic residue generator (the cryptographically
//     strong — and deliberately slow — generator the paper cites as the
//     bottleneck of per-datagram keying),
//   - a linear congruential generator (the statistically random,
//     deliberately cheap confounder source the paper recommends),
//   - CRC-32, the randomising cache-index hash from Section 5.3, and
//   - the ChaCha20-Poly1305 AEAD (RFC 8439) behind the modern suites.
//
// Everything is implemented from first principles on top of math/big and
// encoding/binary only; the test suite cross-checks each primitive against
// the Go standard library and published test vectors.
//
// DHGroup.Public on Oakley 1 and 2, for the 256-bit private values
// GeneratePrivate draws there, multiplies precomputed powers of the
// generator instead of exponentiating: a fixed-base table of
// g^(d·16^i) mod p, 64 four-bit windows × 15 non-zero digits, ≈ 140 KB
// of big.Int for Oakley 2, built once per group on first use in ≈ 1–4
// ms. A g^x is then at most 63 modular multiplications, ≈ 0.4× a
// big.Int.Exp. Every other group and exponent length, and Shared (whose
// base is the peer's public value, different every time), use
// big.Int.Exp. The table is variable time in the same way Exp is: the
// work done depends on the exponent (here, on how many of its digits are
// zero), which the reproduction accepts for the 1997 threat model as it
// does for RSA.
//
// One file is not Go: chacha_amd64.s, an AVX2 ChaCha20 keystream kernel
// (eight blocks per call) that ChaCha20-Poly1305 uses on amd64 CPUs whose
// CPUID reports AVX2 with OS-enabled YMM state. It is there because the
// scalar block function was the dominant layer of the gateway's 1200-byte
// ChaCha workload; every other CPU and architecture runs the Go block
// function, which is also the kernel's differential oracle
// (NewPortableChaCha20Poly1305). The kernel is constant time the same way
// the Go code is: ChaCha20 is add, rotate and xor on fixed registers, so
// no branch, load address or shuffle index depends on key, nonce, counter
// or data — its only branches are the ten-iteration round loop and the
// CPUID probe, and both byte-shuffle masks are constants.
package cryptolib
