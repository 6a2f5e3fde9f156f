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
