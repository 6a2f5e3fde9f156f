// Package cryptolib holds the cryptographic primitives used by the FBS
// protocol and its baselines.
//
// The SIGCOMM '97 paper implements FBS on top of CryptoLib (Lacy, Mitchell
// and Schell, 1993), an off-the-shelf library that provided DES, MD5,
// Diffie-Hellman and friends. This package plays the same role here. Where
// Go's standard library has the primitive, this package takes it from
// there:
//
//   - DES and triple DES (FIPS 46) from crypto/des; NewTripleDES expands a
//     two-key k1|k2 to k1|k2|k1,
//   - MD5 (RFC 1321) and SHA-1 (FIPS 180-1) from crypto/md5 and
//     crypto/sha1, behind HashID,
//   - HMAC (RFC 2104) from crypto/hmac, behind MACID.
//
// The rest is written here, each for a reason:
//
//   - the ECB, CBC, CFB and OFB modes (FIPS 81), over any 64-bit
//     cipher.Block: ECB with the paper's confounder XOR has no
//     standard-library form, and Go deprecates its CFB and OFB streams;
//   - the paper's prefix MAC MD5(key | data), a construction rather than a
//     primitive;
//   - classic Diffie-Hellman over the Oakley MODP groups, and RSA for
//     certificate signatures: both run on the Montgomery kernel below, and
//     the certificates keep their own deterministic signature encoding;
//   - the ChaCha20-Poly1305 AEAD (RFC 8439) behind the modern suites: Go's
//     standard library has no public implementation, and
//     golang.org/x/crypto is not a dependency of this module;
//   - the Blum-Blum-Shub quadratic residue generator (the cryptographically
//     strong — and deliberately slow — generator the paper cites as the
//     bottleneck of per-datagram keying) and a linear congruential
//     generator (the statistically random, deliberately cheap confounder
//     source the paper recommends), the paper's two generators;
//   - CRC-32, the randomising cache-index hash from Section 5.3, because
//     its string form (CRC32UpdateString) keeps the pre-filter's pre-parse
//     sketch allocation-free.
//
// The tests pin each primitive with published vectors (FIPS 46, NIST SP
// 800-67, RFC 1321, FIPS 180-1, RFC 2202, RFC 8439) and cross-check the
// hand-written ones against the standard library where it has them.
//
// Two files are not Go. chacha_amd64.s is an AVX2 ChaCha20 keystream
// kernel (eight blocks per call) that ChaCha20-Poly1305 uses on amd64 CPUs
// whose CPUID reports AVX2 with OS-enabled YMM state; every other CPU runs
// the Go block function, which is also the kernel's differential oracle
// (NewPortableChaCha20Poly1305). It is constant time the same way the Go
// code is: ChaCha20 is add, rotate and xor on fixed registers, so no
// branch, load address or shuffle index depends on key, nonce, counter or
// data.
//
// mont_amd64.s is a Montgomery kernel on MULX/ADCX/ADOX for moduli of 8,
// 12 and 16 words (the CA's CRT primes and TestGroup, Oakley 1, Oakley 2
// and the 1024-bit CA modulus): a product with the reduction fused into
// each row, a dedicated squaring, and a masked read of a 16-entry table,
// chosen at init when CPUID reports BMI2 and ADX. Montgomery contexts for
// Oakley 1 and 2 are built once per group; any other modulus builds its
// own per call. Every other width and CPU runs big.Int.Exp, which is also
// the kernel's oracle (DHGroup.PortableShared, which internal/refmodel
// derives its master keys with, so the differential harness compares the
// two on every op stream).
//
// On the kernel, these are constant time in the exponent: DHGroup.Shared,
// DHGroup.Public off the fixed-base table, and both CRT halves of
// RSAPrivateKey.Sign (a key without its primes: the one full-size
// exponentiation) walk the exponent in fixed 4-bit windows, four
// squarings and one product per window, the product's operand read from
// every table entry and kept by mask, and the kernel's final subtraction
// is kept or undone by CMOV — no branch or load address depends on an
// exponent bit, only the walk's length on the exponent's word count. DHGroup.Public on Oakley 1 and 2, for private values of at
// most 256 bits (all GeneratePrivate draws there), multiplies precomputed
// powers of the generator instead: a fixed-base table of g^(d·16^i) mod p
// in Montgomery form, 64 four-bit windows × 16 digits, ≈ 128 KB per group,
// built once on first use. Each window's entry is read by the same masked
// select, so g^x is 63 kernel products whatever the digits.
// TestConstantTime measures each of these claims, and MACID.Verify's,
// with a dudect t-test beside a big.Int.Exp control that must leak.
//
// Not constant time: RSAPublicKey.Verify's square-and-multiply follows
// its public exponent's bits, and everything on big.Int.Exp — the
// portable path, and whatever math/big does around the kernel (reducing a
// base, the CRT recombination) — is variable time as in 1997 practice.
package cryptolib
