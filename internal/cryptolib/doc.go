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
// Four files are not Go: two for ChaCha20-Poly1305 and the two kernels
// below. chacha_amd64.s is an AVX2 ChaCha20 keystream kernel (eight
// blocks per call) that ChaCha20-Poly1305 uses on amd64 CPUs whose CPUID
// reports AVX2 with OS-enabled YMM state; every other CPU runs
// the Go block function, which is also the kernel's differential oracle
// (NewPortableChaCha20Poly1305). It is constant time the same way the Go
// code is: ChaCha20 is add, rotate and xor on fixed registers, so no
// branch, load address or shuffle index depends on key, nonce, counter or
// data.
//
// Two Montgomery kernels serve the public-key arithmetic, each chosen at
// init by CPUID and nothing else. mont_ifma_amd64.s runs on AVX-512 IFMA
// (with ZMM state OS-enabled, and BMI2 for its scalar lane): an
// almost-Montgomery product in radix 2^52 for moduli of 512 bits (10
// limbs) and 1024 bits (20 limbs; Oakley 2 and the CA's N), one stream at
// a time or two streams in lockstep, whose results stay below 2m, and a
// masked read of a 16-entry table over three ZMM registers. mont_amd64.s
// is a product with the reduction fused into each row, a dedicated
// squaring and a masked table read on MULX/ADCX/ADOX for moduli of 8, 12
// and 16 words, chosen where CPUID reports BMI2 and ADX: it serves every
// width on a CPU without IFMA, and 768 bits (Oakley 1) on one with it.
// Montgomery contexts for Oakley 1 and 2 are built once per group and
// kernel, and a key GenerateRSA builds keeps its primes' and its
// modulus's; any other modulus builds its own per call, without a
// full-width division (R² mod m comes from a short remainder and kernel
// squarings). Every other width and CPU runs big.Int.Exp, which is also
// the kernels' oracle (DHGroup.PortableShared, which internal/refmodel
// derives its master keys with, so the differential harness compares the
// two on every op stream).
//
// On either kernel, these are constant time in the exponent:
// DHGroup.Shared, DHGroup.Public off the fixed-base table, and
// RSAPrivateKey.Sign's two CRT halves, which walk together as two streams
// of one walk (a key without its primes: the one full-size
// exponentiation). Each walks the exponent in fixed 4-bit windows, four
// squarings and one product per window, the product's operand read from
// every table entry and kept by mask; the two CRT halves walk the longer
// exponent's windows, the shorter exponent padded with zero digits, which
// multiply by x^0. The IFMA product's row count and carry resolution
// depend on the limb count alone, and the MULX product's final
// subtraction is kept or undone by CMOV — no branch or load address
// depends on an exponent bit, only the walk's length on the exponent's
// word count. DHGroup.Public on Oakley 1 and 2, for private values of at
// most 256 bits (all GeneratePrivate draws there), multiplies precomputed
// powers of the generator instead: a fixed-base table of g^(d·16^i) mod p
// in Montgomery form, 64 four-bit windows × 16 digits, ≈ 196 KB per group
// and kernel, built once on first use. Each window's entry is read by the
// same masked select, so g^x is 63 kernel products whatever the digits.
// TestConstantTime measures each of these claims on every kernel the CPU
// has, and MACID.Verify's, with a dudect t-test beside a big.Int.Exp
// control that must leak.
//
// Not constant time: RSAPublicKey.Verify's square-and-multiply follows
// its public exponent's bits, and everything on big.Int.Exp — the
// portable path, and whatever math/big does around the kernel (reducing a
// base, the CRT recombination) — is variable time as in 1997 practice.
package cryptolib
