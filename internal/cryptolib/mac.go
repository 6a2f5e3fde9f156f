package cryptolib

import (
	"crypto/hmac"
	"crypto/md5"
	"crypto/sha1"
	"crypto/subtle"
	"encoding/binary"
	"hash"
)

// The paper defines the FBS MAC as HMAC(K_f | confounder | timestamp |
// payload) where "HMAC" is "some one-way cryptographic hash function" —
// i.e. a keyed hash in the 1997 "keyed MD5" style, a prefix MAC. This file
// provides both that construction and RFC 2104 HMAC (crypto/hmac); the
// protocol code selects between them via MACID.

// MACID names a MAC construction.
type MACID uint8

// Supported MAC constructions.
const (
	// MACPrefixMD5 is keyed MD5 in prefix form: MD5(key | message). This
	// is what the paper's implementation used.
	MACPrefixMD5 MACID = iota
	// MACHMACMD5 is RFC 2104 HMAC-MD5.
	MACHMACMD5
	// MACHMACSHA1 is RFC 2104 HMAC-SHA1.
	MACHMACSHA1
	// MACNull computes nothing and verifies everything. It exists ONLY
	// to reproduce the paper's "FBS NOP" measurement configuration —
	// "FBS with 'nullified' encryption and MAC computation (i.e., both
	// encryption and MAC returns immediately)" — which isolates the
	// protocol's non-cryptographic overhead. It provides no security
	// whatsoever.
	MACNull
	// MACAEAD marks a datagram whose integrity is intrinsic to an AEAD
	// cipher suite: the MAC value field carries the AEAD tag, and no
	// separate MAC construction runs. Compute and Verify refuse it
	// — the suite's sealed-box path owns authentication.
	MACAEAD
)

// String returns the conventional construction name.
func (m MACID) String() string {
	switch m {
	case MACPrefixMD5:
		return "keyed-MD5"
	case MACHMACMD5:
		return "HMAC-MD5"
	case MACHMACSHA1:
		return "HMAC-SHA1"
	case MACNull:
		return "null (NOP)"
	case MACAEAD:
		return "AEAD (intrinsic)"
	default:
		return "MAC(?)"
	}
}

// Size returns the MAC output size in bytes.
func (m MACID) Size() int {
	if m == MACHMACSHA1 {
		return sha1.Size
	}
	return md5.Size
}

// Compute evaluates the MAC over the concatenation of parts under key.
// MACNull returns all zeros. Unknown constructions (and MACAEAD, whose
// authentication lives in the suite's AEAD) return nil rather than
// silently falling back to a construction the caller did not ask for.
func (m MACID) Compute(key []byte, parts ...[]byte) []byte {
	var h hash.Hash
	switch m {
	case MACPrefixMD5:
		h = md5.New()
		h.Write(key)
	case MACHMACMD5:
		h = hmac.New(md5.New, key)
	case MACHMACSHA1:
		h = hmac.New(sha1.New, key)
	case MACNull:
		return make([]byte, md5.Size)
	default:
		return nil
	}
	for _, p := range parts {
		h.Write(p)
	}
	return h.Sum(nil)
}

// Verify recomputes the MAC and compares it against got in constant time.
// got may be a truncated MAC (the paper permits truncation to save header
// space); any prefix of at least 4 bytes is accepted for comparison.
// Unknown constructions never verify.
func (m MACID) Verify(key, got []byte, parts ...[]byte) bool {
	if m == MACNull {
		return true // NOP configuration: no authentication at all
	}
	if len(got) < 4 || len(got) > m.Size() {
		return false
	}
	want := m.Compute(key, parts...)
	if want == nil {
		return false
	}
	return subtle.ConstantTimeCompare(want[:len(got)], got) == 1
}

// HMACMD5Tagged returns RFC 2104 HMAC-MD5 under a 16-byte key of s
// followed by v big-endian — MACHMACMD5.Compute(key, []byte(s), v's four
// bytes) — built on the stack: no allocation for an s of up to 60 bytes.
func HMACMD5Tagged(key *[md5.Size]byte, s string, v uint32) [md5.Size]byte {
	var pad [md5.BlockSize]byte
	for i := range pad {
		pad[i] = 0x36
	}
	for i, b := range key {
		pad[i] ^= b
	}
	buf := make([]byte, 0, 2*md5.BlockSize)
	buf = append(append(buf, pad[:]...), s...)
	inner := md5.Sum(binary.BigEndian.AppendUint32(buf, v))
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c
	}
	return md5.Sum(append(append(buf[:0], pad[:]...), inner[:]...))
}
