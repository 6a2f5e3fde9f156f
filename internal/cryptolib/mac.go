package cryptolib

import (
	"crypto/hmac"
	"crypto/md5"
	"crypto/sha1"
	"crypto/subtle"
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
	// separate MAC construction runs. Compute/Verify/NewStream refuse it
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
// Unknown constructions (and MACAEAD, whose authentication lives in the
// suite's AEAD) return nil rather than silently falling back to a
// construction the caller did not ask for.
func (m MACID) Compute(key []byte, parts ...[]byte) []byte {
	s := m.NewStream(key)
	for _, p := range parts {
		s.Write(p)
	}
	return s.Sum()
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

// StreamMAC is an incremental MAC computation: it lets callers absorb
// the message in pieces, which is what enables the paper's single-pass
// "combine all data touching operations into one loop" optimisation
// (Section 5.3) — each block is fed to the MAC and the cipher in the
// same traversal.
type StreamMAC struct {
	h    hash.Hash // nil for MACNull and for the constructions Compute refuses
	null bool      // MACNull: Sum is all zeros
}

// NewStream begins an incremental MAC under key. Its Sum is what Compute
// returns for the same message: all zeros for MACNull, and nil for
// MACAEAD and unknown constructions.
func (m MACID) NewStream(key []byte) *StreamMAC {
	switch m {
	case MACPrefixMD5:
		h := md5.New()
		h.Write(key)
		return &StreamMAC{h: h}
	case MACHMACMD5:
		return &StreamMAC{h: hmac.New(md5.New, key)}
	case MACHMACSHA1:
		return &StreamMAC{h: hmac.New(sha1.New, key)}
	case MACNull:
		return &StreamMAC{null: true}
	default:
		return &StreamMAC{}
	}
}

// Write absorbs more message bytes; it never fails.
func (s *StreamMAC) Write(p []byte) (int, error) {
	if s.h == nil {
		return len(p), nil
	}
	return s.h.Write(p)
}

// Sum finalises and returns the MAC. The stream remains usable for
// further writes (Sum reports the MAC of everything written so far).
func (s *StreamMAC) Sum() []byte {
	switch {
	case s.h != nil:
		return s.h.Sum(nil)
	case s.null:
		return make([]byte, md5.Size)
	default:
		return nil
	}
}
