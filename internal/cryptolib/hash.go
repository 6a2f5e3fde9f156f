package cryptolib

import (
	"crypto/md5"
	"crypto/sha1"
	"fmt"
	"hash"
)

// HashID names a one-way hash function available in this library. The FBS
// header carries an algorithm identification field; HashID is its hash
// component.
type HashID uint8

// Supported hash algorithms.
const (
	// HashMD5 selects MD5 (the paper's default).
	HashMD5 HashID = iota
	// HashSHA1 selects SHA-1 ("SHS" in the paper).
	HashSHA1
)

// String returns the conventional algorithm name.
func (h HashID) String() string {
	switch h {
	case HashMD5:
		return "MD5"
	case HashSHA1:
		return "SHA-1"
	default:
		return fmt.Sprintf("HashID(%d)", uint8(h))
	}
}

// Size returns the digest size in bytes.
func (h HashID) Size() int {
	switch h {
	case HashSHA1:
		return sha1.Size
	default:
		return md5.Size
	}
}

// New returns a fresh incremental hash of the selected algorithm.
func (h HashID) New() hash.Hash {
	switch h {
	case HashSHA1:
		return sha1.New()
	default:
		return md5.New()
	}
}

// Digest hashes each argument in sequence and returns the digest. It is
// the concatenation-hash H(a | b | ...) used throughout the FBS protocol
// (flow key derivation and prefix-MAC computation).
func Digest(id HashID, parts ...[]byte) []byte {
	h := id.New()
	for _, p := range parts {
		h.Write(p)
	}
	return h.Sum(nil)
}
