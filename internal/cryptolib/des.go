package cryptolib

import (
	"crypto/cipher"
	"crypto/des"
	"fmt"
)

// BlockSize is the DES block size in bytes, the only block size the
// modes in this package accept.
const BlockSize = des.BlockSize

// NewDES returns the DES (FIPS 46) cipher for an 8-byte key; the parity
// bits are ignored.
func NewDES(key []byte) (cipher.Block, error) {
	return des.NewCipher(key)
}

// NewTripleDES returns EDE triple DES for a 24-byte (three-key) or
// 16-byte (two-key) key. A two-key k1|k2 is used as k1|k2|k1.
func NewTripleDES(key []byte) (cipher.Block, error) {
	switch len(key) {
	case 16:
		var k [24]byte
		copy(k[:], key)
		copy(k[16:], key[:8])
		return des.NewTripleDESCipher(k[:])
	case 24:
		return des.NewTripleDESCipher(key)
	default:
		return nil, fmt.Errorf("cryptolib: triple DES key must be 16 or 24 bytes, got %d", len(key))
	}
}
