package cryptolib

import (
	"crypto/cipher"
	"fmt"
)

// Mode identifies a FIPS 81 mode of operation for a 64-bit block cipher.
// The modes are written here rather than taken from crypto/cipher: ECB
// with the confounder XOR has no standard-library form, and Go deprecates
// its CFB and OFB streams.
type Mode int

// Supported modes of operation.
const (
	// ECB is electronic codebook mode. Per the paper (Section 5.2), the
	// confounder is XOR'ed into every plaintext block before encryption
	// so that identical plaintext blocks do not produce identical
	// ciphertext blocks.
	ECB Mode = iota
	// CBC is cipher block chaining; the confounder is the IV.
	CBC
	// CFB is 64-bit cipher feedback; the confounder is the IV.
	CFB
	// OFB is 64-bit output feedback; the confounder is the IV.
	OFB
)

// String returns the conventional name of the mode.
func (m Mode) String() string {
	switch m {
	case ECB:
		return "ECB"
	case CBC:
		return "CBC"
	case CFB:
		return "CFB"
	case OFB:
		return "OFB"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Pad appends PKCS#7-style padding so len(result) is a multiple of the
// block size. A full block of padding is added when the input is already
// aligned, so padding is always removable.
func Pad(data []byte, blockSize int) []byte {
	return AppendPadded(nil, data, blockSize)
}

// AppendPadded appends data plus its PKCS#7-style padding to dst and
// returns the extended slice. With sufficient capacity in dst it performs
// no allocation — the steady-state seal path depends on this.
func AppendPadded(dst, data []byte, blockSize int) []byte {
	n := blockSize - len(data)%blockSize
	dst = append(dst, data...)
	for i := 0; i < n; i++ {
		dst = append(dst, byte(n))
	}
	return dst
}

// Unpad removes padding added by Pad. It returns an error when the padding
// is malformed, which for FBS means the datagram was corrupted or
// decrypted under the wrong flow key.
func Unpad(data []byte, blockSize int) ([]byte, error) {
	if len(data) == 0 || len(data)%blockSize != 0 {
		return nil, fmt.Errorf("cryptolib: padded data length %d not a positive multiple of %d", len(data), blockSize)
	}
	n := int(data[len(data)-1])
	if n == 0 || n > blockSize || n > len(data) {
		return nil, fmt.Errorf("cryptolib: invalid padding length %d", n)
	}
	for _, b := range data[len(data)-n:] {
		if int(b) != n {
			return nil, fmt.Errorf("cryptolib: inconsistent padding")
		}
	}
	return data[:len(data)-n], nil
}

// EncryptMode encrypts src (whose length must be a multiple of the block
// size; use Pad first) under the given mode with the 8-byte IV iv. It
// writes into dst, which may alias src, and returns dst. c must be a
// 64-bit block cipher (DES or triple DES).
func EncryptMode(c cipher.Block, mode Mode, iv, dst, src []byte) ([]byte, error) {
	if err := checkMode(c, "plaintext", iv, dst, src); err != nil {
		return nil, err
	}
	const bs = BlockSize
	var prev, tmp [BlockSize]byte
	copy(prev[:], iv)
	switch mode {
	case ECB:
		for i := 0; i < len(src); i += bs {
			for j := 0; j < bs; j++ {
				tmp[j] = src[i+j] ^ iv[j]
			}
			c.Encrypt(dst[i:i+bs], tmp[:])
		}
	case CBC:
		for i := 0; i < len(src); i += bs {
			for j := 0; j < bs; j++ {
				tmp[j] = src[i+j] ^ prev[j]
			}
			c.Encrypt(dst[i:i+bs], tmp[:])
			copy(prev[:], dst[i:i+bs])
		}
	case CFB:
		for i := 0; i < len(src); i += bs {
			c.Encrypt(tmp[:], prev[:])
			for j := 0; j < bs; j++ {
				dst[i+j] = src[i+j] ^ tmp[j]
			}
			copy(prev[:], dst[i:i+bs])
		}
	case OFB:
		for i := 0; i < len(src); i += bs {
			c.Encrypt(tmp[:], prev[:])
			copy(prev[:], tmp[:])
			for j := 0; j < bs; j++ {
				dst[i+j] = src[i+j] ^ tmp[j]
			}
		}
	default:
		return nil, fmt.Errorf("cryptolib: unknown mode %v", mode)
	}
	return dst[:len(src)], nil
}

// DecryptMode inverts EncryptMode. dst may alias src.
func DecryptMode(c cipher.Block, mode Mode, iv, dst, src []byte) ([]byte, error) {
	if err := checkMode(c, "ciphertext", iv, dst, src); err != nil {
		return nil, err
	}
	const bs = BlockSize
	var prev, cur, tmp [BlockSize]byte
	copy(prev[:], iv)
	switch mode {
	case ECB:
		for i := 0; i < len(src); i += bs {
			c.Decrypt(tmp[:], src[i:i+bs])
			for j := 0; j < bs; j++ {
				dst[i+j] = tmp[j] ^ iv[j]
			}
		}
	case CBC:
		for i := 0; i < len(src); i += bs {
			copy(cur[:], src[i:i+bs])
			c.Decrypt(tmp[:], src[i:i+bs])
			for j := 0; j < bs; j++ {
				dst[i+j] = tmp[j] ^ prev[j]
			}
			copy(prev[:], cur[:])
		}
	case CFB:
		for i := 0; i < len(src); i += bs {
			copy(cur[:], src[i:i+bs])
			c.Encrypt(tmp[:], prev[:])
			for j := 0; j < bs; j++ {
				dst[i+j] = src[i+j] ^ tmp[j]
			}
			copy(prev[:], cur[:])
		}
	case OFB:
		// OFB is symmetric.
		return EncryptMode(c, OFB, iv, dst, src)
	default:
		return nil, fmt.Errorf("cryptolib: unknown mode %v", mode)
	}
	return dst[:len(src)], nil
}

// checkMode validates the arguments EncryptMode and DecryptMode share.
func checkMode(c cipher.Block, what string, iv, dst, src []byte) error {
	if bs := c.BlockSize(); bs != BlockSize {
		return fmt.Errorf("cryptolib: block size %d, the modes need %d", bs, BlockSize)
	}
	if len(src)%BlockSize != 0 {
		return fmt.Errorf("cryptolib: %s length %d not a multiple of block size %d", what, len(src), BlockSize)
	}
	if len(iv) != BlockSize {
		return fmt.Errorf("cryptolib: IV length %d != block size %d", len(iv), BlockSize)
	}
	if len(dst) < len(src) {
		return fmt.Errorf("cryptolib: dst too short: %d < %d", len(dst), len(src))
	}
	return nil
}
