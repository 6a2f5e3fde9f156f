package cryptolib

import "encoding/binary"

// CRC-32 (IEEE 802.3 polynomial, reflected form 0xEDB88320). Section 5.3
// of the paper prescribes CRC-32 as the cache-index hash: unlike modulo or
// XOR folding it randomises highly correlated inputs (local network
// addresses, sequential security flow labels) so a direct-mapped key cache
// sees few collision misses.

var crcTable = makeCRCTable()

func makeCRCTable() [256]uint32 {
	var t [256]uint32
	for i := range t {
		c := uint32(i)
		for k := 0; k < 8; k++ {
			if c&1 != 0 {
				c = 0xEDB88320 ^ (c >> 1)
			} else {
				c >>= 1
			}
		}
		t[i] = c
	}
	return t
}

// CRC32 computes the CRC-32 checksum of data.
func CRC32(data []byte) uint32 {
	return CRC32Update(0xFFFFFFFF, data) ^ 0xFFFFFFFF
}

// CRC32Update folds data into a running (pre-inversion) CRC state. Start
// with 0xFFFFFFFF and XOR the result with 0xFFFFFFFF to finish.
func CRC32Update(state uint32, data []byte) uint32 {
	for _, b := range data {
		state = crcTable[byte(state)^b] ^ (state >> 8)
	}
	return state
}

// CRC32UpdateString folds a string into a running (pre-inversion) CRC
// state without converting it to a byte slice. The hot-path cache hashes
// use it so that a lookup performs no allocation.
func CRC32UpdateString(state uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		state = crcTable[byte(state)^s[i]] ^ (state >> 8)
	}
	return state
}

// CRC32Fields hashes a sequence of integer fields (ports, addresses,
// labels) without allocating: each field is folded in big-endian order.
// It is the cache-index hash used by the FBS key caches.
func CRC32Fields(fields ...uint64) uint32 {
	state := uint32(0xFFFFFFFF)
	var buf [8]byte
	for _, f := range fields {
		binary.BigEndian.PutUint64(buf[:], f)
		state = CRC32Update(state, buf[:])
	}
	return state ^ 0xFFFFFFFF
}
