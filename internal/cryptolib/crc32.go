package cryptolib

import (
	"encoding/binary"
	"unsafe"
)

// CRC-32 (IEEE 802.3 polynomial, reflected form 0xEDB88320). Section 5.3
// of the paper prescribes CRC-32 as the cache-index hash: unlike modulo or
// XOR folding it randomises highly correlated inputs (local network
// addresses, sequential security flow labels) so a direct-mapped key cache
// sees few collision misses.
//
// The hashes run once or more per datagram on short keys (principal
// addresses, ports, labels), so the update is slicing-by-8: eight table
// lookups fold eight input bytes into the state at once, and only the
// last len%8 bytes go one at a time. The values are the plain
// byte-at-a-time CRC's, bit for bit.

// crcTables[0] is the byte-at-a-time table; crcTables[k][b] is the CRC of
// byte b followed by k zero bytes.
var crcTables = makeCRCTables()

func makeCRCTables() *[8][256]uint32 {
	t := new([8][256]uint32)
	for i := range t[0] {
		c := uint32(i)
		for k := 0; k < 8; k++ {
			if c&1 != 0 {
				c = 0xEDB88320 ^ (c >> 1)
			} else {
				c >>= 1
			}
		}
		t[0][i] = c
	}
	for i := range t[0] {
		for k := 1; k < 8; k++ {
			t[k][i] = t[0][byte(t[k-1][i])] ^ t[k-1][i]>>8
		}
	}
	return t
}

// CRC32 computes the CRC-32 checksum of data.
func CRC32(data []byte) uint32 {
	return CRC32Update(0xFFFFFFFF, data) ^ 0xFFFFFFFF
}

// CRC32Update folds data into a running (pre-inversion) CRC state. Start
// with 0xFFFFFFFF and XOR the result with 0xFFFFFFFF to finish.
func CRC32Update(state uint32, p []byte) uint32 {
	t := crcTables
	for len(p) >= 8 {
		state ^= binary.LittleEndian.Uint32(p)
		state = t[0][p[7]] ^ t[1][p[6]] ^ t[2][p[5]] ^ t[3][p[4]] ^
			t[4][state>>24] ^ t[5][byte(state>>16)] ^ t[6][byte(state>>8)] ^ t[7][byte(state)]
		p = p[8:]
	}
	for i := 0; i < len(p); i++ {
		state = t[0][byte(state)^p[i]] ^ state>>8
	}
	return state
}

// CRC32UpdateString folds a string into a running (pre-inversion) CRC
// state without copying it to a byte slice: CRC32Update only reads its
// input. The hot-path cache hashes use it so that a lookup performs no
// allocation.
func CRC32UpdateString(state uint32, s string) uint32 {
	return CRC32Update(state, unsafe.Slice(unsafe.StringData(s), len(s)))
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
