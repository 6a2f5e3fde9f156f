package core

import (
	"crypto/cipher"
	"encoding/binary"
	"fmt"

	"fbs/internal/cryptolib"
)

// SFL is a security flow label: the opaque flow identifier produced by the
// flow association mechanism and carried in every datagram (Section 5.1).
// Labels are 64 bits so that, with a randomised starting point, a label is
// never assigned to two different flows before the pair-based master key
// is changed (Section 5.3).
type SFL uint64

// CipherID names a payload cipher in the header's algorithm
// identification field.
type CipherID uint8

// Supported payload ciphers.
const (
	// CipherNone means the body is not encrypted (MAC only).
	CipherNone CipherID = iota
	// CipherDES is single DES, the paper's choice.
	CipherDES
	// Cipher3DES is EDE triple DES with a two-key schedule.
	Cipher3DES

	// IDs 3-7 are reserved for future legacy-style suites.

	// CipherAES128GCM is AES-128 in Galois/Counter mode: a modern AEAD
	// suite whose tag rides in the header's MAC value field.
	CipherAES128GCM CipherID = 8
	// CipherChaCha20Poly1305 is the RFC 8439 AEAD suite.
	CipherChaCha20Poly1305 CipherID = 9
)

// String returns the conventional cipher name.
func (c CipherID) String() string {
	switch c {
	case CipherNone:
		return "none"
	case CipherDES:
		return "DES"
	case Cipher3DES:
		return "3DES"
	case CipherAES128GCM:
		return "AES-128-GCM"
	case CipherChaCha20Poly1305:
		return "ChaCha20-Poly1305"
	default:
		return fmt.Sprintf("CipherID(%d)", uint8(c))
	}
}

// newCipher builds the block cipher for a 16-byte flow key.
func (c CipherID) newCipher(flowKey []byte) (cipher.Block, error) {
	switch c {
	case CipherDES:
		return cryptolib.NewDES(flowKey[:8])
	case Cipher3DES:
		return cryptolib.NewTripleDES(flowKey[:16])
	default:
		return nil, fmt.Errorf("core: cipher %v cannot encrypt", c)
	}
}

// Header field and layout constants.
const (
	// HeaderVersion is the wire version of this implementation.
	HeaderVersion = 1
	// MACLen is the MAC field width: 128 bits, per Section 7.2.
	MACLen = 16
	// HeaderSize is the encoded security flow header size in bytes:
	// version, flags, MAC alg, cipher/mode alg, sfl(8), confounder(4),
	// timestamp(4), MAC(16). The paper's 28-byte header (Figure 2, with
	// Section 7.2's field sizes) plus the algorithm identification field
	// it prescribes but elides.
	HeaderSize = 4 + 8 + 4 + 4 + MACLen
	// macValueOffset is where the MAC value field starts within the
	// encoded header. The allocation-free seal path encodes the header
	// with a zero MAC first and patches the real value in at this offset
	// once the body has been traversed.
	macValueOffset = HeaderSize - MACLen
)

// SealOverhead is the worst-case growth sealing adds to a payload: the
// security flow header plus one full cipher block of PKCS#7 padding (an
// exactly block-aligned plaintext still gains a whole padding block).
// MTU and MSS sizing must budget this, not just HeaderSize — a segment
// sized for the header alone can grow past the MTU once encrypted and
// then fail with ErrNeedsFragmentation under DF.
const SealOverhead = HeaderSize + cryptolib.BlockSize

// sealRoom is the capacity a seal needs beyond the payload: the header
// plus the larger of a legacy suite's padding block and the tag an AEAD
// seal stages after the body before moving it into the header.
const sealRoom = HeaderSize + max(cryptolib.BlockSize, MACLen)

// Header flag bits.
const (
	// FlagSecret marks an encrypted body (the secret flag of FBSSend).
	FlagSecret = 1 << 0
)

// Header is the security flow header prepended to every FBS datagram
// (Figure 2), extended with the algorithm identification field the paper
// calls for "for generality" (Section 5.2).
type Header struct {
	Version    uint8
	Flags      uint8
	MAC        cryptolib.MACID
	Cipher     CipherID
	Mode       cryptolib.Mode
	SFL        SFL
	Confounder uint32
	Timestamp  Timestamp
	MACValue   [MACLen]byte
}

// Secret reports whether the body is encrypted.
func (h *Header) Secret() bool { return h.Flags&FlagSecret != 0 }

// algByte packs cipher (high nibble) and mode (low nibble). Both IDs
// are validated to fit their nibble at configuration time (NewEndpoint
// rejects out-of-range IDs with ErrAlgorithmRange), so the masks here
// never truncate live configuration; on the receive side, checkAlg
// rejects nibble values with no registered suite with a typed
// ErrAlgorithmUnknown instead of letting them alias a real suite.
func (h *Header) algByte() byte { return byte(h.Cipher)<<4 | byte(h.Mode)&0x0f }

// Encode appends the wire encoding of the header to dst and returns the
// extended slice.
func (h *Header) Encode(dst []byte) []byte {
	var b [HeaderSize]byte
	b[0] = h.Version
	b[1] = h.Flags
	b[2] = byte(h.MAC)
	b[3] = h.algByte()
	binary.BigEndian.PutUint64(b[4:], uint64(h.SFL))
	binary.BigEndian.PutUint32(b[12:], h.Confounder)
	binary.BigEndian.PutUint32(b[16:], uint32(h.Timestamp))
	copy(b[20:], h.MACValue[:])
	return append(dst, b[:]...)
}

// Decode parses a header from the front of b, returning the number of
// bytes consumed.
func (h *Header) Decode(b []byte) (int, error) {
	if len(b) < HeaderSize {
		return 0, fmt.Errorf("core: datagram too short for FBS header: %d < %d", len(b), HeaderSize)
	}
	h.Version = b[0]
	if h.Version != HeaderVersion {
		return 0, fmt.Errorf("core: unsupported FBS header version %d", h.Version)
	}
	h.Flags = b[1]
	h.MAC = cryptolib.MACID(b[2])
	h.Cipher = CipherID(b[3] >> 4)
	h.Mode = cryptolib.Mode(b[3] & 0x0f)
	h.SFL = SFL(binary.BigEndian.Uint64(b[4:]))
	h.Confounder = binary.BigEndian.Uint32(b[12:])
	h.Timestamp = Timestamp(binary.BigEndian.Uint32(b[16:]))
	copy(h.MACValue[:], b[20:20+MACLen])
	return HeaderSize, nil
}

// macInput returns the header-derived MAC input fields. The paper's MAC
// is HMAC(K_f | confounder | timestamp | payload); since it is meant to
// ensure "the integrity of the datagram body and the other fields in the
// security flow header", the version/flags/algorithm prefix is included
// too, which also forecloses algorithm-downgrade tampering. (The sfl
// needs no explicit coverage: altering it changes K_f itself.)
func (h *Header) macInput() [12]byte {
	var b [12]byte
	b[0] = h.Version
	b[1] = h.Flags
	b[2] = byte(h.MAC)
	b[3] = h.algByte()
	binary.BigEndian.PutUint32(b[4:], h.Confounder)
	binary.BigEndian.PutUint32(b[8:], uint32(h.Timestamp))
	return b
}

// iv derives the encryption IV from the confounder. Per Section 7.2, the
// 32-bit confounder is duplicated to fill the 64-bit DES block.
func (h *Header) iv() [8]byte {
	var b [8]byte
	binary.BigEndian.PutUint32(b[0:], h.Confounder)
	binary.BigEndian.PutUint32(b[4:], h.Confounder)
	return b
}
