package core

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"time"

	"fbs/internal/cryptolib"
)

// The paper prescribes an algorithm identification field in the security
// flow header precisely so flows can negotiate ciphers per flow (Section
// 5.2, "for generality"); the 1997 implementation then hardwired the one
// choice it measured (DES-CBC + keyed MD5). Suite is the seam that makes
// the choice a parameter: everything the data plane needs from a cipher
// suite — wire overhead, IV/nonce discipline, the MAC construction, and
// the seal/open body transforms themselves — hangs off this interface,
// keyed by the header's cipher nibble through a fixed 16-slot registry.
//
// Two families implement it. The legacy suites (none, DES, 3DES) keep
// the paper's separate MAC-then-encrypt passes bit-for-bit, so the
// committed golden vectors still hold. The AEAD suites (AES-128-GCM,
// ChaCha20-Poly1305) collapse encrypt+MAC into one sealed-box pass: the
// 16-byte MAC value field carries the AEAD tag, the body is exact-length
// ciphertext (no padding), and the header prefix rides along as AAD so
// algorithm downgrade stays foreclosed exactly as macInput forecloses it
// for the legacy suites.
type Suite interface {
	// ID is the registry slot: the header's cipher nibble.
	ID() CipherID
	// Name is the conventional suite name (stable; used as a metric label
	// and in bench artifacts).
	Name() string
	// AEAD reports whether integrity is intrinsic (tag in the MAC value
	// field) rather than a separate MAC construction.
	AEAD() bool
	// Overhead is the worst-case bytes sealing adds to a payload.
	Overhead() int
	// WireAlg maps the endpoint's configured MAC/mode onto what this
	// suite actually puts in the header: legacy suites pass them through,
	// AEAD suites force (MACAEAD, 0).
	WireAlg(mac cryptolib.MACID, mode cryptolib.Mode) (cryptolib.MACID, cryptolib.Mode)
	// ValidHeader reports whether the MAC/mode bytes of a decoded header
	// are structurally possible for this suite. It is a structural check,
	// not receiver policy — policy lives in Endpoint.checkAlg.
	ValidHeader(h Header) bool
	// SealAppend appends the protected body to dst and patches the MAC
	// value (or AEAD tag) into the already-encoded header at
	// dst[hdrOff+macValueOffset:]. h carries the wire algorithm fields
	// this suite's WireAlg chose. When tc is non-nil the datagram is
	// traced: each MAC and cipher pass emits its own span. The context
	// type is core's own; callers outside the package pass nil. The
	// bool is unused; it stays only because bench/gwbench's replica
	// still passes it. SealAppend and OpenAppend expand kf on every call;
	// only the replica and the golden vectors use them.
	SealAppend(dst []byte, hdrOff int, h Header, kf [16]byte, payload []byte, _ bool, tc *traceCtx) ([]byte, error)
	// OpenAppend recovers and authenticates the body. For a secret body
	// the plaintext is appended to dst; for a cleartext body the returned
	// body aliases the input. Errors are the endpoint's sentinel errors
	// (ErrDecrypt, ErrBadMAC) — the caller maps them to drop reasons.
	OpenAppend(dst []byte, h Header, kf [16]byte, body []byte, tc *traceCtx) (newDst []byte, plain []byte, err error)

	// slot builds the TFKC/RFKC slot value for kf, which the endpoint
	// seals and opens through with seal and open.
	slot(kf [16]byte) keySlot
	seal(dst []byte, hdrOff int, h Header, ks keySlot, payload []byte, tc *traceCtx) ([]byte, error)
	open(dst []byte, h Header, ks keySlot, body []byte, tc *traceCtx) ([]byte, []byte, error)
}

// maxAlgNibble bounds the IDs that fit the header's packed algorithm
// byte: cipher in the high nibble, mode in the low nibble.
const maxAlgNibble = 0x0f

// suiteRegistry holds one slot per cipher nibble value.
var suiteRegistry [maxAlgNibble + 1]Suite

// RegisterSuite installs a suite in the registry slot its ID names.
// Registration happens at init time; collisions and out-of-range IDs are
// programming errors.
func RegisterSuite(s Suite) {
	id := s.ID()
	if id > maxAlgNibble {
		panic(fmt.Sprintf("core: suite %q id %d exceeds the cipher nibble", s.Name(), id))
	}
	if suiteRegistry[id] != nil {
		panic(fmt.Sprintf("core: suite id %d registered twice (%q, %q)", id, suiteRegistry[id].Name(), s.Name()))
	}
	suiteRegistry[id] = s
}

// SuiteByID returns the registered suite for a cipher ID, or nil.
func SuiteByID(id CipherID) Suite {
	if id > maxAlgNibble {
		return nil
	}
	return suiteRegistry[id]
}

// Suites returns the registered suites in ID order.
func Suites() []Suite {
	out := make([]Suite, 0, 8)
	for _, s := range suiteRegistry {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

func init() {
	RegisterSuite(&legacySuite{id: CipherNone, name: "none"})
	RegisterSuite(&legacySuite{id: CipherDES, name: "DES"})
	RegisterSuite(&legacySuite{id: Cipher3DES, name: "3DES"})
	RegisterSuite(&aeadSuite{id: CipherAES128GCM, name: "AES-128-GCM", new: newGCM})
	RegisterSuite(&aeadSuite{id: CipherChaCha20Poly1305, name: "ChaCha20-Poly1305", new: newChaCha})
}

// --- legacy suites: the paper's MAC-then-encrypt construction ---

// legacySuite wraps the paper-faithful construction: a separate MAC
// (selected by the header's MAC byte) over confounder | timestamp |
// plaintext, then block encryption in the header's mode, PKCS#7 padded,
// IV from the duplicated confounder. CipherNone is the MAC-only member:
// it seals cleartext bodies but cannot encrypt.
type legacySuite struct {
	id   CipherID
	name string
}

func (l *legacySuite) ID() CipherID  { return l.id }
func (l *legacySuite) Name() string  { return l.name }
func (l *legacySuite) AEAD() bool    { return false }
func (l *legacySuite) Overhead() int { return HeaderSize + cryptolib.BlockSize }
func (l *legacySuite) WireAlg(mac cryptolib.MACID, mode cryptolib.Mode) (cryptolib.MACID, cryptolib.Mode) {
	return mac, mode
}

// ValidHeader: any implemented MAC construction with any implemented
// block mode. IDs beyond those never decrypt or verify — rejecting them
// up front turns "silently truncated nibble" into a typed DropAlgorithm.
func (l *legacySuite) ValidHeader(h Header) bool {
	return h.MAC <= cryptolib.MACNull && h.Mode <= cryptolib.OFB
}

func (l *legacySuite) slot(kf [16]byte) keySlot { return keySlot{kf: kf, suite: l.id} }

func (l *legacySuite) SealAppend(dst []byte, hdrOff int, h Header, kf [16]byte, payload []byte, _ bool, tc *traceCtx) ([]byte, error) {
	return l.seal(dst, hdrOff, h, l.slot(kf), payload, tc)
}

func (l *legacySuite) OpenAppend(dst []byte, h Header, kf [16]byte, body []byte, tc *traceCtx) ([]byte, []byte, error) {
	return l.open(dst, h, l.slot(kf), body, tc)
}

// seal and open key the paper's ciphers and MACs from ks.kf on every
// datagram, as the 1997 implementation did.
func (l *legacySuite) seal(dst []byte, hdrOff int, h Header, ks keySlot, payload []byte, tc *traceCtx) ([]byte, error) {
	var t time.Time
	if !h.Secret() {
		// (S6) MAC over confounder | timestamp | plaintext body. MACNull
		// writes all zeros, which the encoded header already holds.
		dst = append(dst, payload...)
		if h.MAC != cryptolib.MACNull {
			// Copies declared inside the branch so the variadic MAC call
			// only forces a heap allocation when a MAC is computed; the
			// NOP configuration stays allocation-free.
			t = tc.start()
			kfc, mic := ks.kf, h.macInput()
			mac := h.MAC.Compute(kfc[:], mic[:], payload)
			copy(dst[hdrOff+macValueOffset:], mac[:MACLen])
			tc.pass(SpanMAC, h.SFL, t)
		}
		return dst, nil
	}
	kfs, mis := ks.kf, h.macInput()
	c, err := h.Cipher.newCipher(kfs[:])
	if err != nil {
		return nil, err
	}
	bodyOff := len(dst)
	dst = cryptolib.AppendPadded(dst, payload, cryptolib.BlockSize)
	padded := dst[bodyOff:]
	iv := h.iv()
	// (S6) MAC, then (S8-9) encrypt in place.
	if h.MAC != cryptolib.MACNull {
		t = tc.start()
		mac := h.MAC.Compute(kfs[:], mis[:], payload)
		copy(dst[hdrOff+macValueOffset:], mac[:MACLen])
		tc.pass(SpanMAC, h.SFL, t)
	}
	t = tc.start()
	if _, err := cryptolib.EncryptMode(c, h.Mode, iv[:], padded, padded); err != nil {
		return nil, err
	}
	tc.pass(SpanCipher, h.SFL, t)
	return dst, nil
}

func (l *legacySuite) open(dst []byte, h Header, ks keySlot, body []byte, tc *traceCtx) ([]byte, []byte, error) {
	var t time.Time
	// (R10-11, hoisted — see package comment) decrypt before verifying,
	// since the MAC covers the plaintext body.
	if h.Secret() {
		t = tc.start()
		kfs := ks.kf
		c, err := h.Cipher.newCipher(kfs[:])
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrDecrypt, err)
		}
		iv := h.iv()
		// Stage the ciphertext at the end of dst and decrypt in place
		// (DecryptMode permits aliasing), so the append path needs no
		// scratch buffer.
		off := len(dst)
		dst = append(dst, body...)
		plain := dst[off:]
		if _, err := cryptolib.DecryptMode(c, h.Mode, iv[:], plain, plain); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrDecrypt, err)
		}
		unpadded, err := cryptolib.Unpad(plain, cryptolib.BlockSize)
		if err != nil {
			// Bad padding means corruption or wrong key; report it as
			// an authentication failure to avoid a padding oracle.
			return nil, nil, ErrBadMAC
		}
		dst = dst[:off+len(unpadded)]
		body = unpadded
		tc.pass(SpanCipher, h.SFL, t)
	}
	// (R7-9) verify the MAC, using the construction the header's
	// algorithm identification names (gated upstream by checkAlg).
	// MACNull verifies trivially (Verify returns true unconditionally);
	// skipping the call keeps the variadic arguments from forcing heap
	// allocations on the NOP path.
	if h.MAC != cryptolib.MACNull {
		t = tc.start()
		kfc, mic := ks.kf, h.macInput()
		ok := h.MAC.Verify(kfc[:], h.MACValue[:], mic[:], body)
		tc.pass(SpanMAC, h.SFL, t)
		if !ok {
			return nil, nil, ErrBadMAC
		}
	}
	return dst, body, nil
}

// --- AEAD suites: one sealed-box pass ---

// sealedBox is the slice-append subset of crypto/cipher.AEAD the suites
// need; crypto/cipher's GCM satisfies it directly, as does cryptolib's
// from-scratch ChaCha20-Poly1305.
type sealedBox interface {
	Seal(dst, nonce, plaintext, additionalData []byte) []byte
	Open(dst, nonce, ciphertext, additionalData []byte) ([]byte, error)
}

// keySlot is a TFKC or RFKC slot's value (Figure 6): K_f and, for an
// AEAD suite, the instance expanded from it, built once per flow on the
// slot's miss path and gone with the slot. Both instances are stateless
// after construction (stdlib GCM documents concurrent use; cryptolib's
// ChaCha20-Poly1305 holds only the key), so goroutines share them.
type keySlot struct {
	kf    [16]byte
	box   sealedBox // nil for a legacy suite
	suite CipherID  // the suite whose slot method built it
}

// newGCM and newChaCha expand a flow key. Their keys are fixed-length,
// so the constructors cannot fail.
func newGCM(kf [16]byte) sealedBox {
	blk, _ := aes.NewCipher(kf[:])
	gcm, _ := cipher.NewGCM(blk)
	return gcm
}

// chachaKeyLabel expands the 16-byte flow key to the 32 bytes ChaCha20
// requires: K_f followed by MD5(K_f | label). The refmodel reassembles
// the same expansion independently from the shared MD5 primitive.
//
// Effective strength note: the upper 16 bytes are a public function of
// the lower, so the 256-bit ChaCha20 key carries only the 128 bits of
// entropy in K_f — the suite's effective strength is capped at 128 bits
// by the flow key, exactly like AES-128-GCM. The expansion exists only
// to fill the cipher's key size, not to add strength, and an attacker
// who learns K_f learns the whole key regardless of the expansion
// function, so the MD5 here is a width adapter, not a security
// boundary.
var chachaKeyLabel = []byte("fbs chacha20poly1305 key expand v1")

func newChaCha(kf [16]byte) sealedBox {
	var key [32]byte
	copy(key[:16], kf[:])
	second := cryptolib.Digest(cryptolib.HashMD5, kf[:], chachaKeyLabel)
	copy(key[16:], second)
	box, _ := cryptolib.NewChaCha20Poly1305(key[:])
	return box
}

// aeadSuite carries an AEAD construction over the unchanged 36-byte
// header: the MAC byte is MACAEAD, the mode nibble is zero, the MAC
// value field holds the 16-byte tag, and the body is exact-length
// ciphertext (no padding — Overhead is just the header). The nonce is
// confounder(4) | timestamp(4) | low 32 bits of sfl(4), all big-endian.
//
// Nonce discipline: an AEAD nonce must be UNIQUE under the key, not
// merely statistically random — 32 random bits birthday-collide around
// 2^16 datagrams, and nonce reuse under GCM forfeits both
// confidentiality and the authentication key. So for AEAD flows the
// sender does not draw a random confounder: the confounder field
// carries the flow's monotonic datagram counter (maintained in the flow
// state entry, incremented under the stripe lock; see sealRun).
// Under one K_f (one sfl) the nonce can then only repeat if 2^32
// datagrams are sealed within a single timestamp minute; rekeying
// allocates a fresh sfl and thus a fresh K_f, and a restarted endpoint
// randomises its sfl seed, so no (key, counter) pair ever resumes. The
// receiver reassembles the nonce from the header alone and needs no
// counter state. The sfl low bits separate concurrent flows that could
// share counter and timestamp.
//
// The 12-byte macInput prefix rides as AAD, so flipping any algorithm
// byte breaks the tag exactly as it breaks the legacy MAC.
type aeadSuite struct {
	id   CipherID
	name string
	new  func(kf [16]byte) sealedBox
}

func (a *aeadSuite) ID() CipherID  { return a.id }
func (a *aeadSuite) Name() string  { return a.name }
func (a *aeadSuite) AEAD() bool    { return true }
func (a *aeadSuite) Overhead() int { return HeaderSize }
func (a *aeadSuite) WireAlg(cryptolib.MACID, cryptolib.Mode) (cryptolib.MACID, cryptolib.Mode) {
	return cryptolib.MACAEAD, 0
}

func (a *aeadSuite) ValidHeader(h Header) bool {
	return h.MAC == cryptolib.MACAEAD && h.Mode == 0
}

// aeadNonce assembles the 96-bit nonce from the header.
func aeadNonce(h Header) [12]byte {
	var n [12]byte
	binary.BigEndian.PutUint32(n[0:], h.Confounder)
	binary.BigEndian.PutUint32(n[4:], uint32(h.Timestamp))
	binary.BigEndian.PutUint32(n[8:], uint32(h.SFL))
	return n
}

// aeadScratch carries the small per-datagram arrays whose slices cross
// the sealedBox interface boundary. The compiler must assume an
// interface callee retains its arguments, so as locals these would be
// moved to the heap on every seal and open; pooling replaces the
// per-datagram allocations with one Get/Put pair.
type aeadScratch struct {
	nonce [12]byte
	mi    [12]byte
	tag   [MACLen]byte
	aad   []byte
}

var aeadScratchPool = sync.Pool{New: func() any { return new(aeadScratch) }}

func (a *aeadSuite) slot(kf [16]byte) keySlot {
	return keySlot{kf: kf, box: a.new(kf), suite: a.id}
}

func (a *aeadSuite) SealAppend(dst []byte, hdrOff int, h Header, kf [16]byte, payload []byte, _ bool, tc *traceCtx) ([]byte, error) {
	return a.seal(dst, hdrOff, h, a.slot(kf), payload, tc)
}

func (a *aeadSuite) OpenAppend(dst []byte, h Header, kf [16]byte, body []byte, tc *traceCtx) ([]byte, []byte, error) {
	return a.open(dst, h, a.slot(kf), body, tc)
}

// seal uses the slot's instance as it stands: a sender's TFKC holds
// only slots its own suite built.
func (a *aeadSuite) seal(dst []byte, hdrOff int, h Header, ks keySlot, payload []byte, tc *traceCtx) ([]byte, error) {
	box := ks.box
	sc := aeadScratchPool.Get().(*aeadScratch)
	defer aeadScratchPool.Put(sc)
	sc.nonce = aeadNonce(h)
	sc.mi = h.macInput()
	nonce, mi := &sc.nonce, &sc.mi
	var t time.Time
	if !h.Secret() {
		// Cleartext body, intrinsic integrity: the tag seals an empty
		// plaintext with header | body as AAD, and lands in the MAC value
		// field like a legacy MAC would.
		dst = append(dst, payload...)
		t = tc.start()
		sc.aad = append(sc.aad[:0], mi[:]...)
		sc.aad = append(sc.aad, payload...)
		box.Seal(sc.tag[:0], nonce[:], nil, sc.aad)
		copy(dst[hdrOff+macValueOffset:], sc.tag[:])
		tc.pass(SpanMAC, h.SFL, t)
		return dst, nil
	}
	// Sealed box in place: append the plaintext plus tag headroom, seal
	// over the appended region (the documented plaintext[:0] aliasing
	// form), then move the tag into the header and truncate the body back
	// to exact ciphertext length. One pass, no padding. Charged to
	// SpanCipher: there is no separate MAC traversal to time.
	t = tc.start()
	bodyOff := len(dst)
	dst = append(dst, payload...)
	var tagRoom [MACLen]byte
	dst = append(dst, tagRoom[:]...)
	sealed := box.Seal(dst[bodyOff:bodyOff], nonce[:], dst[bodyOff:bodyOff+len(payload)], mi[:])
	copy(dst[hdrOff+macValueOffset:], sealed[len(payload):])
	dst = dst[:bodyOff+len(payload)]
	tc.pass(SpanCipher, h.SFL, t)
	return dst, nil
}

// open uses the slot's instance when this suite built it. A datagram
// relabelled to another suite than its flow's first gets a one-off
// instance, and fails authentication unless its sender really did that.
func (a *aeadSuite) open(dst []byte, h Header, ks keySlot, body []byte, tc *traceCtx) ([]byte, []byte, error) {
	box := ks.box
	if ks.suite != a.id {
		box = a.new(ks.kf)
	}
	sc := aeadScratchPool.Get().(*aeadScratch)
	defer aeadScratchPool.Put(sc)
	sc.nonce = aeadNonce(h)
	sc.mi = h.macInput()
	nonce, mi := &sc.nonce, &sc.mi
	var t time.Time
	if !h.Secret() {
		t = tc.start()
		sc.aad = append(sc.aad[:0], mi[:]...)
		sc.aad = append(sc.aad, body...)
		sc.tag = h.MACValue
		_, err := box.Open(nil, nonce[:], sc.tag[:], sc.aad)
		tc.pass(SpanMAC, h.SFL, t)
		if err != nil {
			return nil, nil, ErrBadMAC
		}
		return dst, body, nil
	}
	t = tc.start()
	// Stage ciphertext | tag at the end of dst and open in place (the
	// documented ciphertext[:0] aliasing form); on success the appended
	// region is exactly the plaintext.
	off := len(dst)
	dst = slices.Grow(dst, len(body)+MACLen)
	dst = append(dst, body...)
	dst = append(dst, h.MACValue[:]...)
	plain, err := box.Open(dst[off:off], nonce[:], dst[off:], mi[:])
	tc.pass(SpanCipher, h.SFL, t)
	if err != nil {
		// An AEAD open failure is indistinguishably corruption or a wrong
		// key; like the legacy pad check, report it as an authentication
		// failure.
		return nil, nil, ErrBadMAC
	}
	dst = dst[:off+len(plain)]
	return dst, plain, nil
}
