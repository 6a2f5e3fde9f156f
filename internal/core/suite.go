package core

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
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
// the paper's separate MAC-then-encrypt passes (including the Section
// 5.3 single-pass fusion) bit-for-bit, so the committed golden vectors
// still hold. The AEAD suites (AES-128-GCM, ChaCha20-Poly1305) collapse
// encrypt+MAC into one sealed-box pass: the 16-byte MAC value field
// carries the AEAD tag, the body is exact-length ciphertext (no
// padding), and the header prefix rides along as AAD so algorithm
// downgrade stays foreclosed exactly as macInput forecloses it for the
// legacy suites.
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
	// not receiver policy — policy lives in Config.AcceptMACs/AcceptCiphers.
	ValidHeader(h Header) bool
	// DeriveIV returns the per-datagram IV (legacy, 8 bytes) or nonce
	// (AEAD, 12 bytes) this suite derives from the header. Diagnostic
	// seam for golden/framing tests; the hot paths inline it.
	DeriveIV(h Header) []byte
	// SealAppend appends the protected body to dst and patches the MAC
	// value (or AEAD tag) into the already-encoded header at
	// dst[hdrOff+macValueOffset:]. h carries the wire algorithm fields
	// this suite's WireAlg chose. When tc is non-nil the datagram is
	// traced: each MAC and cipher pass emits its own span. The context
	// type is core's own; callers outside the package pass nil.
	SealAppend(dst []byte, hdrOff int, h Header, kf [16]byte, payload []byte, singlePass bool, tc *traceCtx) ([]byte, error)
	// OpenAppend recovers and authenticates the body. For a secret body
	// the plaintext is appended to dst; for a cleartext body the returned
	// body aliases the input. Errors are the endpoint's sentinel errors
	// (ErrDecrypt, ErrBadMAC) — the caller maps them to drop reasons.
	OpenAppend(dst []byte, h Header, kf [16]byte, body []byte, tc *traceCtx) (newDst []byte, plain []byte, err error)
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

func (l *legacySuite) DeriveIV(h Header) []byte {
	iv := h.iv()
	return iv[:]
}

func (l *legacySuite) SealAppend(dst []byte, hdrOff int, h Header, kf [16]byte, payload []byte, singlePass bool, tc *traceCtx) ([]byte, error) {
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
			kfc, mic := kf, h.macInput()
			mac := h.MAC.Compute(kfc[:], mic[:], payload)
			copy(dst[hdrOff+macValueOffset:], mac[:MACLen])
			tc.pass(SpanMAC, h.SFL, t)
		}
		return dst, nil
	}
	kfs, mis := kf, h.macInput()
	c, err := h.Cipher.newCipher(kfs[:])
	if err != nil {
		return nil, err
	}
	bs := c.BlockSize()
	bodyOff := len(dst)
	dst = cryptolib.AppendPadded(dst, payload, bs)
	padded := dst[bodyOff:]
	iv := h.iv()
	if singlePass && h.Mode == cryptolib.CBC {
		// Section 5.3: roll MAC computation and encryption into one pass
		// over the data. CBC chaining fused with MAC absorption; other
		// modes fall back to two passes below. The fused pass is charged
		// to SpanCipher (no SpanMAC is emitted — there is no separate MAC
		// traversal to time).
		t = tc.start()
		mac := h.MAC.NewStream(kfs[:])
		mac.Write(mis[:])
		prev := iv
		bodyLen := len(payload)
		for off := 0; off < len(padded); off += bs {
			block := padded[off : off+bs]
			// The MAC covers only the original body, not the padding.
			if off < bodyLen {
				end := off + bs
				if end > bodyLen {
					end = bodyLen
				}
				mac.Write(padded[off:end])
			}
			for j := 0; j < bs; j++ {
				block[j] ^= prev[j]
			}
			c.EncryptBlock(block, block)
			copy(prev[:], block)
		}
		if h.MAC != cryptolib.MACNull {
			copy(dst[hdrOff+macValueOffset:], mac.Sum()[:MACLen])
		}
		tc.pass(SpanCipher, h.SFL, t)
		return dst, nil
	}
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

func (l *legacySuite) OpenAppend(dst []byte, h Header, kf [16]byte, body []byte, tc *traceCtx) ([]byte, []byte, error) {
	var t time.Time
	// (R10-11, hoisted — see package comment) decrypt before verifying,
	// since the MAC covers the plaintext body.
	if h.Secret() {
		t = tc.start()
		kfs := kf
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
		unpadded, err := cryptolib.Unpad(plain, c.BlockSize())
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
		kfc, mic := kf, h.macInput()
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

func newGCM(kf [16]byte) (sealedBox, error) {
	blk, err := aes.NewCipher(kf[:])
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(blk)
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

func newChaCha(kf [16]byte) (sealedBox, error) {
	var key [32]byte
	copy(key[:16], kf[:])
	second := cryptolib.Digest(cryptolib.HashMD5, kf[:], chachaKeyLabel)
	copy(key[16:], second)
	return cryptolib.NewChaCha20Poly1305(key[:])
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
	new  func(kf [16]byte) (sealedBox, error)

	// boxes caches constructed AEAD instances by flow key. Key schedule
	// setup (AES expansion + GCM table init, ChaCha key widening)
	// dominates small-datagram seal/open cost, and a flow keeps one K_f
	// for its whole life, so the cache turns a per-datagram cost into a
	// per-flow one. Both cached implementations are stateless after
	// construction (stdlib GCM documents concurrent use; cryptolib's
	// ChaCha20-Poly1305 holds only the key), so one instance serves all
	// goroutines. Holding an expanded key in memory exposes nothing the
	// flow-key caches don't already hold.
	mu    sync.RWMutex
	boxes map[[16]byte]sealedBox
}

// aeadBoxCacheMax bounds the per-suite instance cache. Eviction is a
// wholesale reset: at worst every live flow re-expands its key once per
// aeadBoxCacheMax distinct keys seen, which keeps the common case a
// single RLock probe with no bookkeeping.
const aeadBoxCacheMax = 4096

// box returns the cached AEAD instance for kf, constructing it on first
// use.
func (a *aeadSuite) box(kf [16]byte) (sealedBox, error) {
	a.mu.RLock()
	box, ok := a.boxes[kf]
	a.mu.RUnlock()
	if ok {
		return box, nil
	}
	box, err := a.new(kf)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	if a.boxes == nil || len(a.boxes) >= aeadBoxCacheMax {
		a.boxes = make(map[[16]byte]sealedBox)
	}
	a.boxes[kf] = box
	a.mu.Unlock()
	return box, nil
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

func (a *aeadSuite) DeriveIV(h Header) []byte {
	n := aeadNonce(h)
	return n[:]
}

func (a *aeadSuite) SealAppend(dst []byte, hdrOff int, h Header, kf [16]byte, payload []byte, singlePass bool, tc *traceCtx) ([]byte, error) {
	box, err := a.box(kf)
	if err != nil {
		return nil, err
	}
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
	// SpanCipher — like the single-pass legacy fusion, there is no
	// separate MAC traversal to time.
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

func (a *aeadSuite) OpenAppend(dst []byte, h Header, kf [16]byte, body []byte, tc *traceCtx) ([]byte, []byte, error) {
	box, err := a.box(kf)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrDecrypt, err)
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
