// Package refmodel is a second, deliberately naive implementation of
// the FBS endpoint, written straight from the paper's protocol
// description (Sections 5.2-5.3, Figure 4) for differential testing
// against internal/core.
//
// Everything core does for speed is absent here on purpose: there are
// no flow key caches (every datagram rederives K_f from the master
// key), no striping (one mutex covers the whole endpoint), no state
// budgets or admission gates, no allocation discipline (every seal and
// open builds fresh buffers), and no single-pass MAC+encrypt fusion.
// What remains is the protocol itself: flow classification into a slot
// table, zero-message flow key derivation, the security flow header,
// freshness, MAC, encryption, and exact-duplicate suppression.
//
// The wire format and check order are reimplemented independently —
// header encoding, MAC input assembly, IV derivation, AEAD nonce/AAD
// framing, timestamp freshness and K_f derivation are all written out
// again here rather than calling core's helpers — so that a bug in
// either implementation surfaces as a divergence in the netsim
// differential harness rather than cancelling out. Only true primitives
// (DES, MD5, CRC-32, cipher modes, AES-GCM, the ChaCha20-Poly1305 box)
// and the principal/certificate encodings are shared, plus core's error
// sentinels so both sides classify failures identically through
// core.DropReasonOf. The cipher-suite decision table — which cipher
// nibbles exist, which MAC/mode bytes each can carry — is restated here
// as plain switches, mirroring core's registry-driven checkAlg.
package refmodel

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/md5"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"fbs/internal/cert"
	"fbs/internal/core"
	"fbs/internal/cryptolib"
	"fbs/internal/principal"
)

// Wire layout, restated from the paper's header (Section 5.2) plus the
// algorithm identification field: version, flags, MAC algorithm,
// cipher/mode nibbles, sfl, confounder, timestamp, MAC value.
const (
	headerSize = 36
	macLen     = 16
	macOffset  = headerSize - macLen
	flagSecret = 1 << 0

	// Minutes since 00:00 GMT January 1, 1996 (Section 7.2), as Unix
	// seconds.
	epochUnix = 820454400
)

// Config mirrors the knobs of core.Config that affect wire output,
// stripped of every performance option.
type Config struct {
	// Identity is this principal's address and Diffie-Hellman keying
	// material. Required.
	Identity *principal.Identity
	// Directory and Verifier serve and validate peer certificates.
	// Required.
	Directory cert.Directory
	Verifier  *cert.Verifier

	// Clock drives timestamps; default core.RealClock.
	Clock core.Clock
	// Confounder produces per-datagram confounders; default a
	// deterministic LCG (differential runs always supply one).
	Confounder cryptolib.ConfounderSource

	// MAC, Cipher and Mode select the algorithms, with core's
	// defaults: keyed-MD5 prefix, DES, ECB.
	MAC    cryptolib.MACID
	Cipher core.CipherID
	Mode   cryptolib.Mode

	// FreshnessWindow is the replay window half-width; default 10
	// minutes.
	FreshnessWindow time.Duration

	// Threshold is the idle gap that ends a flow; default 10 minutes.
	// MaxPackets is the wear-out rekeying limit (0 = no limit). Together
	// they restate core.ThresholdPolicy.
	Threshold  time.Duration
	MaxPackets uint64
	// TableSize is the flow slot table size; default 256.
	TableSize int
	// SFLSeed, when nonzero, fixes the first sfl allocated, matching
	// core.Config.SFLSeed.
	SFLSeed uint64

	// EnableReplayCache turns on exact-duplicate suppression within
	// the freshness window.
	EnableReplayCache bool

	// Prefilter configures the reference edge pre-filter (see
	// prefilter.go); the zero value disables it.
	Prefilter PrefilterConfig
}

// flowSlot is one row of the naive flow table (Figure 7, without the
// combined key cache).
type flowSlot struct {
	valid   bool
	id      core.FlowID
	sfl     uint64
	last    time.Time
	packets uint64
}

// replaySig identifies a datagram within the freshness window, restating
// core's signature: sfl, confounder, timestamp, first half of the MAC.
type replaySig struct {
	sfl  uint64
	conf uint32
	ts   uint32
	mac  [8]byte
}

// Endpoint is the reference endpoint. One mutex serialises everything.
type Endpoint struct {
	mu      sync.Mutex
	cfg     Config
	table   []flowSlot
	nextSFL uint64
	masters map[principal.Address][16]byte
	replay  map[replaySig]time.Time
	pf      *refPrefilter

	drops    [core.NumDropReasons]uint64
	accepted uint64
	sealed   uint64
}

// New builds a reference endpoint, applying the same defaults
// core.NewEndpoint would.
func New(cfg Config) (*Endpoint, error) {
	if cfg.Identity == nil {
		return nil, errors.New("refmodel: Config.Identity is required")
	}
	if cfg.Directory == nil || cfg.Verifier == nil {
		return nil, errors.New("refmodel: Config.Directory and Config.Verifier are required")
	}
	if cfg.Clock == nil {
		cfg.Clock = core.RealClock{}
	}
	if cfg.Confounder == nil {
		cfg.Confounder = cryptolib.NewLCGSeeded(1)
	}
	if cfg.Cipher == core.CipherNone {
		cfg.Cipher = core.CipherDES
	}
	// Mirror core.NewEndpoint's nibble/suite validation: IDs must fit
	// the packed algorithm byte and name a suite this model implements.
	if cfg.Cipher > 0x0f || cfg.Mode > 0x0f {
		return nil, fmt.Errorf("%w: cipher %d / mode %d", core.ErrAlgorithmRange, cfg.Cipher, cfg.Mode)
	}
	switch cfg.Cipher {
	case core.CipherDES, core.Cipher3DES:
		if cfg.MAC > cryptolib.MACNull || cfg.Mode > cryptolib.OFB {
			return nil, fmt.Errorf("%w: MAC %d / mode %d", core.ErrAlgorithmRange, cfg.MAC, cfg.Mode)
		}
	case core.CipherAES128GCM, core.CipherChaCha20Poly1305:
		// AEAD suites ignore MAC/Mode; the wire carries MACAEAD and a
		// zero mode nibble.
	default:
		return nil, fmt.Errorf("%w: cipher %d has no reference implementation", core.ErrAlgorithmRange, cfg.Cipher)
	}
	if cfg.FreshnessWindow <= 0 {
		cfg.FreshnessWindow = 10 * time.Minute
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 10 * time.Minute
	}
	if cfg.TableSize <= 0 {
		cfg.TableSize = 256
	}
	e := &Endpoint{
		cfg:     cfg,
		table:   make([]flowSlot, cfg.TableSize),
		nextSFL: cfg.SFLSeed,
		masters: make(map[principal.Address][16]byte),
		replay:  make(map[replaySig]time.Time),
	}
	if cfg.Prefilter.Enable {
		pf, err := newRefPrefilter(cfg.Prefilter)
		if err != nil {
			return nil, err
		}
		e.pf = pf
	}
	return e, nil
}

// Addr returns this endpoint's principal address.
func (e *Endpoint) Addr() principal.Address { return e.cfg.Identity.Addr }

// Drops returns the per-reason drop counters, indexed by
// core.DropReason.
func (e *Endpoint) Drops() [core.NumDropReasons]uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.drops
}

// Accepted returns how many datagrams passed every receive check.
func (e *Endpoint) Accepted() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.accepted
}

// Sealed returns how many datagrams were successfully sealed.
func (e *Endpoint) Sealed() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sealed
}

// FlushKeys drops every cached master key, the reference analogue of
// core's FlushKeys (which empties the key caches but leaves flow
// associations and the replay window intact).
func (e *Endpoint) FlushKeys() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.masters = make(map[principal.Address][16]byte)
}

// FlowKeyTo derives the flow key this endpoint would use for sfl on
// datagrams sent to peer — the reference counterpart of
// core.Endpoint.PeerFlowKey.
func (e *Endpoint) FlowKeyTo(sfl uint64, peer principal.Address) ([16]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.flowKey(sfl, e.cfg.Identity.Addr, peer, peer)
}

// master returns the shared master key with peer, performing the
// zero-message exchange of Section 5.3 on first use: fetch the peer's
// certificate, verify it, and combine its public value with our own
// exponent. The exponentiation runs on math/big alone
// (PortableMasterKey): it is the oracle for the Montgomery kernel the
// core endpoint keys with.
func (e *Endpoint) master(peer principal.Address) ([16]byte, error) {
	if k, ok := e.masters[peer]; ok {
		return k, nil
	}
	c, err := e.cfg.Directory.Lookup(peer)
	if err != nil {
		return [16]byte{}, err
	}
	if err := e.cfg.Verifier.Verify(c, peer, e.cfg.Clock.Now()); err != nil {
		return [16]byte{}, err
	}
	k, err := e.cfg.Identity.PortableMasterKey(c.Public)
	if err != nil {
		return [16]byte{}, err
	}
	e.masters[peer] = k
	return k, nil
}

// flowKey derives K_f = MD5(sfl | K_master | src | dst) per Section
// 5.3, building the hash input from scratch each call.
func (e *Endpoint) flowKey(sfl uint64, src, dst, peer principal.Address) ([16]byte, error) {
	master, err := e.master(peer)
	if err != nil {
		return [16]byte{}, err
	}
	buf := make([]byte, 0, 8+16+len(src)+len(dst)+4)
	buf = binary.BigEndian.AppendUint64(buf, sfl)
	buf = append(buf, master[:]...)
	buf = append(buf, src.Wire()...)
	buf = append(buf, dst.Wire()...)
	return md5.Sum(buf), nil
}

// slotIndex restates the CRC-32 table index of Figure 7: CRC over
// source, destination, then the fixed-width attribute block.
func slotIndex(id core.FlowID, tableSize int) int {
	state := uint32(0xFFFFFFFF)
	state = cryptolib.CRC32UpdateString(state, string(id.Src))
	state = cryptolib.CRC32UpdateString(state, string(id.Dst))
	var b [13]byte
	b[0] = id.Proto
	binary.BigEndian.PutUint16(b[1:], id.SrcPort)
	binary.BigEndian.PutUint16(b[3:], id.DstPort)
	binary.BigEndian.PutUint64(b[5:], id.Aux)
	h := cryptolib.CRC32Update(state, b[:]) ^ 0xFFFFFFFF
	return int(h % uint32(tableSize))
}

// classify maps the datagram to a flow: reuse the slot's sfl when the
// attributes match within the threshold and under the wear-out limit,
// otherwise start a new flow (and thereby a new key) in that slot. The
// second return is the datagram's 1-based sequence number within the
// flow — AEAD seals restate core's counter-filled confounder from it.
func (e *Endpoint) classify(id core.FlowID, now time.Time) (uint64, uint64) {
	s := &e.table[slotIndex(id, len(e.table))]
	if s.valid && s.id == id && now.Sub(s.last) <= e.cfg.Threshold &&
		(e.cfg.MaxPackets == 0 || s.packets < e.cfg.MaxPackets) {
		s.last = now
		s.packets++
		return s.sfl, s.packets
	}
	sfl := e.nextSFL
	e.nextSFL++
	*s = flowSlot{valid: true, id: id, sfl: sfl, last: now, packets: 1}
	return sfl, 1
}

// timestampOf converts wall-clock time to header minutes, reducing
// modularly past the 2^32-minute wrap and clamping pre-epoch clocks.
func timestampOf(t time.Time) uint32 {
	m := (t.Unix() - epochUnix) / 60
	if m < 0 {
		return 0
	}
	return uint32(m)
}

// fresh restates the modular freshness check (step R3): place the
// sender's minute counter at the representative nearest the receiver's
// own counter and compare the distance against the window. All
// arithmetic is in whole Unix seconds — the reference resolves
// freshness at second granularity, which matches core exactly for the
// whole-second clocks differential runs use.
func fresh(ts uint32, now time.Time, window time.Duration) bool {
	nowMin := (now.Unix() - epochUnix) / 60
	delta := int64(int32(ts - uint32(nowMin)))
	senderSec := epochUnix + (nowMin+delta)*60
	d := now.Unix() - senderSec
	if d < 0 {
		d = -d
	}
	return d <= int64(window/time.Second)
}

// Seal protects one datagram for dst (FBSSend, Figure 4): classify,
// derive K_f, build the header, MAC the plaintext, optionally encrypt.
func (e *Endpoint) Seal(dst principal.Address, id core.FlowID, payload []byte, secret bool) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.cfg.Clock.Now()
	sfl, seq := e.classify(id, now)
	kf, err := e.flowKey(sfl, e.cfg.Identity.Addr, dst, dst)
	if err != nil {
		e.drops[core.DropKeying]++
		return nil, fmt.Errorf("%w: flow to %q: %w", core.ErrKeying, dst, err)
	}

	hdr := make([]byte, headerSize)
	hdr[0] = 1 // version
	if secret {
		hdr[1] = flagSecret
	}
	if isAEAD(e.cfg.Cipher) {
		// AEAD wire algorithm: the MAC byte names the intrinsic tag and
		// the mode nibble is zero.
		hdr[2] = byte(cryptolib.MACAEAD)
		hdr[3] = byte(e.cfg.Cipher) << 4
	} else {
		hdr[2] = byte(e.cfg.MAC)
		hdr[3] = byte(e.cfg.Cipher)<<4 | byte(e.cfg.Mode)&0x0f
	}
	binary.BigEndian.PutUint64(hdr[4:], sfl)
	// AEAD flows fill the confounder with the flow's datagram counter
	// (the nonce must be unique under K_f, not merely random); legacy
	// flows draw from the configured source, restating core's split.
	if isAEAD(e.cfg.Cipher) {
		binary.BigEndian.PutUint32(hdr[12:], uint32(seq))
	} else {
		binary.BigEndian.PutUint32(hdr[12:], e.cfg.Confounder.Uint32())
	}
	binary.BigEndian.PutUint32(hdr[16:], timestampOf(now))

	if isAEAD(e.cfg.Cipher) {
		box, err := newAEAD(e.cfg.Cipher, kf)
		if err != nil {
			return nil, err
		}
		if !secret {
			// Cleartext body: the tag seals an empty plaintext over
			// header-fields | body as AAD and lands in the MAC field.
			aad := append(macInput(hdr), payload...)
			tag := box.Seal(nil, nonceOf(hdr), nil, aad)
			copy(hdr[macOffset:], tag[:macLen])
			e.sealed++
			return append(hdr, payload...), nil
		}
		sealed := box.Seal(nil, nonceOf(hdr), payload, macInput(hdr))
		copy(hdr[macOffset:], sealed[len(payload):])
		e.sealed++
		return append(hdr, sealed[:len(payload)]...), nil
	}

	// The MAC covers the non-MAC header fields that name the datagram
	// (everything but the sfl, which K_f already binds) and the
	// plaintext body, padding excluded.
	if e.cfg.MAC != cryptolib.MACNull {
		mac := e.cfg.MAC.Compute(kf[:], macInput(hdr), payload)
		copy(hdr[macOffset:], mac[:macLen])
	}

	if !secret {
		e.sealed++
		return append(hdr, payload...), nil
	}
	c, err := newCipher(e.cfg.Cipher, kf)
	if err != nil {
		return nil, err
	}
	body := pad(payload, c.BlockSize())
	iv := ivOf(hdr)
	if _, err := cryptolib.EncryptMode(c, e.cfg.Mode, iv, body, body); err != nil {
		return nil, err
	}
	e.sealed++
	return append(hdr, body...), nil
}

// Open validates one received datagram (FBSReceive, Figure 4) in the
// same check order as core: destination, header, freshness, keying,
// decryption, MAC, replay.
func (e *Endpoint) Open(src, dst principal.Address, wire []byte) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if dst != e.cfg.Identity.Addr {
		e.drops[core.DropNotForUs]++
		return nil, fmt.Errorf("%w: %q", core.ErrNotForUs, dst)
	}
	// The pre-filter runs before the header parse, exactly where core
	// places it: a shed prefix or an unanswered challenge refuses the
	// datagram without looking at the header at all, and a verified
	// echo envelope is stripped before parsing.
	if e.pf != nil {
		inner, err := e.pfInbound(src, wire)
		if err != nil {
			return nil, err
		}
		wire = inner
	}
	if len(wire) < headerSize {
		e.drops[core.DropMalformed]++
		return nil, fmt.Errorf("%w: %d bytes", core.ErrMalformed, len(wire))
	}
	if wire[0] != 1 {
		e.drops[core.DropMalformed]++
		return nil, fmt.Errorf("%w: version %d", core.ErrMalformed, wire[0])
	}
	hdr, body := wire[:headerSize], wire[headerSize:]
	// Mirror of core's checkAlg decision table, restated as plain
	// switches: first structure (does the cipher nibble name a suite at
	// all, and can that suite carry these MAC/mode bytes), then — were
	// policy configured — acceptance. Both failures are DropAlgorithm.
	// Positioned exactly where core runs it: after the version check,
	// before freshness.
	cid := core.CipherID(hdr[3] >> 4)
	mid := cryptolib.MACID(hdr[2])
	mode := cryptolib.Mode(hdr[3] & 0x0f)
	switch cid {
	case core.CipherNone, core.CipherDES, core.Cipher3DES:
		if mid > cryptolib.MACNull || mode > cryptolib.OFB {
			e.drops[core.DropAlgorithm]++
			return nil, fmt.Errorf("%w: MAC %d / mode %d for cipher %d", core.ErrAlgorithmUnknown, mid, mode, cid)
		}
	case core.CipherAES128GCM, core.CipherChaCha20Poly1305:
		if mid != cryptolib.MACAEAD || mode != 0 {
			e.drops[core.DropAlgorithm]++
			return nil, fmt.Errorf("%w: MAC %d / mode %d for AEAD cipher %d", core.ErrAlgorithmUnknown, mid, mode, cid)
		}
	default:
		e.drops[core.DropAlgorithm]++
		return nil, fmt.Errorf("%w: cipher %d", core.ErrAlgorithmUnknown, cid)
	}
	sfl := binary.BigEndian.Uint64(hdr[4:])
	ts := binary.BigEndian.Uint32(hdr[16:])
	now := e.cfg.Clock.Now()
	if !fresh(ts, now, e.cfg.FreshnessWindow) {
		e.drops[core.DropStale]++
		return nil, fmt.Errorf("%w: timestamp %d at %v", core.ErrStale, ts, now)
	}
	kf, err := e.flowKey(sfl, src, dst, src)
	if err != nil {
		e.drops[core.DropKeying]++
		return nil, fmt.Errorf("%w: flow from %q: %w", core.ErrKeying, src, err)
	}
	if isAEAD(cid) {
		box, err := newAEAD(cid, kf)
		if err != nil {
			e.drops[core.DropDecrypt]++
			return nil, fmt.Errorf("%w: %v", core.ErrDecrypt, err)
		}
		if hdr[1]&flagSecret != 0 {
			// The body is exact-length ciphertext; the tag rides in the
			// header's MAC field. Reassemble ciphertext | tag and open.
			ct := make([]byte, 0, len(body)+macLen)
			ct = append(ct, body...)
			ct = append(ct, hdr[macOffset:headerSize]...)
			plain, err := box.Open(nil, nonceOf(hdr), ct, macInput(hdr))
			if err != nil {
				e.drops[core.DropBadMAC]++
				e.pfPenalize(src, core.DropBadMAC)
				return nil, core.ErrBadMAC
			}
			body = plain
		} else {
			aad := append(macInput(hdr), body...)
			if _, err := box.Open(nil, nonceOf(hdr), hdr[macOffset:headerSize], aad); err != nil {
				e.drops[core.DropBadMAC]++
				e.pfPenalize(src, core.DropBadMAC)
				return nil, core.ErrBadMAC
			}
		}
	} else {
		if hdr[1]&flagSecret != 0 {
			c, err := newCipher(cid, kf)
			if err != nil {
				e.drops[core.DropDecrypt]++
				return nil, fmt.Errorf("%w: %v", core.ErrDecrypt, err)
			}
			plain := make([]byte, len(body))
			if _, err := cryptolib.DecryptMode(c, mode, ivOf(hdr), plain, body); err != nil {
				e.drops[core.DropDecrypt]++
				return nil, fmt.Errorf("%w: %v", core.ErrDecrypt, err)
			}
			unpadded, err := cryptolib.Unpad(plain, c.BlockSize())
			if err != nil {
				// Bad padding reports as an authentication failure, same
				// as core, to avoid a padding oracle.
				e.drops[core.DropBadMAC]++
				e.pfPenalize(src, core.DropBadMAC)
				return nil, core.ErrBadMAC
			}
			body = unpadded
		}
		if mid != cryptolib.MACNull {
			if !mid.Verify(kf[:], hdr[macOffset:headerSize], macInput(hdr), body) {
				e.drops[core.DropBadMAC]++
				e.pfPenalize(src, core.DropBadMAC)
				return nil, core.ErrBadMAC
			}
		}
	}
	if e.cfg.EnableReplayCache {
		// The naive window sweeps every expired signature on every
		// check; an unexpired exact duplicate is rejected, anything
		// else is recorded. No budget — the reference never refuses.
		for k, at := range e.replay {
			if now.Sub(at) > e.cfg.FreshnessWindow {
				delete(e.replay, k)
			}
		}
		var sig replaySig
		sig.sfl = sfl
		sig.conf = binary.BigEndian.Uint32(hdr[12:])
		sig.ts = ts
		copy(sig.mac[:], hdr[macOffset:macOffset+8])
		if at, ok := e.replay[sig]; ok && now.Sub(at) <= e.cfg.FreshnessWindow {
			e.drops[core.DropReplay]++
			return nil, core.ErrReplay
		}
		e.replay[sig] = now
	}
	e.accepted++
	return body, nil
}

// macInput extracts the MAC'd header fields from an encoded header:
// bytes 0-3 (version, flags, algorithm identification) and bytes 12-19
// (confounder, timestamp).
func macInput(hdr []byte) []byte {
	in := make([]byte, 0, 12)
	in = append(in, hdr[0:4]...)
	return append(in, hdr[12:20]...)
}

// ivOf duplicates the 32-bit confounder to fill the 64-bit IV block
// (Section 7.2).
func ivOf(hdr []byte) []byte {
	iv := make([]byte, 8)
	copy(iv[0:4], hdr[12:16])
	copy(iv[4:8], hdr[12:16])
	return iv
}

// newCipher builds the payload cipher for a flow key.
func newCipher(id core.CipherID, kf [16]byte) (cipher.Block, error) {
	switch id {
	case core.CipherDES:
		return cryptolib.NewDES(kf[:8])
	case core.Cipher3DES:
		return cryptolib.NewTripleDES(kf[:16])
	default:
		return nil, fmt.Errorf("refmodel: cipher %v cannot encrypt", id)
	}
}

// isAEAD restates which cipher nibbles carry sealed-box suites.
func isAEAD(id core.CipherID) bool {
	return id == core.CipherAES128GCM || id == core.CipherChaCha20Poly1305
}

// sealedBox is the append-style AEAD shape both shared primitives
// (crypto/cipher's GCM, cryptolib's ChaCha20-Poly1305) satisfy.
type sealedBox interface {
	Seal(dst, nonce, plaintext, additionalData []byte) []byte
	Open(dst, nonce, ciphertext, additionalData []byte) ([]byte, error)
}

// newAEAD builds the sealed box for a flow key. The key schedule is
// reassembled independently of core: AES-128-GCM keys on K_f directly;
// ChaCha20 expands the 16-byte K_f to 32 bytes as K_f | MD5(K_f |
// label), with the label string restated here. The expansion adds no
// entropy — the suite's effective strength is capped at 128 bits by
// the flow key, matching AES-128-GCM. The ChaCha box is pinned to
// cryptolib's portable Go keystream, so where core runs the AVX2 kernel
// the harness compares kernel against pure Go on every datagram.
func newAEAD(id core.CipherID, kf [16]byte) (sealedBox, error) {
	switch id {
	case core.CipherAES128GCM:
		blk, err := aes.NewCipher(kf[:])
		if err != nil {
			return nil, err
		}
		return cipher.NewGCM(blk)
	case core.CipherChaCha20Poly1305:
		key := make([]byte, 0, 32)
		key = append(key, kf[:]...)
		expand := make([]byte, 0, 16+34)
		expand = append(expand, kf[:]...)
		expand = append(expand, []byte("fbs chacha20poly1305 key expand v1")...)
		sum := md5.Sum(expand)
		key = append(key, sum[:]...)
		return cryptolib.NewPortableChaCha20Poly1305(key)
	default:
		return nil, fmt.Errorf("refmodel: cipher %v is not an AEAD suite", id)
	}
}

// nonceOf assembles the 96-bit AEAD nonce straight from the encoded
// header: confounder, timestamp, then the low 32 bits of the sfl.
func nonceOf(hdr []byte) []byte {
	n := make([]byte, 12)
	copy(n[0:8], hdr[12:20])
	copy(n[8:12], hdr[8:12])
	return n
}

// pad applies PKCS#7: always at least one byte, a full block when the
// payload is already aligned.
func pad(p []byte, bs int) []byte {
	n := bs - len(p)%bs
	out := make([]byte, len(p)+n)
	copy(out, p)
	for i := len(p); i < len(out); i++ {
		out[i] = byte(n)
	}
	return out
}

// SealBatch is the reference semantics for core's batched send path: a
// batch of N datagrams is, by definition, exactly a loop of N Seal
// calls in order. The differential harness holds the optimised batch
// engine (run grouping, nonce reservation, stripe-grouped replay) to
// this loop — any amortisation that changes an output byte, an error or
// a counter is a divergence.
func (e *Endpoint) SealBatch(dst principal.Address, id core.FlowID, payloads [][]byte, secret bool) ([][]byte, []error) {
	wires := make([][]byte, len(payloads))
	errs := make([]error, len(payloads))
	for i, p := range payloads {
		wires[i], errs[i] = e.Seal(dst, id, p, secret)
	}
	return wires, errs
}

// OpenBatch is the reference semantics for core's batched receive path:
// a loop of Open calls in order (see SealBatch).
func (e *Endpoint) OpenBatch(src, dst principal.Address, wires [][]byte) ([][]byte, []error) {
	outs := make([][]byte, len(wires))
	errs := make([]error, len(wires))
	for i, w := range wires {
		outs[i], errs[i] = e.Open(src, dst, w)
	}
	return outs, errs
}
