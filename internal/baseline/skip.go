package baseline

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"

	"fbs/internal/core"
	"fbs/internal/cryptolib"
	"fbs/internal/transport"
)

// skipHeaderLen: confounder(4) timestamp(4) flags(1) wrappedKey(16)
// mac(16).
const skipHeaderLen = 4 + 4 + 1 + 16 + 16

// SKIP is host-pair keying extended with per-datagram keys, in the style
// of SKIP (Aziz et al.) as discussed in Sections 2.2 and 7.4: the
// long-term master key never touches traffic; instead each datagram
// carries its own key Kp wrapped under the master key. The catch the
// paper highlights is that Kp must be cryptographically random —
// "cryptographically secure random number generators such as the
// quadratic residue generator can be a performance bottleneck" — so the
// default key source here is Blum-Blum-Shub. Benchmarks comparing this
// scheme against FBS reproduce the per-datagram vs per-flow keying cost
// argument of Section 7.4.
type SKIP struct {
	ks    *core.KeyService
	clock core.Clock
	mac   cryptolib.MACID

	mu     sync.Mutex
	keySrc io.Reader // per-datagram key source (BBS by default)
	conf   *cryptolib.LCG
	st     Stats
}

// NewSKIP builds a SKIP-style endpoint. keySource supplies per-datagram
// key material; nil selects a 512-bit Blum-Blum-Shub generator, the
// paper's costed choice.
func NewSKIP(ks *core.KeyService, clock core.Clock, keySource io.Reader) (*SKIP, error) {
	if clock == nil {
		clock = core.RealClock{}
	}
	if keySource == nil {
		bbs, err := cryptolib.NewBBS(512)
		if err != nil {
			return nil, err
		}
		keySource = bbs
	}
	return &SKIP{
		ks:     ks,
		clock:  clock,
		mac:    cryptolib.MACPrefixMD5,
		keySrc: keySource,
		conf:   cryptolib.NewLCG(),
	}, nil
}

// Name implements Sealer.
func (s *SKIP) Name() string { return "SKIP per-datagram" }

// Stats returns scheme counters.
func (s *SKIP) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

// wrapKey encrypts a 16-byte per-datagram key under the master key using
// 3DES-ECB (two blocks).
func wrapKey(master [16]byte, kp [16]byte) ([16]byte, error) {
	c, err := cryptolib.NewTripleDES(master[:])
	if err != nil {
		return [16]byte{}, err
	}
	var out [16]byte
	c.Encrypt(out[0:8], kp[0:8])
	c.Encrypt(out[8:16], kp[8:16])
	return out, nil
}

func unwrapKey(master [16]byte, wrapped []byte) ([16]byte, error) {
	c, err := cryptolib.NewTripleDES(master[:])
	if err != nil {
		return [16]byte{}, err
	}
	var out [16]byte
	c.Decrypt(out[0:8], wrapped[0:8])
	c.Decrypt(out[8:16], wrapped[8:16])
	return out, nil
}

// Seal implements Sealer.
func (s *SKIP) Seal(dg transport.Datagram, secret bool) (transport.Datagram, error) {
	master, err := s.ks.MasterKey(dg.Destination)
	if err != nil {
		return transport.Datagram{}, err
	}
	var kp [16]byte
	s.mu.Lock()
	if _, err := io.ReadFull(s.keySrc, kp[:]); err != nil {
		s.mu.Unlock()
		return transport.Datagram{}, fmt.Errorf("skip: generating per-datagram key: %w", err)
	}
	conf := s.conf.Uint32()
	s.st.KeyGenerations++
	s.mu.Unlock()
	wrapped, err := wrapKey(master, kp)
	if err != nil {
		return transport.Datagram{}, err
	}
	ts := core.TimestampOf(s.clock.Now())
	hdr := make([]byte, skipHeaderLen)
	binary.BigEndian.PutUint32(hdr[0:], conf)
	binary.BigEndian.PutUint32(hdr[4:], uint32(ts))
	if secret {
		hdr[8] = 1
	}
	copy(hdr[9:25], wrapped[:])
	mac := s.mac.Compute(kp[:], hdr[:25], dg.Payload)
	copy(hdr[25:41], mac[:16])
	body := dg.Payload
	if secret {
		body, err = encryptDES(kp[:8], conf, body)
		if err != nil {
			return transport.Datagram{}, err
		}
	}
	return transport.Datagram{
		Source:      dg.Source,
		Destination: dg.Destination,
		Payload:     append(hdr, body...),
	}, nil
}

// Open implements Sealer.
func (s *SKIP) Open(dg transport.Datagram) (transport.Datagram, error) {
	if len(dg.Payload) < skipHeaderLen {
		return transport.Datagram{}, fmt.Errorf("skip: short datagram")
	}
	master, err := s.ks.MasterKey(dg.Source)
	if err != nil {
		return transport.Datagram{}, err
	}
	hdr := dg.Payload[:skipHeaderLen]
	body := dg.Payload[skipHeaderLen:]
	conf := binary.BigEndian.Uint32(hdr[0:])
	ts := core.Timestamp(binary.BigEndian.Uint32(hdr[4:]))
	if !ts.Fresh(s.clock.Now(), 10*time.Minute) {
		return transport.Datagram{}, core.ErrStale
	}
	kp, err := unwrapKey(master, hdr[9:25])
	if err != nil {
		return transport.Datagram{}, err
	}
	if hdr[8] == 1 {
		body, err = decryptDES(kp[:8], conf, body)
		if err != nil {
			return transport.Datagram{}, core.ErrBadMAC
		}
	}
	if !s.mac.Verify(kp[:], hdr[25:41], hdr[:25], body) {
		return transport.Datagram{}, core.ErrBadMAC
	}
	return transport.Datagram{Source: dg.Source, Destination: dg.Destination, Payload: body}, nil
}
