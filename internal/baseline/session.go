package baseline

import (
	"encoding/binary"
	"fmt"
	"sync"

	"fbs/internal/core"
	"fbs/internal/cryptolib"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// Session implements Photuris/Oakley-style session keying (Section 2.1):
// before any data flows to a new peer, the two sides run an explicit
// Diffie-Hellman exchange (modelled as a synchronous two-message
// handshake between Session objects) and install hard state — a session
// id, a session key, and send/receive sequence numbers. Datagram
// semantics are lost twice over: the handshake itself, and the fact that
// losing the state table breaks the connection until a new handshake.
//
// The handshake exponentials are computed for real; only the message
// transport is short-circuited, with every message counted in Stats so
// the benchmark harness can charge round trips.
type Session struct {
	self  principal.Address
	group cryptolib.DHGroup
	clock core.Clock
	mac   cryptolib.MACID

	mu       sync.Mutex
	nextID   uint64
	sendSess map[principal.Address]*sessionState // by peer
	recvSess map[uint64]*sessionState            // by session id
	conf     *cryptolib.LCG
	st       Stats
}

type sessionState struct {
	id      uint64
	key     [16]byte
	peer    principal.Address
	sendSeq uint64
	// recvWindow implements a 64-wide sliding anti-replay window.
	recvMax    uint64
	recvBitmap uint64
}

// NewSession creates a session-keying endpoint for a principal.
func NewSession(self principal.Address, group cryptolib.DHGroup, clock core.Clock) *Session {
	if clock == nil {
		clock = core.RealClock{}
	}
	return &Session{
		self:     self,
		group:    group,
		clock:    clock,
		mac:      cryptolib.MACPrefixMD5,
		sendSess: make(map[principal.Address]*sessionState),
		recvSess: make(map[uint64]*sessionState),
		conf:     cryptolib.NewLCG(),
	}
}

// Name implements Sealer.
func (s *Session) Name() string { return "Photuris-style session" }

// Stats returns scheme counters.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.st
	st.HardStateEntries = len(s.sendSess) + len(s.recvSess)
	return st
}

// Handshake establishes a unidirectional session from s to peer. Both
// sides compute a real DH exchange; two messages (initiate/respond) are
// charged to each side's Stats.
func (s *Session) Handshake(peer *Session) error {
	// Initiator half.
	xi, err := s.group.GeneratePrivate()
	if err != nil {
		return err
	}
	pubI := s.group.Public(xi)
	// Responder half.
	xr, err := peer.group.GeneratePrivate()
	if err != nil {
		return err
	}
	pubR := peer.group.Public(xr)
	sharedI, err := s.group.Shared(xi, pubR)
	if err != nil {
		return err
	}
	sharedR, err := peer.group.Shared(xr, pubI)
	if err != nil {
		return err
	}
	key := cryptolib.MasterKey(sharedI)
	if key != cryptolib.MasterKey(sharedR) {
		return fmt.Errorf("session: handshake key mismatch")
	}
	peer.mu.Lock()
	peer.nextID++
	id := peer.nextID ^ (uint64(len(peer.self)) << 32) // locally unique
	peer.recvSess[id] = &sessionState{id: id, key: key, peer: s.self}
	peer.st.SetupMessages++ // the response it sent
	peer.mu.Unlock()
	s.mu.Lock()
	s.sendSess[peer.self] = &sessionState{id: id, key: key, peer: peer.self}
	s.st.SetupMessages++ // the initiation it sent
	s.st.KeyGenerations++
	s.mu.Unlock()
	return nil
}

// session data header: sessionID(8) seq(8) confounder(4) flags(1)
// mac(16).
const sessHeaderLen = 8 + 8 + 4 + 1 + 16

// Seal implements Sealer. Sealing to a peer without an established
// session fails — the caller must Handshake first, which is exactly the
// datagram-semantics violation the paper criticises.
func (s *Session) Seal(dg transport.Datagram, secret bool) (transport.Datagram, error) {
	s.mu.Lock()
	sess, ok := s.sendSess[dg.Destination]
	if !ok {
		s.mu.Unlock()
		return transport.Datagram{}, fmt.Errorf("session: no session with %q (handshake required)", dg.Destination)
	}
	sess.sendSeq++
	seq := sess.sendSeq
	conf := s.conf.Uint32()
	s.mu.Unlock()

	hdr := make([]byte, sessHeaderLen)
	binary.BigEndian.PutUint64(hdr[0:], sess.id)
	binary.BigEndian.PutUint64(hdr[8:], seq)
	binary.BigEndian.PutUint32(hdr[16:], conf)
	if secret {
		hdr[20] = 1
	}
	mac := s.mac.Compute(sess.key[:], hdr[:21], dg.Payload)
	copy(hdr[21:], mac[:16])
	body := dg.Payload
	if secret {
		var err error
		body, err = encryptDES(sess.key[:8], conf, body)
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

// Open implements Sealer, enforcing the sequence-number anti-replay
// window that session state makes possible.
func (s *Session) Open(dg transport.Datagram) (transport.Datagram, error) {
	p := dg.Payload
	if len(p) < sessHeaderLen {
		return transport.Datagram{}, fmt.Errorf("session: short datagram")
	}
	id := binary.BigEndian.Uint64(p[0:])
	seq := binary.BigEndian.Uint64(p[8:])
	conf := binary.BigEndian.Uint32(p[16:])
	secret := p[20] == 1
	macGot := p[21:37]
	body := p[sessHeaderLen:]

	s.mu.Lock()
	sess, ok := s.recvSess[id]
	s.mu.Unlock()
	if !ok {
		return transport.Datagram{}, fmt.Errorf("session: unknown session %d", id)
	}
	if sess.peer != dg.Source {
		return transport.Datagram{}, fmt.Errorf("session: session %d belongs to %q", id, sess.peer)
	}
	var err error
	if secret {
		body, err = decryptDES(sess.key[:8], conf, body)
		if err != nil {
			return transport.Datagram{}, core.ErrBadMAC
		}
	}
	if !s.mac.Verify(sess.key[:], macGot, p[:21], body) {
		return transport.Datagram{}, core.ErrBadMAC
	}
	// Sliding-window replay check: only after authentication.
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case seq > sess.recvMax:
		shift := seq - sess.recvMax
		if shift >= 64 {
			sess.recvBitmap = 0
		} else {
			sess.recvBitmap <<= shift
		}
		sess.recvBitmap |= 1
		sess.recvMax = seq
	case sess.recvMax-seq >= 64:
		return transport.Datagram{}, core.ErrReplay
	default:
		bit := uint64(1) << (sess.recvMax - seq)
		if sess.recvBitmap&bit != 0 {
			return transport.Datagram{}, core.ErrReplay
		}
		sess.recvBitmap |= bit
	}
	return transport.Datagram{Source: dg.Source, Destination: dg.Destination, Payload: body}, nil
}
