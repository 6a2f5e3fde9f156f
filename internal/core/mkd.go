package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fbs/internal/principal"
)

// MKD is the master key daemon of Figure 5. In the paper's in-kernel
// implementation, kernel send/receive processing Upcall()s a user-level
// daemon on an MKC miss; the daemon fetches certificates over the secure
// flow bypass, computes the Diffie-Hellman master key, and installs it.
// Here the daemon is worker goroutines serving requests over a channel,
// with the key plane's single-flight in front so a burst of datagrams to
// a new peer costs one certificate fetch and one exponentiation — the
// behaviour the paper's caching design is built around. A peer is queued
// at most once, so workers only ever overlap the misses of different
// peers; a receive walk's look-ahead (see lookahead) is what hands them
// several at once.
type MKD struct {
	ks *KeyService

	// timeout bounds how long an upcall waits for the daemon; 0 waits
	// forever (the historic behaviour). Set via SetTimeout before
	// serving traffic.
	timeout  time.Duration
	timeouts atomic.Uint64

	flight flight[principal.Address, keyResult]
	reqs   chan principal.Address
	done   chan struct{}
	once   sync.Once

	upcalls atomic.Uint64
}

// ErrMKDStopped is returned by an upcall after Stop.
var ErrMKDStopped = errors.New("core: master key daemon stopped")

// ErrUpcallTimeout is returned by an upcall when the daemon does not
// answer within the configured deadline. The daemon keeps computing;
// the result lands in the MKC, so a later datagram on the same flow
// succeeds from cache — the caller drops this one datagram (DropKeying)
// instead of blocking the pipeline on a slow directory.
var ErrUpcallTimeout = errors.New("core: master key upcall deadline exceeded")

// NewMKD starts a master key daemon over the key service, serving misses
// on workers goroutines (at least one) until Stop.
func NewMKD(ks *KeyService, workers int) *MKD {
	m := &MKD{
		ks:   ks,
		reqs: make(chan principal.Address, 64),
		done: make(chan struct{}),
	}
	for i := 0; i < max(workers, 1); i++ {
		go m.serve()
	}
	return m
}

func (m *MKD) serve() {
	for {
		select {
		case peer := <-m.reqs:
			var r keyResult
			r.key, r.err = m.ks.masterKeyMiss(peer, &r.note)
			m.flight.land(peer, r)
		case <-m.done:
			return
		}
	}
}

// upcall is one request's place in the daemon's flight. Its result is
// kept once received, so whoever holds the upcall may read it again.
type upcall struct {
	peer   principal.Address
	ch     chan keyResult
	joined KeyNote // FlagKeyCoalesced when it joined a request in flight
	done   bool
	r      keyResult
}

// start enrols a request for peer's master key and queues peer for a
// worker, unless a request for peer is already in flight; it does not
// wait for the result.
func (m *MKD) start(peer principal.Address) (upcall, error) {
	ch, lead, ok := m.flight.join(peer)
	if !ok {
		return upcall{}, ErrMKDStopped
	}
	m.upcalls.Add(1)
	u := upcall{peer: peer, ch: ch}
	if !lead {
		u.joined.Flags = FlagKeyCoalesced
		return u, nil
	}
	select {
	case m.reqs <- peer:
		return u, nil
	case <-m.done:
		return upcall{}, ErrMKDStopped
	}
}

// wait blocks until u's result has landed, or the upcall deadline passes.
func (m *MKD) wait(u *upcall) ([16]byte, KeyNote, error) {
	if !u.done {
		var deadline <-chan time.Time // nil, and so never ready, without a timeout
		if m.timeout > 0 {
			t := time.NewTimer(m.timeout)
			defer t.Stop()
			deadline = t.C
		}
		select {
		case u.r = <-u.ch:
			u.done = true
			u.r.note.merge(u.joined)
		case <-deadline:
			// The daemon still resolves the request and installs the key;
			// only this waiter gives up (its channel holds the result the
			// daemon lands, so the daemon never blocks on it).
			m.timeouts.Add(1)
			return [16]byte{}, u.joined, fmt.Errorf("%w: peer %q after %v", ErrUpcallTimeout, u.peer, m.timeout)
		}
	}
	return u.r.key, u.r.note, u.r.err
}

// SetTimeout bounds future upcalls' waits; call before serving traffic.
func (m *MKD) SetTimeout(d time.Duration) { m.timeout = d }

// Upcalls returns how many upcalls were made.
func (m *MKD) Upcalls() uint64 { return m.upcalls.Load() }

// Timeouts returns how many upcalls gave up at the deadline.
func (m *MKD) Timeouts() uint64 { return m.timeouts.Load() }

// Stop terminates the daemon; pending upcalls fail with ErrMKDStopped,
// and so does every later one: the flight closes before the workers are
// told to exit, so no waiter is left without a result.
func (m *MKD) Stop() {
	m.once.Do(func() {
		m.flight.close(keyResult{err: ErrMKDStopped})
		close(m.done)
	})
}
