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
// peers.
type MKD struct {
	ks *KeyService

	// timeout bounds how long an Upcall waits for the daemon; 0 waits
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

// ErrMKDStopped is returned by Upcall after Stop.
var ErrMKDStopped = errors.New("core: master key daemon stopped")

// ErrUpcallTimeout is returned by Upcall when the daemon does not
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

// UpcallNoted blocks until the daemon has the pair-based master key for
// peer, and reports the annotations of the computation that produced it.
// Concurrent upcalls for one peer coalesce into one computation, whose
// waiters share the leader's note with FlagKeyCoalesced set.
func (m *MKD) UpcallNoted(peer principal.Address) ([16]byte, KeyNote, error) {
	ch, lead, ok := m.flight.join(peer)
	if !ok {
		return [16]byte{}, KeyNote{}, ErrMKDStopped
	}
	m.upcalls.Add(1)
	var joined KeyNote
	if lead {
		select {
		case m.reqs <- peer:
		case <-m.done:
			return [16]byte{}, KeyNote{}, ErrMKDStopped
		}
	} else {
		joined.Flags = FlagKeyCoalesced
	}
	var deadline <-chan time.Time // nil, and so never ready, without a timeout
	if m.timeout > 0 {
		t := time.NewTimer(m.timeout)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case r := <-ch:
		r.note.merge(joined)
		return r.key, r.note, r.err
	case <-deadline:
		// The daemon still resolves the request and installs the key;
		// only this waiter gives up (its channel holds the result the
		// daemon lands, so the daemon never blocks on it).
		m.timeouts.Add(1)
		return [16]byte{}, joined, fmt.Errorf("%w: peer %q after %v", ErrUpcallTimeout, peer, m.timeout)
	}
}

// SetTimeout bounds future Upcalls; call before serving traffic.
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
