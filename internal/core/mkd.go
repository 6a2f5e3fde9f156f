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
// with single-flight coalescing so a burst of datagrams to a new peer
// costs one certificate fetch and one exponentiation — the behaviour the
// paper's caching design is built around. A peer is queued at most once,
// so workers only ever overlap the misses of different peers.
type MKD struct {
	ks *KeyService

	// timeout bounds how long an Upcall waits for the daemon; 0 waits
	// forever (the historic behaviour). Set via SetTimeout before
	// serving traffic.
	timeout  time.Duration
	timeouts atomic.Uint64

	mu       sync.Mutex
	inflight map[principal.Address][]chan mkdResult
	reqs     chan principal.Address
	done     chan struct{}
	once     sync.Once

	upcalls uint64
}

type mkdResult struct {
	key  [16]byte
	note KeyNote
	err  error
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
		ks:       ks,
		inflight: make(map[principal.Address][]chan mkdResult),
		reqs:     make(chan principal.Address, 64),
		done:     make(chan struct{}),
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
			var note KeyNote
			key, err := m.ks.masterKeyMiss(peer, &note)
			m.mu.Lock()
			waiters := m.inflight[peer]
			delete(m.inflight, peer)
			m.mu.Unlock()
			for _, w := range waiters {
				w <- mkdResult{key: key, note: note, err: err}
			}
		case <-m.done:
			m.mu.Lock()
			for peer, waiters := range m.inflight {
				for _, w := range waiters {
					w <- mkdResult{err: ErrMKDStopped}
				}
				delete(m.inflight, peer)
			}
			m.mu.Unlock()
			return
		}
	}
}

// UpcallNoted blocks until the daemon has the pair-based master key for
// peer, and reports the annotations of the computation that produced it.
// Concurrent upcalls for one peer coalesce into one computation, whose
// waiters share the leader's note with KeyNote.Coalesced set.
func (m *MKD) UpcallNoted(peer principal.Address) ([16]byte, KeyNote, error) {
	ch := make(chan mkdResult, 1)
	m.mu.Lock()
	select {
	case <-m.done:
		m.mu.Unlock()
		return [16]byte{}, KeyNote{}, ErrMKDStopped
	default:
	}
	m.upcalls++
	first := len(m.inflight[peer]) == 0
	m.inflight[peer] = append(m.inflight[peer], ch)
	m.mu.Unlock()
	if first {
		select {
		case m.reqs <- peer:
		case <-m.done:
			return [16]byte{}, KeyNote{}, ErrMKDStopped
		}
	}
	if m.timeout > 0 {
		t := time.NewTimer(m.timeout)
		defer t.Stop()
		select {
		case r := <-ch:
			if !first {
				r.note.Coalesced = true
			}
			return r.key, r.note, r.err
		case <-t.C:
			// The daemon still resolves the request and installs the
			// key; only this waiter gives up (ch is buffered, so the
			// daemon's send never blocks on an abandoned waiter).
			m.timeouts.Add(1)
			return [16]byte{}, KeyNote{Coalesced: !first},
				fmt.Errorf("%w: peer %q after %v", ErrUpcallTimeout, peer, m.timeout)
		}
	}
	r := <-ch
	if !first {
		r.note.Coalesced = true
	}
	return r.key, r.note, r.err
}

// SetTimeout bounds future Upcalls; call before serving traffic.
func (m *MKD) SetTimeout(d time.Duration) { m.timeout = d }

// Upcalls returns how many upcalls were made.
func (m *MKD) Upcalls() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.upcalls
}

// Timeouts returns how many upcalls gave up at the deadline.
func (m *MKD) Timeouts() uint64 { return m.timeouts.Load() }

// Stop terminates the daemon; pending upcalls fail with ErrMKDStopped.
func (m *MKD) Stop() {
	m.once.Do(func() { close(m.done) })
}
