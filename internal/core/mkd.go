package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"fbs/internal/principal"
)

// MKD is the master key daemon of Figure 5. In the paper's in-kernel
// implementation, kernel send/receive processing Upcall()s a user-level
// daemon on an MKC miss; the daemon fetches certificates over the secure
// flow bypass, computes the Diffie-Hellman master key, and installs it.
// Here the daemon is worker goroutines serving requests over a channel,
// with a per-peer single-flight in front — the only one under the key
// plane — so a burst of datagrams to a new peer costs one certificate
// fetch and one exponentiation, the behaviour the paper's caching design
// is built around. A peer is queued at most once, so workers only ever
// overlap the misses of different peers; a receive walk's look-ahead
// (see lookahead) is what hands them several at once.
type MKD struct {
	ks *KeyService

	// waiting holds, per peer with a request in flight, the channel of
	// every upcall waiting on it; a worker lands the result on all of
	// them. Stop lands ErrMKDStopped on every waiter and sets it nil,
	// which refuses later upcalls.
	mu      sync.Mutex
	waiting map[principal.Address][]chan keyResult

	reqs chan principal.Address
	done chan struct{}
	once sync.Once

	upcalls atomic.Uint64
}

// keyResult is what the MKD lands on an upcall: a master key or its
// error, and the keying flags of the work that produced it
// (FlagKeyComputed and the like), which only the trace span reports.
type keyResult struct {
	key  [16]byte
	note SpanFlags
	err  error
}

// ErrMKDStopped is returned by an upcall after Stop. It wraps ErrKeying,
// so a datagram refused for it counts as DropKeying.
var ErrMKDStopped = fmt.Errorf("%w: master key daemon stopped", ErrKeying)

// NewMKD starts a master key daemon over the key service, serving misses
// on workers goroutines (at least one) until Stop.
func NewMKD(ks *KeyService, workers int) *MKD {
	m := &MKD{
		ks:      ks,
		waiting: make(map[principal.Address][]chan keyResult),
		reqs:    make(chan principal.Address, 64),
		done:    make(chan struct{}),
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
			m.land(peer, r)
		case <-m.done:
			return
		}
	}
}

// land delivers r to every upcall waiting on peer; the next upcall for
// peer queues a fresh request. Each channel holds one result, so land
// never blocks on a waiter that gave up.
func (m *MKD) land(peer principal.Address, r keyResult) {
	m.mu.Lock()
	w := m.waiting[peer]
	delete(m.waiting, peer)
	m.mu.Unlock()
	for _, ch := range w {
		ch <- r
	}
}

// upcall is one request's place in the daemon's flight. Its result is
// kept once received, so whoever holds the upcall may read it again.
type upcall struct {
	peer   principal.Address
	ch     chan keyResult
	joined SpanFlags // FlagKeyCoalesced when it joined a request in flight
	done   bool
	r      keyResult
}

// start enrols a request for peer's master key and queues peer for a
// worker, unless a request for peer is already in flight; it does not
// wait for the result.
func (m *MKD) start(peer principal.Address) (upcall, error) {
	ch := make(chan keyResult, 1)
	m.mu.Lock()
	if m.waiting == nil {
		m.mu.Unlock()
		return upcall{}, ErrMKDStopped
	}
	w, inFlight := m.waiting[peer]
	m.waiting[peer] = append(w, ch)
	m.mu.Unlock()
	m.upcalls.Add(1)
	u := upcall{peer: peer, ch: ch}
	if inFlight {
		u.joined = FlagKeyCoalesced
		return u, nil
	}
	select {
	case m.reqs <- peer:
		return u, nil
	case <-m.done:
		return upcall{}, ErrMKDStopped
	}
}

// wait blocks until u's result has landed.
func (m *MKD) wait(u *upcall) ([16]byte, SpanFlags, error) {
	if !u.done {
		u.r = <-u.ch
		u.done = true
		u.r.note |= u.joined
	}
	return u.r.key, u.r.note, u.r.err
}

// Upcalls returns how many upcalls were made.
func (m *MKD) Upcalls() uint64 { return m.upcalls.Load() }

// Stop terminates the daemon; pending upcalls fail with ErrMKDStopped,
// and so does every later one: the waiters are landed on and new
// upcalls refused before the workers are told to exit, so no waiter is
// left without a result.
func (m *MKD) Stop() {
	m.once.Do(func() {
		m.mu.Lock()
		waiting := m.waiting
		m.waiting = nil
		m.mu.Unlock()
		stopped := keyResult{err: ErrMKDStopped}
		for _, w := range waiting {
			for _, ch := range w {
				ch <- stopped
			}
		}
		close(m.done)
	})
}
