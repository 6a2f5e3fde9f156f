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
// overlap the misses of different peers, made by callers on different
// goroutines.
type MKD struct {
	ks *KeyService

	// flights holds the record of every peer with a request in flight.
	// A record leaves the map under mu, and whoever took it out — a
	// worker landing its result, or Stop — closes it, so each is closed
	// exactly once. Stop sets the map nil, which refuses later upcalls.
	mu      sync.Mutex
	flights map[principal.Address]*flight

	reqs chan principal.Address
	done chan struct{}
	once sync.Once

	upcalls atomic.Uint64
}

// flight is one request's place in the daemon: r is written once,
// before done is closed, and read by every waiter after.
type flight struct {
	done chan struct{}
	r    keyResult
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
		flights: make(map[principal.Address]*flight),
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
// peer queues a fresh request. A flight Stop already took is Stop's to
// close.
func (m *MKD) land(peer principal.Address, r keyResult) {
	m.mu.Lock()
	f := m.flights[peer]
	delete(m.flights, peer)
	m.mu.Unlock()
	if f != nil {
		f.r = r
		close(f.done)
	}
}

// upcall asks the daemon for peer's master key and waits for it. It
// queues peer for a worker unless a request for peer is in flight, in
// which case it joins that one (FlagKeyCoalesced) and allocates nothing.
func (m *MKD) upcall(peer principal.Address) ([16]byte, SpanFlags, error) {
	m.mu.Lock()
	if m.flights == nil {
		m.mu.Unlock()
		return [16]byte{}, 0, ErrMKDStopped
	}
	f, joined := m.flights[peer]
	if !joined {
		f = &flight{done: make(chan struct{})}
		m.flights[peer] = f
	}
	m.mu.Unlock()
	m.upcalls.Add(1)
	var note SpanFlags
	if joined {
		note = FlagKeyCoalesced
	} else {
		// A closed done means Stop took the map, f in it, and lands
		// ErrMKDStopped on f.
		select {
		case m.reqs <- peer:
		case <-m.done:
		}
	}
	<-f.done
	return f.r.key, f.r.note | note, f.r.err
}

// Upcalls returns how many upcalls were made.
func (m *MKD) Upcalls() uint64 { return m.upcalls.Load() }

// Stop terminates the daemon; pending upcalls fail with ErrMKDStopped,
// and so does every later one: the flights are landed on and new
// upcalls refused before the workers are told to exit, so no waiter is
// left without a result.
func (m *MKD) Stop() {
	m.once.Do(func() {
		m.mu.Lock()
		flights := m.flights
		m.flights = nil
		m.mu.Unlock()
		for _, f := range flights {
			f.r = keyResult{err: ErrMKDStopped}
			close(f.done)
		}
		close(m.done)
	})
}
