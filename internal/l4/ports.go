package l4

import (
	"fmt"
	"sync"
	"time"
)

// PortAllocator hands out ephemeral ports. With a non-zero ReuseWait it
// implements the countermeasure of Section 7.1: a port may not be
// reallocated until THRESHOLD after it was released, so a new process
// cannot inherit a still-live flow (and with it the ability to have
// recorded datagrams decrypted to itself). The paper notes this fix
// belongs in the networking code outside FBS — in 4.4BSD, in_pcballoc —
// which is why it lives in this substrate package.
type PortAllocator struct {
	// First and Last bound the ephemeral range (inclusive).
	First, Last uint16
	// ReuseWait is the quarantine after release; zero reproduces stock
	// BSD behaviour (and the vulnerability).
	ReuseWait time.Duration

	mu       sync.Mutex
	next     uint16
	inUse    map[uint16]bool
	released map[uint16]time.Time
}

// NewPortAllocator creates an allocator over [first, last].
func NewPortAllocator(first, last uint16, reuseWait time.Duration) (*PortAllocator, error) {
	if first == 0 || last < first {
		return nil, fmt.Errorf("l4: bad port range [%d, %d]", first, last)
	}
	return &PortAllocator{
		First:     first,
		Last:      last,
		ReuseWait: reuseWait,
		next:      first,
		inUse:     make(map[uint16]bool),
		released:  make(map[uint16]time.Time),
	}, nil
}

// Alloc returns a free port at time now, or an error when every port is
// in use or quarantined.
func (p *PortAllocator) Alloc(now time.Time) (uint16, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := int(p.Last-p.First) + 1
	for i := 0; i < n; i++ {
		port := p.next
		p.next++
		if p.next > p.Last || p.next < p.First {
			p.next = p.First
		}
		if p.inUse[port] {
			continue
		}
		if rel, ok := p.released[port]; ok {
			if now.Sub(rel) < p.ReuseWait {
				continue // quarantined
			}
			delete(p.released, port)
		}
		p.inUse[port] = true
		return port, nil
	}
	return 0, fmt.Errorf("l4: no ports available")
}

// Release returns a port to the pool, starting its quarantine at now.
func (p *PortAllocator) Release(port uint16, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.inUse[port] {
		return
	}
	delete(p.inUse, port)
	if p.ReuseWait > 0 {
		p.released[port] = now
	}
}
