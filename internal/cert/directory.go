package cert

import (
	"fmt"
	"sort"
	"sync"

	"fbs/internal/principal"
)

// Directory serves public-value certificates by principal address. A PVC
// miss in the FBS key cache hierarchy bottoms out in a Directory lookup —
// the "fetch from some certificate authority on the network" of Section
// 5.3. Implementations must be safe for concurrent use.
type Directory interface {
	// Lookup returns the certificate for the principal, or an error if
	// unknown. The returned certificate is NOT yet verified; callers
	// must verify it against their pinned CA key (the fetch path is
	// deliberately insecure to avoid the circularity the paper
	// describes).
	Lookup(addr principal.Address) (*Certificate, error)
}

// StaticDirectory is an in-memory Directory; it also models the paper's
// alternative of "pinning certain certificates in the cache upon
// initialization".
type StaticDirectory struct {
	mu    sync.RWMutex
	certs map[principal.Address]*Certificate
}

// NewStaticDirectory creates an empty directory.
func NewStaticDirectory() *StaticDirectory {
	return &StaticDirectory{certs: make(map[principal.Address]*Certificate)}
}

// Publish installs (or replaces) the certificate for its subject.
func (d *StaticDirectory) Publish(c *Certificate) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.certs[c.Subject] = c
}

// Lookup implements Directory.
func (d *StaticDirectory) Lookup(addr principal.Address) (*Certificate, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	c, ok := d.certs[addr]
	if !ok {
		return nil, fmt.Errorf("cert: no certificate for %q", addr)
	}
	return c, nil
}

// All returns the published certificates ordered by subject.
func (d *StaticDirectory) All() []*Certificate {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]*Certificate, 0, len(d.certs))
	for _, c := range d.certs {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Subject < out[j].Subject })
	return out
}

// Len returns the number of published certificates.
func (d *StaticDirectory) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.certs)
}
