package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fbs/internal/cert"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// failingDirectory fails the first FailFirst lookups, then delegates.
type failingDirectory struct {
	Inner     cert.Directory
	FailFirst int

	mu    sync.Mutex
	calls int
}

func (d *failingDirectory) Lookup(addr principal.Address) (*cert.Certificate, error) {
	d.mu.Lock()
	d.calls++
	n := d.calls
	d.mu.Unlock()
	if n <= d.FailFirst {
		return nil, fmt.Errorf("directory down (call %d)", n)
	}
	return d.Inner.Lookup(addr)
}

func (d *failingDirectory) Calls() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.calls
}

func TestRetryPolicyBackoffSchedule(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 80, 80}
	for i, w := range want {
		if got := p.backoff(i+1, 0.5); got != w*time.Millisecond {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	j := RetryPolicy{MaxAttempts: 2, BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second, JitterFrac: 0.5}
	if got := j.backoff(1, 0); got != 50*time.Millisecond {
		t.Errorf("full-low jitter backoff = %v, want 50ms", got)
	}
	if got := j.backoff(1, 1); got != 150*time.Millisecond {
		t.Errorf("full-high jitter backoff = %v, want 150ms", got)
	}
}

func TestRetryPolicyZeroValueIsSingleAttempt(t *testing.T) {
	p := RetryPolicy{}.withDefaults()
	if p.MaxAttempts != 1 {
		t.Fatalf("zero policy MaxAttempts = %d, want 1 (historic behaviour)", p.MaxAttempts)
	}
}

func TestLookupRetriesUntilDirectoryRecovers(t *testing.T) {
	w := newWorld(t)
	w.principal(t, "bob")
	fd := &failingDirectory{Inner: w.dir, FailFirst: 2}
	var slept []time.Duration
	ks := NewKeyService(w.principal(t, "alice"), fd, w.ver, w.clock, KeyServiceConfig{
		Retry: RetryPolicy{MaxAttempts: 4, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond},
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	})
	if _, err := ks.MasterKey("bob"); err != nil {
		t.Fatalf("MasterKey should have succeeded on the third attempt: %v", err)
	}
	if fd.Calls() != 3 {
		t.Errorf("directory calls = %d, want 3 (two failures + success)", fd.Calls())
	}
	if len(slept) != 2 || slept[0] != 10*time.Millisecond || slept[1] != 20*time.Millisecond {
		t.Errorf("backoff sleeps = %v, want [10ms 20ms]", slept)
	}
	if st := ks.Stats(); st.Retries != 2 {
		t.Errorf("Retries = %d, want 2", st.Retries)
	}
}

func TestLookupBoundedByMaxAttempts(t *testing.T) {
	w := newWorld(t)
	w.principal(t, "bob")
	fd := &failingDirectory{Inner: w.dir, FailFirst: 1 << 30}
	ks := NewKeyService(w.principal(t, "alice"), fd, w.ver, w.clock, KeyServiceConfig{
		Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond},
		Sleep: func(time.Duration) {},
	})
	if _, err := ks.MasterKey("bob"); err == nil {
		t.Fatal("MasterKey succeeded against a dead directory")
	}
	if fd.Calls() != 3 {
		t.Errorf("directory calls = %d, want exactly MaxAttempts=3", fd.Calls())
	}
}

func TestNegativeCacheFailsFastThenExpires(t *testing.T) {
	w := newWorld(t)
	w.principal(t, "bob")
	fd := &failingDirectory{Inner: w.dir, FailFirst: 3}
	ks := NewKeyService(w.principal(t, "alice"), fd, w.ver, w.clock, KeyServiceConfig{
		Retry:       RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond},
		NegativeTTL: time.Minute,
		Sleep:       func(time.Duration) {},
	})
	if _, err := ks.MasterKey("bob"); err == nil {
		t.Fatal("first MasterKey should fail (directory down)")
	}
	calls := fd.Calls()
	// Within the TTL: refused by the negative cache, no directory calls.
	_, err := ks.MasterKey("bob")
	if !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("err = %v, want ErrPeerUnavailable", err)
	}
	if fd.Calls() != calls {
		t.Errorf("negative-cached lookup still called the directory (%d -> %d)", calls, fd.Calls())
	}
	if st := ks.Stats(); st.NegativeHits != 1 {
		t.Errorf("NegativeHits = %d, want 1", st.NegativeHits)
	}
	// Past the TTL the directory has recovered: lookup succeeds and the
	// negative entry is forgotten.
	w.clock.Advance(2 * time.Minute)
	if _, err := ks.MasterKey("bob"); err != nil {
		t.Fatalf("post-TTL MasterKey failed: %v", err)
	}
	if _, err := ks.MasterKey("bob"); err != nil {
		t.Fatalf("MasterKey after recovery failed: %v", err)
	}
}

// TestStaleWindowNeverServesTamperedCert: there is no stale window. A
// cached certificate that no longer verifies — tampered, or merely
// expired while the directory is down — is never served: the lookup
// fails, and an endpoint refuses the datagram with DropKeying.
func TestStaleWindowNeverServesTamperedCert(t *testing.T) {
	w := newWorld(t)
	alice := w.principal(t, "alice")
	bob := w.principal(t, "bob")
	c, err := w.ca.Issue(bob, w.clock.Now().Add(-time.Hour), w.clock.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	c.Signature[0] ^= 0xFF
	w.dir.Publish(c)
	ks := NewKeyService(alice, w.dir, w.ver, w.clock, KeyServiceConfig{})
	if _, err := ks.certificateNoted("bob", new(KeyNote)); err == nil {
		t.Fatal("tampered certificate served")
	}

	// bob holds alice's certificate from an earlier flow; a day later it
	// has expired, the directory is down and the pair key has left the
	// MKC, so alice's next flow is refused.
	w = newWorld(t)
	dir := &failingDirectory{Inner: w.dir}
	a, b, _ := endpointPair(t, w, func(c *Config) { c.Directory = dir })
	exchange := func() error {
		sealed, err := a.Seal(transport.Datagram{Source: "alice", Destination: "bob", Payload: []byte("x")}, true)
		if err != nil {
			t.Fatal(err)
		}
		_, err = b.Open(sealed)
		return err
	}
	if err := exchange(); err != nil {
		t.Fatalf("fresh certificate rejected: %v", err)
	}
	w.clock.Advance(25 * time.Hour) // past the 24 h validity, and a new flow
	dir.FailFirst = 1 << 30
	b.plane.ks.mkc.Invalidate("alice")
	if err := exchange(); DropReasonOf(err) != DropKeying {
		t.Fatalf("open under an expired certificate with the directory down: %v, want a keying drop", err)
	}
}

// blockingDirectory parks every lookup until released.
type blockingDirectory struct {
	Inner   cert.Directory
	release chan struct{}
}

func (d *blockingDirectory) Lookup(addr principal.Address) (*cert.Certificate, error) {
	<-d.release
	return d.Inner.Lookup(addr)
}
