package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fbs/internal/cert"
	"fbs/internal/cryptolib"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// testWorld is a small universe: a CA, a directory, and identities.
type testWorld struct {
	ca    *cert.Authority
	dir   *cert.StaticDirectory
	ver   *cert.Verifier
	clock *SimClock
	ids   map[principal.Address]*principal.Identity
}

var (
	worldOnce sync.Once
	worldCA   *cert.Authority
)

func newWorld(t testing.TB) *testWorld {
	t.Helper()
	worldOnce.Do(func() {
		ca, err := cert.NewAuthority("test-root", 512)
		if err != nil {
			t.Fatal(err)
		}
		worldCA = ca
	})
	return &testWorld{
		ca:    worldCA,
		dir:   cert.NewStaticDirectory(),
		ver:   &cert.Verifier{CAKey: worldCA.PublicKey(), CA: "test-root"},
		clock: NewSimClock(time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC)),
		ids:   make(map[principal.Address]*principal.Identity),
	}
}

func (w *testWorld) principal(t testing.TB, addr principal.Address) *principal.Identity {
	t.Helper()
	if id, ok := w.ids[addr]; ok {
		return id
	}
	id, err := principal.NewIdentity(addr, cryptolib.TestGroup)
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.ca.Issue(id, w.clock.Now().Add(-time.Hour), w.clock.Now().Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	w.dir.Publish(c)
	w.ids[addr] = id
	return id
}

func (w *testWorld) keyService(t testing.TB, addr principal.Address) *KeyService {
	t.Helper()
	return NewKeyService(w.principal(t, addr), w.dir, w.ver, w.clock, KeyServiceConfig{})
}

func TestKeyServiceMasterKeySymmetric(t *testing.T) {
	w := newWorld(t)
	ksA := w.keyService(t, "a")
	ksB := w.keyService(t, "b")
	ka, err := ksA.MasterKey("b")
	if err != nil {
		t.Fatal(err)
	}
	kb, err := ksB.MasterKey("a")
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatal("the two sides computed different master keys")
	}
}

func TestKeyServiceCaching(t *testing.T) {
	w := newWorld(t)
	w.principal(t, "peer")
	ks := w.keyService(t, "self")
	for i := 0; i < 5; i++ {
		if _, err := ks.MasterKey("peer"); err != nil {
			t.Fatal(err)
		}
	}
	s := ks.Stats()
	if s.MasterKeyComputes != 1 {
		t.Fatalf("MasterKeyComputes = %d, want 1 (MKC should absorb repeats)", s.MasterKeyComputes)
	}
	if s.CertFetches != 1 {
		t.Fatalf("CertFetches = %d, want 1 (PVC should absorb repeats)", s.CertFetches)
	}
	if mkc := ks.mkc.Stats(); mkc.Hits != 4 {
		t.Fatalf("MKC hits = %d, want 4", mkc.Hits)
	}
}

// TestPVCEvictionIndependentOfMKC: two same-slot peers of the MKC.
// Keying A, B, A computes A's master key twice — the MKC conflict is
// real — but the PVC, indexed by its own hash, still holds A's
// certificate: two directory fetches, not three.
func TestPVCEvictionIndependentOfMKC(t *testing.T) {
	const size = keyCacheSize
	w := newWorld(t)
	a := principal.Address("pvc-a")
	b := principal.Address("")
	for i := 0; b == ""; i++ {
		if c := principal.Address(fmt.Sprintf("pvc-b%d", i)); addrHash(c)%size == addrHash(a)%size {
			b = c
		}
	}
	w.principal(t, a)
	w.principal(t, b)
	ks := w.keyService(t, "self")
	for _, peer := range []principal.Address{a, b, a} {
		if _, err := ks.MasterKey(peer); err != nil {
			t.Fatal(err)
		}
	}
	if s := ks.Stats(); s.MasterKeyComputes != 3 || s.CertFetches != 2 {
		t.Fatalf("A, B, A with A and B sharing an MKC slot: %d computes, %d certificate fetches; want 3 and 2",
			s.MasterKeyComputes, s.CertFetches)
	}
}

func TestKeyServiceUnknownPeer(t *testing.T) {
	w := newWorld(t)
	ks := w.keyService(t, "self")
	if _, err := ks.MasterKey("ghost"); err == nil {
		t.Fatal("master key for unpublished peer succeeded")
	}
	if ks.Stats().Failures != 1 {
		t.Fatal("failure not counted")
	}
}

func TestKeyServiceExpiredCertRefetch(t *testing.T) {
	w := newWorld(t)
	peer := w.principal(t, "peer")
	ks := w.keyService(t, "self")
	if _, err := ks.MasterKey("peer"); err != nil {
		t.Fatal(err)
	}
	// Jump past expiry; the cached cert fails verification. With a
	// fresh cert published, the service must refetch transparently.
	w.clock.Advance(48 * time.Hour)
	fresh, err := w.ca.Issue(peer, w.clock.Now().Add(-time.Hour), w.clock.Now().Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	w.dir.Publish(fresh)
	ks.FlushPeer("peer") // drop the MKC entry so the cert path runs
	if _, err := ks.MasterKey("peer"); err != nil {
		t.Fatalf("refetch after expiry failed: %v", err)
	}
	if ks.Stats().CertFetches < 2 {
		t.Fatal("no refetch happened")
	}
}

func TestKeyServicePinnedCertificate(t *testing.T) {
	w := newWorld(t)
	peer := w.principal(t, "peer")
	// Service with an EMPTY directory: only the pinned cert can work.
	emptyDir := cert.NewStaticDirectory()
	ks := NewKeyService(w.principal(t, "self"), emptyDir, w.ver, w.clock, KeyServiceConfig{})
	c, err := w.ca.Issue(peer, w.clock.Now().Add(-time.Hour), w.clock.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ks.Pin(c)
	if _, err := ks.MasterKey("peer"); err != nil {
		t.Fatalf("pinned certificate not used: %v", err)
	}
	if ks.Stats().CertFetches != 0 {
		t.Fatal("pinning still hit the directory")
	}
}

func TestFlowKeyProperties(t *testing.T) {
	var master [16]byte
	copy(master[:], "0123456789abcdef")
	k1 := FlowKey(cryptolib.HashMD5, 1, master, "s", "d")
	// Distinct on every input.
	if k1 == FlowKey(cryptolib.HashMD5, 2, master, "s", "d") {
		t.Error("flow key ignores sfl")
	}
	if k1 == FlowKey(cryptolib.HashMD5, 1, master, "x", "d") {
		t.Error("flow key ignores source")
	}
	if k1 == FlowKey(cryptolib.HashMD5, 1, master, "s", "x") {
		t.Error("flow key ignores destination")
	}
	var otherMaster [16]byte
	copy(otherMaster[:], "fedcba9876543210")
	if k1 == FlowKey(cryptolib.HashMD5, 1, otherMaster, "s", "d") {
		t.Error("flow key ignores master key")
	}
	// Deterministic.
	if k1 != FlowKey(cryptolib.HashMD5, 1, master, "s", "d") {
		t.Error("flow key not deterministic")
	}
	// Directionality: flows are unidirectional (Section 5.2), so the
	// reverse direction keys differently.
	if k1 == FlowKey(cryptolib.HashMD5, 1, master, "d", "s") {
		t.Error("flow key symmetric in direction")
	}
}

// Flow key derivation must be unambiguous: the (sfl, S, D) encoding uses
// length-prefixed addresses, so shifting bytes between S and D changes
// the key.
func TestFlowKeyUnambiguousEncoding(t *testing.T) {
	var master [16]byte
	a := FlowKey(cryptolib.HashMD5, 7, master, "ab", "c")
	b := FlowKey(cryptolib.HashMD5, 7, master, "a", "bc")
	if a == b {
		t.Fatal("address boundary ambiguity in flow key derivation")
	}
}

func TestMKDCoalescesUpcalls(t *testing.T) {
	w := newWorld(t)
	w.principal(t, "peer")
	ks := w.keyService(t, "self")
	mkd := NewMKD(ks, 1)
	defer mkd.Stop()
	const n = 16
	var wg sync.WaitGroup
	keys := make([][16]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k, _, err := mkd.upcall("peer")
			if err != nil {
				t.Error(err)
				return
			}
			keys[i] = k
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if keys[i] != keys[0] {
			t.Fatal("upcalls returned different keys")
		}
	}
	if got := mkd.Upcalls(); got != n {
		t.Fatalf("Upcalls = %d, want %d", got, n)
	}
	// The whole burst should cost at most a couple of exponentiations
	// (single-flight may admit a second batch that raced the first).
	if c := ks.Stats().MasterKeyComputes; c > 2 {
		t.Fatalf("MasterKeyComputes = %d for %d coalesced upcalls", c, n)
	}
}

func TestMKDStop(t *testing.T) {
	w := newWorld(t)
	ks := w.keyService(t, "self")
	mkd := NewMKD(ks, 1)
	mkd.Stop()
	mkd.Stop() // idempotent
	if _, _, err := mkd.upcall("peer"); err != ErrMKDStopped {
		t.Fatalf("Upcall after Stop = %v, want ErrMKDStopped", err)
	}
}

// TestMKDStopStrandsNoWaiter races Stop against upcalls, leaders and
// followers of four peers: half are waiting on a directory that does
// not answer when Stop lands, half arrive as it lands. Every call must
// return, with a key or with ErrMKDStopped — a join that slipped past
// the stop-drain would wait forever.
func TestMKDStopStrandsNoWaiter(t *testing.T) {
	w := newWorld(t)
	peers := []principal.Address{"stop-p0", "stop-p1", "stop-p2", "stop-p3"}
	for _, p := range peers {
		w.principal(t, p)
	}
	bd := &blockingDirectory{Inner: w.dir, release: make(chan struct{})}
	defer close(bd.release)
	mkd := NewMKD(NewKeyService(w.principal(t, "stop-self"), bd, w.ver, w.clock, KeyServiceConfig{}), 2)
	const n = 32
	errc := make(chan error, n)
	upcall := func(i int) {
		_, _, err := mkd.upcall(peers[i%len(peers)])
		errc <- err
	}
	for i := 0; i < n/2; i++ {
		go upcall(i)
	}
	for deadline := time.Now().Add(5 * time.Second); mkd.Upcalls() < n/2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d upcalls joined", mkd.Upcalls(), n/2)
		}
	}
	for i := n / 2; i < n; i++ {
		go upcall(i)
	}
	mkd.Stop()
	deadline := time.After(5 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case err := <-errc:
			if err != nil && !errors.Is(err, ErrMKDStopped) {
				t.Errorf("upcall returned %v, want a key or ErrMKDStopped", err)
			}
		case <-deadline:
			t.Fatalf("%d of %d upcalls still waiting 5 s after Stop", n-i, n)
		}
	}
}

// TestOpenCoalescesFlowKeyMisses drives the MKD's per-peer flight
// through Open: concurrent opens on one fresh flow, while the receiver's
// directory holds the leading miss, each make an upcall but share one
// master key computation. Every other open's key span carries
// FlagKeyCoalesced; a worker that never landed would hang them here.
func TestOpenCoalescesFlowKeyMisses(t *testing.T) {
	w := newWorld(t)
	bd := &blockingDirectory{Inner: w.dir, release: make(chan struct{})}
	tr := &recordingTracer{spans: map[TraceID][]Span{}}
	a, b, _ := endpointPair(t, w, func(c *Config) {
		if c.Identity.Addr == "bob" {
			c.Directory = bd
			c.Tracer = tr
		}
	})
	const n = 6
	sealed := make([]transport.Datagram, n)
	for i := range sealed {
		var err error
		if sealed[i], err = a.Seal(transport.Datagram{Destination: "bob", Payload: []byte{byte(i)}}, true); err != nil {
			t.Fatal(err)
		}
	}
	errc := make(chan error, n)
	for _, dg := range sealed {
		go func() {
			_, err := b.Open(dg)
			errc <- err
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); b.Snapshot().MKDUpcalls < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("MKDUpcalls = %d, want %d upcalls on the held miss", b.Snapshot().MKDUpcalls, n)
		}
	}
	close(bd.release)
	deadline := time.After(5 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
		case <-deadline:
			t.Fatalf("%d of %d opens still waiting on the MKD", n-i, n)
		}
	}
	s := b.Snapshot()
	if s.MKDUpcalls != n {
		t.Errorf("MKDUpcalls = %d, want %d", s.MKDUpcalls, n)
	}
	if s.Keying.MasterKeyComputes != 1 {
		t.Errorf("MasterKeyComputes = %d, want 1", s.Keying.MasterKeyComputes)
	}
	coalesced := 0
	for _, spans := range tr.take() {
		for _, sp := range spans {
			if sp.Kind == SpanFlowKey && sp.Flags&FlagKeyCoalesced != 0 {
				coalesced++
			}
		}
	}
	if coalesced != n-1 {
		t.Errorf("%d key spans carry FlagKeyCoalesced, want %d", coalesced, n-1)
	}
}

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
	if _, err := ks.certificate("bob"); err == nil {
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
