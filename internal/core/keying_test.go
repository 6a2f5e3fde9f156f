package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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

func (w *testWorld) keyService(t testing.TB, addr principal.Address, cfg KeyServiceConfig) *KeyService {
	t.Helper()
	return NewKeyService(w.principal(t, addr), w.dir, w.ver, w.clock, cfg)
}

func TestKeyServiceMasterKeySymmetric(t *testing.T) {
	w := newWorld(t)
	ksA := w.keyService(t, "a", KeyServiceConfig{})
	ksB := w.keyService(t, "b", KeyServiceConfig{})
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
	ks := w.keyService(t, "self", KeyServiceConfig{})
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

// TestPVCEvictionIndependentOfMKC: two peers that share a slot of a
// 64-slot MKC. Keying A, B, A computes A's master key twice — the MKC
// conflict is real — but the PVC, indexed by its own hash, still holds
// A's certificate: two directory fetches, not three.
func TestPVCEvictionIndependentOfMKC(t *testing.T) {
	const size = 64
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
	ks := w.keyService(t, "self", KeyServiceConfig{PVCSize: size, MKCSize: size})
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
	ks := w.keyService(t, "self", KeyServiceConfig{})
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
	ks := w.keyService(t, "self", KeyServiceConfig{})
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
	ks.InvalidatePeer("peer") // drop the MKC entry so the cert path runs
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

// upcallKey is one upcall from start to result, as the key plane makes
// it on an MKC miss.
func upcallKey(m *MKD, peer principal.Address) ([16]byte, KeyNote, error) {
	u, err := m.start(peer)
	if err != nil {
		return [16]byte{}, KeyNote{}, err
	}
	return m.wait(&u)
}

func TestMKDCoalescesUpcalls(t *testing.T) {
	w := newWorld(t)
	w.principal(t, "peer")
	ks := w.keyService(t, "self", KeyServiceConfig{})
	mkd := NewMKD(ks, 1)
	defer mkd.Stop()
	const n = 16
	var wg sync.WaitGroup
	keys := make([][16]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k, _, err := upcallKey(mkd, "peer")
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
	ks := w.keyService(t, "self", KeyServiceConfig{})
	mkd := NewMKD(ks, 1)
	mkd.Stop()
	mkd.Stop() // idempotent
	if _, _, err := upcallKey(mkd, "peer"); err != ErrMKDStopped {
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
		_, _, err := upcallKey(mkd, peers[i%len(peers)])
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

func TestFlowKeyFlightCoalesces(t *testing.T) {
	var fl flight[flowCacheKey, keyResult]
	var calls atomic.Int32
	release := make(chan struct{})
	ck := flowCacheKey{SFL: 1, Dst: "b", Src: "a"}
	want := [16]byte{0xAB, 0xCD}

	results := make(chan [16]byte, 9)
	derive := func() keyResult {
		calls.Add(1)
		<-release
		return keyResult{key: want}
	}
	// The leader takes the slot and blocks inside the derivation...
	go func() {
		r, _ := fl.do(ck, derive)
		results <- r.key
	}()
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	// ...then eight followers pile onto the same key; each must register
	// as a dedup rather than starting its own derivation.
	for i := 0; i < 8; i++ {
		go func() {
			r, _ := fl.do(ck, derive)
			results <- r.key
		}()
	}
	for fl.Dedups() != 8 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < 9; i++ {
		if k := <-results; k != want {
			t.Fatalf("waiter %d got key %x", i, k)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("derivation ran %d times, want 1", n)
	}
}

func TestFlowKeyFlightDistinctKeysIndependent(t *testing.T) {
	var fl flight[flowCacheKey, keyResult]
	a, _ := fl.do(flowCacheKey{SFL: 1, Dst: "b", Src: "a"}, func() keyResult {
		return keyResult{key: [16]byte{1}}
	})
	b, _ := fl.do(flowCacheKey{SFL: 2, Dst: "b", Src: "a"}, func() keyResult {
		return keyResult{key: [16]byte{2}}
	})
	if a.key == b.key {
		t.Fatal("distinct flows shared a derivation")
	}
	if fl.Dedups() != 0 {
		t.Fatalf("sequential distinct derivations counted %d dedups", fl.Dedups())
	}
	// The slot is released after completion: a later derivation for the
	// same key runs again (the RFKC, not the flight, is the cache).
	var calls int
	fl.do(flowCacheKey{SFL: 1, Dst: "b", Src: "a"}, func() keyResult {
		calls++
		return keyResult{key: [16]byte{1}}
	})
	if calls != 1 {
		t.Fatal("post-completion derivation did not run")
	}
}

func TestFlowKeyFlightPropagatesError(t *testing.T) {
	var fl flight[flowCacheKey, keyResult]
	release := make(chan struct{})
	started := make(chan struct{})
	ck := flowCacheKey{SFL: 9, Dst: "b", Src: "a"}
	errc := make(chan error, 2)
	go func() {
		r, _ := fl.do(ck, func() keyResult {
			close(started)
			<-release
			return keyResult{err: ErrKeyingOverload}
		})
		errc <- r.err
	}()
	<-started
	go func() {
		r, _ := fl.do(ck, func() keyResult { return keyResult{} })
		errc <- r.err
	}()
	for fl.Dedups() != 1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errc; !errors.Is(err, ErrKeyingOverload) {
			t.Fatalf("waiter %d err = %v, want ErrKeyingOverload", i, err)
		}
	}
}

// TestOpenCoalescesFlowKeyMisses drives receiveFlowKey's flight through
// Open: concurrent opens on one fresh flow, while the receiver's
// directory holds the leading miss, share one derivation. Every other
// open counts in Snapshot().FlowKeyDedups and its key span carries
// FlagKeyCoalesced; a leader that never landed would hang them here.
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
	for deadline := time.Now().Add(5 * time.Second); b.Snapshot().FlowKeyDedups < n-1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("FlowKeyDedups = %d, want %d joins on the held miss", b.Snapshot().FlowKeyDedups, n-1)
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
			t.Fatalf("%d of %d opens still waiting on the flow-key flight", n-i, n)
		}
	}
	if d := b.Snapshot().FlowKeyDedups; d != n-1 {
		t.Errorf("FlowKeyDedups = %d, want %d", d, n-1)
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
